import dataclasses
import gc
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cee import cli, edits
from cee.errors import MalformedObject
from cee.explain import read_transactions
from cee.harness import golden_story_pair, random_scene_corpus
from cee.scene import read_detections, read_targets
from cee.story import ClevrObject, Story, read_stories, write_stories
from cee.taxonomy import resolve_taxonomy


@pytest.fixture()
def golden_corpus(tmp_path):
    gen, gt = golden_story_pair()
    gen_path = tmp_path / "gen.jsonl"
    gt_path = tmp_path / "gt.jsonl"
    write_stories(gen_path, [gen])
    write_stories(gt_path, [gt])
    return gen_path, gt_path


def _write_detections(path, rows):
    lines = [json.dumps(r) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


STREET_DETECTIONS = [
    {
        "image_id": "fig",
        "detections": [
            {"concept": "car", "confidence": 0.9},
            {"concept": "car", "confidence": 0.8},
            {"concept": "car", "confidence": 0.7},
            {"concept": "traffic light", "confidence": 0.95},
            {"concept": "stop sign", "confidence": 0.85},
        ],
    }
]
STREET_TARGETS = [{"image_id": "fig", "concepts": ["light", "buildings"]}]


MISPLACED = {"size": "red", "color": "small", "material": "rubber", "shape": "cube"}


# -- eval-story ------------------------------------------------------------------


def test_eval_story_golden_report(golden_corpus, tmp_path, capsys):
    gen_path, gt_path = golden_corpus
    out = tmp_path / "out"
    rc = cli.main(
        ["eval-story", str(gen_path), str(gt_path), "--out-dir", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == (
        "stories=1 join_miss=0 GSL=10 AvgGSL=10.0000 GCL=12 AvgGCL=0.0000"
    )
    metrics = (out / "story_metrics.csv").read_text(encoding="utf-8")
    assert metrics.splitlines() == [
        "story_id,length,per_frame_csed,sl,avg_sl,cl,avg_cl,cl_flags",
        "golden,4,2;2;2;4,10,2.5000,12,0.0000,",
    ]
    summary = (out / "global_summary.csv").read_text(encoding="utf-8")
    assert summary.splitlines()[1] == "1,0,10,10.0000,12,0.0000"
    loss = (out / "semantic_loss.csv").read_text(encoding="utf-8")
    assert loss.splitlines()[0] == "category,frame_1,frame_2,frame_3,frame_4"
    material = next(l for l in loss.splitlines() if l.startswith("material"))
    assert material == "material,100.00,50.00,33.33,25.00"
    transactions = (out / "transactions.jsonl").read_text(encoding="utf-8")
    record = json.loads(transactions)
    assert record["id"] == "golden"
    assert set(record["edits"]) == {"R:rubber→metallic", "R:sphere→cylinder"}


def test_eval_story_counts_join_misses(golden_corpus, tmp_path, capsys):
    gen_path, gt_path = golden_corpus
    extra = tmp_path / "gt2.jsonl"
    extra.write_text(
        gt_path.read_text(encoding="utf-8")
        + gt_path.read_text(encoding="utf-8").replace('"golden"', '"orphan"'),
        encoding="utf-8",
    )
    rc = cli.main(["eval-story", str(gen_path), str(extra), "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "join_miss=1" in captured.out
    assert "join-miss: id 'orphan' only in ground-truth corpus" in captured.err


def test_eval_story_no_shared_ids_fails(golden_corpus, tmp_path, capsys):
    gen_path, gt_path = golden_corpus
    renamed = tmp_path / "gt3.jsonl"
    renamed.write_text(
        gt_path.read_text(encoding="utf-8").replace('"golden"', '"other"'),
        encoding="utf-8",
    )
    rc = cli.main(["eval-story", str(gen_path), str(renamed), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("join-miss")


def test_eval_story_duplicate_story_id_fails(golden_corpus, tmp_path, capsys):
    gen_path, gt_path = golden_corpus
    doubled = tmp_path / "gen2.jsonl"
    doubled.write_text(gen_path.read_text(encoding="utf-8") * 2, encoding="utf-8")
    rc = cli.main(["eval-story", str(doubled), str(gt_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {doubled}:2: duplicate story id 'golden'\n"
    assert not (tmp_path / "o").exists()


def test_eval_story_length_mismatch_names_the_story(tmp_path, capsys):
    gen, gt = golden_story_pair()
    short_path, gt_path = tmp_path / "short.jsonl", tmp_path / "gt.jsonl"
    write_stories(short_path, [Story(id=gen.id, frames=gen.frames[:3])])
    write_stories(gt_path, [gt])
    out = tmp_path / "out"
    rc = cli.main(["eval-story", str(short_path), str(gt_path), "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: story 'golden': generated story has 3 frames, ground truth has 4\n"
    )
    assert not out.exists()


def test_eval_story_misplaced_attribute_fails(tmp_path, capsys):
    # well-formed JSON, so only the taxonomy check at ingest can reject it
    story = tmp_path / "story.jsonl"
    story.write_text(json.dumps({"id": "s", "frames": [[MISPLACED]]}) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["eval-story", str(story), str(story), "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {story}:1: attribute 'red' resolves to category 'color', expected 'size'\n"
    )
    assert not out.exists()


def test_eval_story_reads_each_distinct_object_once(golden_corpus, tmp_path, monkeypatch, capsys):
    # the ground-truth file's objects are the generated file's, where equal
    pairs = []
    evaluate = cli.evaluate_story
    monkeypatch.setattr(cli, "evaluate_story", lambda gen, gt, *rest: pairs.append((gen, gt))
                        or evaluate(gen, gt, *rest))
    gen_path, gt_path = golden_corpus
    assert cli.main(["eval-story", str(gen_path), str(gt_path), "--out-dir", str(tmp_path)]) == 0
    [(gen, gt)] = pairs
    generated = {o: o for frame in gen.frames for o in frame}
    shared = [o for frame in gt.frames for o in frame if o in generated]
    assert shared and all(generated[o] is o for o in shared)


def test_eval_story_fails_a_bad_ground_truth_object_at_its_own_line(tmp_path, capsys):
    # the generated file's good object is interned first; the ground truth's
    # misplaced one still fails with its own file and line
    good = {"size": "small", "color": "red", "material": "rubber", "shape": "cube"}
    gen, gt = tmp_path / "gen.jsonl", tmp_path / "gt.jsonl"
    gen.write_text(json.dumps({"id": "s", "frames": [[good, good]]}) + "\n", encoding="utf-8")
    gt.write_text(json.dumps({"id": "r", "frames": [[good]]}) + "\n"
                  + json.dumps({"id": "s", "frames": [[good, MISPLACED]]}) + "\n", encoding="utf-8")
    rc = cli.main(["eval-story", str(gen), str(gt), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {gt}:2: attribute 'red' resolves to category 'color', expected 'size'\n"
    )


def test_eval_story_missing_file_reports_error(tmp_path, capsys):
    rc = cli.main(["eval-story", str(tmp_path / "nope.jsonl"), str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["eval-story", "{dir}", "{dir}"], ["explain", "{dir}"]])
def test_directory_as_input_names_it(command, tmp_path, capsys):
    rc = cli.main([arg.format(dir=tmp_path) for arg in command])
    assert rc == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_non_utf8_byte_names_path_and_line(golden_corpus, tmp_path, capsys):
    gen_path, gt_path = golden_corpus
    gt_path.write_bytes(gt_path.read_bytes() + b'{"id": "caf\xe9", "frames": []}\n')
    rc = cli.main(["eval-story", str(gen_path), str(gt_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {gt_path}:2: 'utf-8' codec can't decode byte 0xe9 in position 11: "
        "invalid continuation byte\n"
    )
    assert not (tmp_path / "out").exists()


def test_crlf_input_reads_like_lf(golden_corpus, tmp_path):
    gen_path, gt_path = golden_corpus
    outputs = []
    for name, newline in (("lf", b"\n"), ("crlf", b"\r\n")):
        paths = []
        for path in (gen_path, gt_path):
            copy = tmp_path / f"{name}-{path.name}"
            # a trailing blank line too, which must still be skipped
            copy.write_bytes((path.read_bytes() + b"\n").replace(b"\n", newline))
            paths.append(str(copy))
        out = tmp_path / name
        assert cli.main(["eval-story", *paths, "--out-dir", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


# -- eval-scene -------------------------------------------------------------------


@pytest.mark.parametrize("case", ["threshold-out-of-range", "unknown-concept", "missing-detections"])
def test_eval_scene_bad_run_input_names_it(case, tmp_path, capsys):
    det_path, tgt_path = tmp_path / "det.jsonl", tmp_path / "tgt.jsonl"
    _write_detections(tgt_path, STREET_TARGETS)
    if case == "threshold-out-of-range":
        _write_detections(det_path, STREET_DETECTIONS)
        extra, message = ["--threshold", "1.5"], "threshold 1.5 outside [0, 1]"
    elif case == "unknown-concept":
        _write_detections(det_path, [{"image_id": "fig", "detections": [
            {"concept": "zebra", "confidence": 0.9}]}])
        extra, message = [], f"{det_path}:1: concept 'zebra' is not in the taxonomy"
    else:
        extra, message = [], f"[Errno 2] No such file or directory: '{det_path}'"
    out = tmp_path / "out"
    rc = cli.main(["eval-scene", str(det_path), str(tgt_path), "--taxonomy", "street", *extra,
                   "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_eval_scene_census(tmp_path, capsys):
    det_path = tmp_path / "det.jsonl"
    tgt_path = tmp_path / "tgt.jsonl"
    _write_detections(det_path, STREET_DETECTIONS)
    _write_detections(tgt_path, STREET_TARGETS)
    out = tmp_path / "out"
    rc = cli.main(
        [
            "eval-scene", str(det_path), str(tgt_path),
            "--taxonomy", "street", "--threshold", "0.6",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    census = (out / "census.csv").read_text(encoding="utf-8")
    header, row = census.strip().splitlines()
    assert row.split(",")[:7] == ["0.6", "0", "0", "3", "6", "2", "8"]
    assert row.split(",")[7] == "14.0000"
    tx = (out / "transactions_td0.6.jsonl").read_text(encoding="utf-8")
    assert set(json.loads(tx)["edits"]) == {
        "D:car", "R:traffic light→light", "R:stop sign→buildings",
    }
    assert capsys.readouterr().out.startswith(header)


@pytest.mark.parametrize("profile", ["flattened", "path"])
def test_eval_scene_writes_no_op_for_a_target_naming_the_root(profile, tmp_path):
    # inserting the root costs 0, and like a free pair it writes no op, so the
    # census counts nothing and both transactions are empty
    det_path, tgt_path = tmp_path / "det.jsonl", tmp_path / "tgt.jsonl"
    _write_detections(det_path, [
        {"image_id": "a", "detections": [{"concept": "car", "confidence": 0.9}]},
        {"image_id": "b", "detections": []},
    ])
    _write_detections(tgt_path, [
        {"image_id": "a", "concepts": ["entity", "car"]},
        {"image_id": "b", "concepts": ["entity"]},
    ])
    out = tmp_path / "out"
    rc = cli.main(["eval-scene", str(det_path), str(tgt_path), "--taxonomy", "street",
                   "--cost-profile", profile, "--threshold", "0.5", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "census.csv").read_text(encoding="utf-8").splitlines()[1] == (
        "0.5,0,0,0,0,0,0,0.0000"
    )
    tx = (out / "transactions_td0.5.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in tx] == [{"edits": [], "id": "a"}, {"edits": [], "id": "b"}]


def test_eval_scene_threshold_sweep_monotone_inserts(tmp_path):
    det_path = tmp_path / "det.jsonl"
    tgt_path = tmp_path / "tgt.jsonl"
    _write_detections(
        det_path,
        [
            {
                "image_id": "a",
                "detections": [
                    {"concept": "car", "confidence": 0.55},
                    {"concept": "light", "confidence": 0.65},
                ],
            }
        ],
    )
    _write_detections(tgt_path, [{"image_id": "a", "concepts": ["car", "light"]}])
    out = tmp_path / "out"
    rc = cli.main(
        ["eval-scene", str(det_path), str(tgt_path), "--taxonomy", "street",
         "--out-dir", str(out)]
    )
    assert rc == 0
    rows = (out / "census.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
    inserts = [int(r.split(",")[1]) for r in rows]
    assert len(rows) == 3  # default sweep 0.5, 0.6, 0.7
    assert inserts == sorted(inserts)


def test_eval_scene_duplicate_target_id_fails(tmp_path, capsys):
    det_path = tmp_path / "det.jsonl"
    tgt_path = tmp_path / "tgt.jsonl"
    _write_detections(det_path, [{"image_id": "a", "detections": []}])
    _write_detections(
        tgt_path,
        [{"image_id": "a", "concepts": ["car"]}, {"image_id": "a", "concepts": ["light"]}],
    )
    rc = cli.main(
        ["eval-scene", str(det_path), str(tgt_path), "--taxonomy", "street",
         "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {tgt_path}:2: duplicate image id 'a'\n"


def test_eval_scene_duplicate_detection_id_fails(tmp_path, capsys):
    det_path = tmp_path / "det.jsonl"
    tgt_path = tmp_path / "tgt.jsonl"
    _write_detections(det_path, STREET_DETECTIONS * 2)
    _write_detections(tgt_path, STREET_TARGETS)
    rc = cli.main(
        ["eval-scene", str(det_path), str(tgt_path), "--taxonomy", "street",
         "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {det_path}:2: duplicate image id 'fig'\n"


def test_eval_scene_no_shared_ids_fails(tmp_path, capsys):
    det_path = tmp_path / "det.jsonl"
    tgt_path = tmp_path / "tgt.jsonl"
    _write_detections(det_path, STREET_DETECTIONS)
    _write_detections(tgt_path, [{"image_id": "other", "concepts": ["car"]}])
    out = tmp_path / "o"
    rc = cli.main(
        ["eval-scene", str(det_path), str(tgt_path), "--taxonomy", "street",
         "--out-dir", str(out)]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "join-miss: id 'fig' only in detections\n"
        "join-miss: id 'other' only in targets\n"
        "error: no image ids shared between detections and targets\n"
    )
    assert not out.exists()


PINNED_DETECTIONS = [
    {
        "image_id": "a",
        "detections": [
            {"concept": "car", "confidence": 0.9},
            {"concept": "truck", "confidence": 0.6},
            {"concept": "traffic light", "confidence": 0.8},
        ],
    },
    {
        "image_id": "b",
        "detections": [
            {"concept": "person", "confidence": 0.55},
            {"concept": "stop sign", "confidence": 0.95},
        ],
    },
    {"image_id": "c", "detections": []},
]
PINNED_TARGETS = [
    {"image_id": "a", "concepts": ["car", "light"]},
    {"image_id": "b", "concepts": ["person", "buildings", "car"]},
    {"image_id": "c", "concepts": ["truck"]},
]
PINNED_CENSUS = {
    "markdown": (
        "| threshold | n_insert | cost_insert | n_delete | cost_delete"
        " | n_replace | cost_replace | mean_csed |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| 0.5 | 2 | 4 | 1 | 2 | 2 | 8 | 4.6667 |\n"
        "| 0.75 | 3 | 5 | 0 | 0 | 2 | 8 | 4.3333 |\n"
    ),
    "json": json.dumps(
        [
            {
                "threshold": "0.5", "n_insert": "2", "cost_insert": "4",
                "n_delete": "1", "cost_delete": "2", "n_replace": "2",
                "cost_replace": "8", "mean_csed": "4.6667",
            },
            {
                "threshold": "0.75", "n_insert": "3", "cost_insert": "5",
                "n_delete": "0", "cost_delete": "0", "n_replace": "2",
                "cost_replace": "8", "mean_csed": "4.3333",
            },
        ],
        indent=2,
    ) + "\n",
    "csv": (
        "threshold,n_insert,cost_insert,n_delete,cost_delete,n_replace,cost_replace,mean_csed\n"
        "0.5,2,4,1,2,2,8,4.6667\n"
        "0.75,3,5,0,0,2,8,4.3333\n"
    ),
}
PINNED_TRANSACTIONS = {
    "transactions_td0.5.jsonl": (
        '{"edits": ["D:truck", "R:traffic light→light"], "id": "a"}\n'
        '{"edits": ["I:car", "R:stop sign→buildings"], "id": "b"}\n'
        '{"edits": ["I:truck"], "id": "c"}\n'
    ),
    "transactions_td0.75.jsonl": (
        '{"edits": ["R:traffic light→light"], "id": "a"}\n'
        '{"edits": ["I:car", "I:person", "R:stop sign→buildings"], "id": "b"}\n'
        '{"edits": ["I:truck"], "id": "c"}\n'
    ),
}


@pytest.mark.parametrize("fmt,ext", [("markdown", "md"), ("json", "json"), ("csv", "csv")])
def test_eval_scene_census_text_is_pinned(fmt, ext, tmp_path, capsys):
    det_path = tmp_path / "det.jsonl"
    tgt_path = tmp_path / "tgt.jsonl"
    _write_detections(det_path, PINNED_DETECTIONS)
    _write_detections(tgt_path, PINNED_TARGETS)
    out = tmp_path / "out"
    rc = cli.main(
        [
            "eval-scene", str(det_path), str(tgt_path), "--taxonomy", "street",
            "--threshold", "0.75", "--threshold", "0.5", "--format", fmt,
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == PINNED_CENSUS[fmt]
    written = {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}
    assert written == {f"census.{ext}": PINNED_CENSUS[fmt], **PINNED_TRANSACTIONS}


@pytest.mark.parametrize("n", ["1", "3"])  # the street fixture holds one image
def test_eval_scene_show_scripts_is_pinned(n, tmp_path, capsys):
    det_path, tgt_path = tmp_path / "det.jsonl", tmp_path / "tgt.jsonl"
    _write_detections(det_path, STREET_DETECTIONS)
    _write_detections(tgt_path, STREET_TARGETS)
    argv = ["eval-scene", str(det_path), str(tgt_path), "--taxonomy", "street",
            "--threshold", "0.75", "--threshold", "0.6"]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "plain")]) == 0
    census = capsys.readouterr().out
    out = tmp_path / "out"
    assert cli.main([*argv, "--show-scripts", n, "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == census + (
        "# costliest images at threshold 0.6\n"
        "image fig (cost 14)\n"
        "I: { }\n"
        "D: {'car','car','car'}\n"
        "R: {'stop sign'→'buildings','traffic light'→'light'}\n"
        "# costliest images at threshold 0.75\n"
        "image fig (cost 12)\n"
        "I: { }\n"
        "D: {'car','car'}\n"
        "R: {'stop sign'→'buildings','traffic light'→'light'}\n"
    )
    # the scripts go to stdout only: the files are those of a run without the flag
    plain = {p.name: p.read_bytes() for p in (tmp_path / "plain").iterdir()}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == plain


def test_eval_scene_show_scripts_orders_by_cost_then_image_id(tmp_path, capsys):
    det_path, tgt_path = tmp_path / "det.jsonl", tmp_path / "tgt.jsonl"
    _write_detections(det_path, PINNED_DETECTIONS)
    _write_detections(tgt_path, PINNED_TARGETS)
    rc = cli.main(["eval-scene", str(det_path), str(tgt_path), "--taxonomy", "street",
                   "--threshold", "0.5", "--show-scripts", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    # a and b both cost 6 at 0.5, so a comes first; c costs 5 and is left out
    shown = capsys.readouterr().out.split("# costliest images at threshold 0.5\n")[1]
    assert [line for line in shown.splitlines() if line.startswith("image")] == [
        "image a (cost 6)", "image b (cost 6)",
    ]


def test_eval_scene_negative_show_scripts_reads_and_writes_nothing(tmp_path, capsys):
    # the inputs do not exist, so reading either would fail with another message
    out = tmp_path / "out"
    rc = cli.main(["eval-scene", str(tmp_path / "det.jsonl"), str(tmp_path / "tgt.jsonl"),
                   "--show-scripts", "-1", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: --show-scripts must be at least 0, got -1\n")
    assert not out.exists()


# -- explain ---------------------------------------------------------------------


def test_explain_planted_rule(tmp_path, capsys):
    tx_path = tmp_path / "tx.jsonl"
    lines = [
        {"id": "s0", "edits": ["R:rubber→metallic", "I:cube"]},
        {"id": "s1", "edits": ["R:rubber→metallic"]},
        {"id": "s2", "edits": ["R:rubber→metallic", "D:cube"]},
        {"id": "s3", "edits": ["R:red→blue", "I:cube"]},
    ]
    tx_path.write_text(
        "\n".join(json.dumps(l, ensure_ascii=False) for l in lines) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = cli.main(["explain", str(tx_path), "--min-support", "0.5", "--out-dir", str(out)])
    assert rc == 0
    rules = (out / "rules.csv").read_text(encoding="utf-8").splitlines()
    assert rules[0] == (
        "source,target,frequency,support_pct,antecedent_support_pct,consequent_support_pct"
    )
    assert rules[1] == "rubber,metallic,3,75.00,75.00,75.00"
    assert len(rules) == 2  # red->blue at 25% misses the cut
    freq = (out / "id_frequency.csv").read_text(encoding="utf-8").splitlines()
    assert "I,cube,2,100.00" in freq
    assert "D,cube,1,100.00" in freq


def test_markdown_escapes_a_pipe_in_a_cell(tmp_path, capsys):
    tx_path = tmp_path / "tx.jsonl"
    tx_path.write_text('{"id": "s0", "edits": ["R:a|b→d"]}\n', encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["explain", str(tx_path), "--format", "markdown", "--out-dir", str(out)])
    assert rc == 0
    rules = (out / "rules.md").read_text(encoding="utf-8").splitlines()
    assert rules[2] == "| a\\|b | d | 1 | 100.00 | 100.00 | 100.00 |"
    assert cli.render_table(["x|y"], [["1"]], "markdown") == "| x\\|y |\n| --- |\n| 1 |\n"
    assert cli.render_table(["x|y"], [["a|b"]], "csv") == "x|y\na|b\n"


def test_markdown_writes_a_line_break_in_a_cell_as_br(tmp_path, capsys):
    kept = ClevrObject("small", "brown", "rubber", "sphere")
    paths = [tmp_path / "gen.jsonl", tmp_path / "gt.jsonl"]
    for path in paths:
        write_stories(path, [Story(id="a\nb|c", frames=[[kept]])])
    out = tmp_path / "out"
    assert cli.main(["eval-story", *map(str, paths), "--format", "markdown",
                     "--out-dir", str(out)]) == 0
    rows = (out / "story_metrics.md").read_text(encoding="utf-8").splitlines()
    assert rows[2:] == ["| a<br>b\\|c | 1 | 0 | 0 | 0.0000 | 0 | 0.0000 |  |"]
    cells = [["a\r\nb", "c\rd", "e\nf"]]
    assert cli.render_table(["h\nh", "x", "y"], cells, "markdown") == (
        "| h<br>h | x | y |\n| --- | --- | --- |\n| a<br>b | c<br>d | e<br>f |\n"
    )
    assert cli.render_table(["h"], [["e\nf"]], "csv") == 'h\n"e\nf"\n'
    assert cli.render_table(["h"], [["e\nf"]], "json") == '[\n  {\n    "h": "e\\nf"\n  }\n]\n'


def test_render_table_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        cli.render_table(["h"], [["1"]], "xml")


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param("R:a\nb→d", id="newline-in-a-concept"),
        pytest.param("hello", id="no-kind"),
        pytest.param("D:", id="no-concept"),
        pytest.param("R:x→", id="replace-without-target"),
        pytest.param("R:x", id="replace-without-arrow"),
        pytest.param("I:Big Dog", id="concept-not-normalised"),
        pytest.param("R:a→b→c", id="replace-with-a-second-arrow"),
        pytest.param("D:a→b", id="arrow-in-a-deleted-concept"),
    ],
)
def test_explain_rejects_a_malformed_edit_token(edit, tmp_path, capsys):
    tx_path = tmp_path / "tx.jsonl"
    lines = [{"id": "s0", "edits": ["R:rubber→metallic"]}, {"id": "s1", "edits": ["I:cube", edit]}]
    tx_path.write_text(
        "".join(json.dumps(l, ensure_ascii=False) + "\n" for l in lines), encoding="utf-8"
    )
    out = tmp_path / "out"
    rc = cli.main(["explain", str(tx_path), "--format", "markdown", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {tx_path}:2: edit {edit!r} is not D:<concept>, I:<concept> or"
        " R:<concept>→<concept> over normalised concept names\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("edit", [["x"], {"k": "v"}], ids=["list", "object"])
def test_explain_rejects_an_unhashable_edit_like_any_non_string(edit, tmp_path, capsys):
    tx_path = tmp_path / "tx.jsonl"
    lines = [{"id": "s0", "edits": ["R:rubber→metallic"]}, {"id": "s1", "edits": ["I:cube", edit, 3]}]
    tx_path.write_text(
        "".join(json.dumps(l, ensure_ascii=False) + "\n" for l in lines), encoding="utf-8"
    )
    out = tmp_path / "out"
    rc = cli.main(["explain", str(tx_path), "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {tx_path}:2: edit {edit!r} is not a string\n")
    assert not out.exists()


def test_explain_calls_each_stage_once(tmp_path, monkeypatch):
    tx_path = tmp_path / "tx.jsonl"
    tx_path.write_text('{"id": "s0", "edits": ["R:a→b", "I:c"]}\n' * 3, encoding="utf-8")
    calls = dict.fromkeys(["read_transactions", "mine_rules", "id_frequency_table"], 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    assert cli.main(["explain", str(tx_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == {"read_transactions": 1, "mine_rules": 1, "id_frequency_table": 1}


def test_explain_empty_transactions(tmp_path, capsys):
    tx_path = tmp_path / "tx.jsonl"
    tx_path.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["explain", str(tx_path), "--out-dir", str(out)])
    assert rc == 0
    assert (out / "rules.csv").read_text(encoding="utf-8").splitlines() == [
        "source,target,frequency,support_pct,antecedent_support_pct,consequent_support_pct"
    ]


def test_explain_empty_transactions_still_checks_min_support(tmp_path, capsys):
    tx_path = tmp_path / "tx.jsonl"
    tx_path.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    for flag, message in [
        ("--min-support", "min_support must be in (0, 1]"),
        ("--top-k", "top_k must be at least 1"),
    ]:
        rc = cli.main(["explain", str(tx_path), flag, "0", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# -- malformed input lines ----------------------------------------------------------

GOOD_DETECTIONS = '{"image_id": "a", "detections": [{"concept": "car", "confidence": 0.9}]}'
GOOD_TARGETS = '{"image_id": "a", "concepts": ["car"]}'
GOOD_OBJECT = {"size": "small", "color": "red", "material": "rubber", "shape": "cube"}
GOOD_STORY = json.dumps({"id": "s", "frames": [[GOOD_OBJECT]]})
SCENE = ["eval-scene", "--taxonomy", "street"]

def _write_inputs(tmp_path, texts):
    paths = []
    for k, text in enumerate(texts):
        path = tmp_path / f"input{k}.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


# concepts unknown to the taxonomy, on lines the solve never reads (below every
# threshold, or on an id without a partner), then on a joined id: (id, texts, bad file, bad line)
UNKNOWN_SCENE_CONCEPTS = [
    ("detection-unknown-below-threshold",
     ['{"image_id": "a", "detections": [{"concept": "zebra", "confidence": 0.1}]}', GOOD_TARGETS],
     0, 1),
    ("detection-unknown-on-unjoined-id",
     [GOOD_DETECTIONS
      + '\n{"image_id": "b", "detections": [{"concept": "zebra", "confidence": 0.9}]}',
      GOOD_TARGETS],
     0, 2),
    ("target-unknown-on-unjoined-id",
     [GOOD_DETECTIONS, GOOD_TARGETS + '\n{"image_id": "b", "concepts": ["zebra"]}'],
     1, 2),
    ("target-unknown-on-joined-id",
     [GOOD_DETECTIONS, '{"image_id": "a", "concepts": ["car", "zebra"]}'],
     1, 1),
    ("detection-unknown-on-joined-id",
     ['{"image_id": "a", "detections": [{"concept": "zebra", "confidence": 0.9}]}', GOOD_TARGETS],
     0, 1),
]
NESTED_TOO_DEEP = "[" * 100000 + "]" * 100000  # past the JSON parser's recursion limit


@pytest.mark.parametrize(
    "command,texts,bad_file,bad_line",
    [
        pytest.param(
            SCENE, ['{"image_id": "a", "detections": [{"concept": "car"}]}', GOOD_TARGETS],
            0, 1, id="detection-without-confidence",
        ),
        pytest.param(
            SCENE, ['{"image_id": "a", "detections": [{"confidence": 0.9}]}', GOOD_TARGETS],
            0, 1, id="detection-without-concept",
        ),
        pytest.param(
            SCENE,
            ['{"image_id": "a", "detections": [{"concept": "car", "confidence": "0.9"}]}',
             GOOD_TARGETS],
            0, 1, id="detection-confidence-a-string",
        ),
        pytest.param(
            SCENE,
            ['{"image_id": "a", "detections": [{"concept": "car", "confidence": true}]}',
             GOOD_TARGETS],
            0, 1, id="detection-confidence-a-bool",
        ),
        pytest.param(
            SCENE, ['{"image_id": "a", "detections": 5}', GOOD_TARGETS],
            0, 1, id="detections-not-a-list",
        ),
        pytest.param(
            SCENE, [GOOD_DETECTIONS + "\n{not json", GOOD_TARGETS],
            0, 2, id="bad-json-on-line-2",
        ),
        pytest.param(
            SCENE + ["--attach-unknown"], [GOOD_DETECTIONS, '{"image_id": "a", "concepts": "car"}'],
            1, 1, id="concepts-not-a-list",
        ),
        pytest.param(
            SCENE, [GOOD_DETECTIONS, '["a", "car"]'],
            1, 1, id="line-not-an-object",
        ),
        pytest.param(
            ["eval-story"], [GOOD_STORY, '{"id": "s", "frames": 5}'],
            1, 1, id="frames-not-a-list",
        ),
        pytest.param(
            ["explain"], ['{"id": "t1", "edits": "R:a→b"}'],
            0, 1, id="edits-not-a-list",
        ),
        pytest.param(
            ["explain"], ['{"id": "t1", "edits": ["R:a→b"]}\n{"id": "t2", "edits": [1]}'],
            0, 2, id="edit-not-a-string",
        ),
        pytest.param(
            SCENE + ["--attach-unknown"],
            ['{"image_id": "a", "detections": [{"concept": null, "confidence": 0.9}]}', GOOD_TARGETS],
            0, 1, id="detection-concept-null",
        ),
        pytest.param(
            SCENE + ["--attach-unknown"], [GOOD_DETECTIONS, '{"image_id": "a", "concepts": [5]}'],
            1, 1, id="target-concept-a-number",
        ),
        pytest.param(
            ["eval-story"], [json.dumps({"id": "s", "frames": [[{**GOOD_OBJECT, "color": 7}]]}), GOOD_STORY],
            0, 1, id="story-attribute-a-number",
        ),
        pytest.param(
            SCENE, [GOOD_DETECTIONS, GOOD_TARGETS + '\n{"image_id": "b", "concepts": []}'],
            1, 2, id="target-concepts-empty",
        ),
        pytest.param(
            ["eval-story"],
            [GOOD_STORY, GOOD_STORY.replace('"s"', '"t"').replace('"red"', '"mauve"')],
            1, 1, id="story-attribute-unknown-on-unjoined-id",
        ),
        pytest.param(
            ["eval-story"], ['{"id": "s", "frames": []}', GOOD_STORY],
            0, 1, id="generated-story-without-frames",
        ),
        pytest.param(
            ["eval-story"], [GOOD_STORY, '{"id": "s", "frames": []}'],
            1, 1, id="ground-truth-story-without-frames",
        ),
        pytest.param(
            ["eval-story"], [GOOD_STORY, GOOD_STORY + '\n{"id": "t", "frames": []}'],
            1, 2, id="story-without-frames-on-unjoined-id",
        ),
        pytest.param(
            ["eval-story"], [GOOD_STORY, GOOD_STORY + "\n" + NESTED_TOO_DEEP],
            1, 2, id="story-line-nested-too-deep",
        ),
        pytest.param(
            SCENE, [NESTED_TOO_DEEP, GOOD_TARGETS],
            0, 1, id="detection-line-nested-too-deep",
        ),
        pytest.param(
            ["explain"], ['{"id": "t1", "edits": []}\n' + NESTED_TOO_DEEP],
            0, 2, id="transaction-line-nested-too-deep",
        ),
        pytest.param(
            SCENE,
            [json.dumps({"image_id": "a", "detections": [{"concept": "car", "confidence": 10**400}]}),
             GOOD_TARGETS],
            0, 1, id="detection-confidence-too-large-for-a-float",
        ),
        *(pytest.param(SCENE, texts, bad_file, bad_line, id=case)
          for case, texts, bad_file, bad_line in UNKNOWN_SCENE_CONCEPTS),
    ],
)
def test_malformed_line_names_path_and_line(command, texts, bad_file, bad_line, tmp_path, capsys):
    paths = _write_inputs(tmp_path, texts)
    out = tmp_path / "out"
    rc = cli.main([command[0], *paths, *command[1:], "--out-dir", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 2
    assert stdout == ""
    assert err.startswith(f"error: {paths[bad_file]}:{bad_line}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("space", ["\x0c", "\xa0"], ids=["form-feed", "no-break-space"])
@pytest.mark.parametrize(
    "command,texts,bad_file",
    [
        pytest.param(["eval-story"], [GOOD_STORY + "\n{space}", GOOD_STORY], 0, id="generated"),
        pytest.param(["eval-story"], [GOOD_STORY, GOOD_STORY + "\n{space}"], 1, id="ground-truth"),
        pytest.param(SCENE, [GOOD_DETECTIONS + "\n{space}", GOOD_TARGETS], 0, id="detections"),
        pytest.param(SCENE, [GOOD_DETECTIONS, GOOD_TARGETS + "\n{space}"], 1, id="targets"),
        pytest.param(["explain"], ['{"id": "t1", "edits": []}\n{space}'], 0, id="transactions"),
    ],
)
def test_line_of_only_non_json_whitespace_is_not_blank(command, texts, bad_file, space, tmp_path,
                                                         capsys):
    # str.strip() strips these, JSON does not: such a line is a bad value, not a blank line
    paths = _write_inputs(tmp_path, [text.replace("{space}", space) for text in texts])
    out = tmp_path / "out"
    rc = cli.main([command[0], *paths, *command[1:], "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: {paths[bad_file]}:2: Expecting value: line 1 column 1 (char 0)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("bad_id", [None, 1, {"k": 1}], ids=["null", "number", "object"])
@pytest.mark.parametrize(
    "command,lines,bad_file,id_key",
    [
        pytest.param(["eval-story"], [GOOD_STORY, GOOD_STORY], 0, "id", id="stories"),
        pytest.param(SCENE, [GOOD_DETECTIONS, GOOD_TARGETS], 0, "image_id", id="detections"),
        pytest.param(SCENE, [GOOD_DETECTIONS, GOOD_TARGETS], 1, "image_id", id="targets"),
        pytest.param(["explain"], ['{"id": "t1", "edits": ["R:a→b"]}'], 0, "id",
                     id="transactions"),
    ],
)
def test_non_string_id_names_path_and_line(command, lines, bad_file, id_key, bad_id, tmp_path,
                                           capsys):
    # line 2 repeats line 1 under an id that is not a string; a null id read as
    # "None" would join the string id "None" of the other file
    texts = list(lines)
    bad = {**json.loads(lines[bad_file]), id_key: bad_id}
    texts[bad_file] += "\n" + json.dumps(bad, ensure_ascii=False)
    paths = _write_inputs(tmp_path, texts)
    out = tmp_path / "out"
    rc = cli.main([command[0], *paths, *command[1:], "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: {paths[bad_file]}:2: {id_key!r} must be a string, "
            f"got {type(bad_id).__name__}\n"
    )
    assert not out.exists()


# each reader with three good lines; only transactions may repeat an id, and do.
# The transactions reader counts edit sets; its entry lists each once per line.
READERS = {
    "stories": (lambda path: read_stories(path, resolve_taxonomy("clevr")),
                [GOOD_STORY.replace('"s"', f'"s{k}"') for k in range(3)]),
    "detections": (lambda path: read_detections(path, resolve_taxonomy("street")),
                   [GOOD_DETECTIONS.replace('"a"', f'"a{k}"') for k in range(3)]),
    "targets": (lambda path: read_targets(path, resolve_taxonomy("street")),
                [GOOD_TARGETS.replace('"a"', f'"a{k}"') for k in range(3)]),
    "transactions": (lambda path: list(read_transactions(path).elements()),
                     ['{"id": "t0", "edits": ["R:a→b"]}', '{"id": "t1", "edits": ["D:x"]}',
                      '{"id": "t0", "edits": ["R:a→b"]}']),
}
LINE_BREAKS = {"lf": ["\n"], "crlf": ["\r\n"], "cr": ["\r"], "mixed": ["\r", "\r\n", "\n"]}


def _joined(lines, breaks):
    """``lines`` as bytes, line k ended by ``breaks[k % len(breaks)]``."""
    return b"".join(line + breaks[k % len(breaks)].encode() for k, line in enumerate(lines))


@pytest.mark.parametrize("final", [True, False], ids=["final-break", "no-final-break"])
@pytest.mark.parametrize("breaks", LINE_BREAKS)
@pytest.mark.parametrize("reader", READERS)
def test_readers_split_at_every_line_break(reader, breaks, final, tmp_path):
    read, lines = READERS[reader]
    raw = [lines[0].encode(), b"", lines[1].encode(), b" \t", lines[2].encode()]
    data = _joined(raw, LINE_BREAKS[breaks])
    path, reference = tmp_path / "in.jsonl", tmp_path / "lf.jsonl"
    path.write_bytes(data if final else data.rstrip(b"\r\n"))
    reference.write_bytes(_joined(raw, ["\n"]))
    got = read(path)
    assert len(got) == 3 and got == read(reference)


@pytest.mark.parametrize("breaks", LINE_BREAKS)
@pytest.mark.parametrize("reader", READERS)
def test_readers_report_a_bad_utf8_byte_at_its_own_line(reader, breaks, tmp_path):
    read, lines = READERS[reader]
    bad = lines[2].encode().replace(b'"', b'"\xff', 1)
    path = tmp_path / "in.jsonl"
    path.write_bytes(_joined([lines[0].encode(), b"", lines[1].encode(), bad, bad],
                             LINE_BREAKS[breaks]))
    with pytest.raises(UnicodeDecodeError) as want:
        bad.decode("utf-8")
    with pytest.raises(MalformedObject) as info:
        read(path)
    assert str(info.value) == f"{path}:4: {want.value}"


@pytest.mark.parametrize(
    "texts", [pytest.param(texts, id=case) for case, texts, _, _ in UNKNOWN_SCENE_CONCEPTS]
)
def test_attach_unknown_accepts_unknown_scene_concepts(texts, tmp_path):
    rc = cli.main(["eval-scene", *_write_inputs(tmp_path, texts), "--taxonomy", "street", "--attach-unknown",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0


def test_attach_unknown_rejects_an_unknown_concept_holding_an_arrow(tmp_path, capsys):
    # "R:x→y→z" would not say which arrow splits source from target
    detections = GOOD_DETECTIONS + '\n{"image_id": "b", "detections": [{"concept": "x→y", ' \
        '"confidence": 0.9}]}'
    paths = _write_inputs(tmp_path, [detections, GOOD_TARGETS])
    out = tmp_path / "out"
    rc = cli.main(["eval-scene", *paths, "--taxonomy", "street", "--attach-unknown",
                   "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: {paths[0]}:2: concept name 'x→y' holds '→', which replace tokens put"
            " between source and target\n"
    )
    assert not out.exists()


# -- gen-synthetic + round trip -----------------------------------------------------


def test_gen_synthetic_manifest_recovered_by_eval(tmp_path, capsys):
    out = tmp_path / "synth"
    rc = cli.main(
        ["gen-synthetic", "--n-stories", "10", "--length", "4",
         "--seed", "7", "--out-dir", str(out)]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 7 and manifest["n_stories"] == 10

    eval_out = tmp_path / "eval"
    rc = cli.main(
        ["eval-story", str(out / "generated.jsonl"), str(out / "ground_truth.jsonl"),
         "--out-dir", str(eval_out)]
    )
    assert rc == 0
    rows = (eval_out / "story_metrics.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
    by_id = {r.split(",")[0]: r.split(",") for r in rows}
    for entry in manifest["stories"]:
        row = by_id[entry["id"]]
        assert float(row[3]) == entry["expected_sl_delta"]
        assert float(row[5]) == entry["expected_cl_trace"][-1]
        assert row[6] == f"{entry['expected_avg_cl']:.4f}"
        flags = [int(x) for x in row[7].split(";")] if row[7] else []
        assert flags == entry["expected_cl_flags"]
    assert len(by_id) == 10


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--n-stories", "-5", "--n-stories must be at least 1, got -5"),
        ("--n-stories", "0", "--n-stories must be at least 1, got 0"),
        ("--length", "0", "--length must be at least 1, got 0"),
        ("--max-ops", "0", "max_ops must be at least 1, got 0"),
    ],
)
def test_gen_synthetic_rejects_counts_below_one(flag, value, message, tmp_path, capsys):
    out = tmp_path / "synth"
    rc = cli.main(["gen-synthetic", flag, value, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_synthetic_rejects_path_profile(tmp_path, capsys):
    rc = cli.main(
        ["gen-synthetic", "--cost-profile", "path", "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "flattened" in capsys.readouterr().err
    for name in ("manifest.json", "generated.jsonl", "ground_truth.jsonl"):
        assert not (tmp_path / name).exists()


# -- selftest --------------------------------------------------------------------


def test_selftest_default_all_pass(capsys):
    rc = cli.main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 3
    assert "3 passed, 0 failed, 0 skipped" in out


def test_directories_named_like_bundled_taxonomies_are_passed_over(tmp_path, monkeypatch,
                                                                    capsys):
    for name in ("clevr", "street"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path)
    assert cli.main(["selftest"]) == 0
    assert capsys.readouterr().out.endswith("3 passed, 0 failed, 0 skipped\n")
    _write_detections("det.jsonl", STREET_DETECTIONS)
    _write_detections("tgt.jsonl", STREET_TARGETS)
    assert cli.main(["eval-scene", "det.jsonl", "tgt.jsonl", "--taxonomy", "street",
                     "--out-dir", "out"]) == 0


def test_selftest_nondefault_weights_skip_golden(capsys):
    rc = cli.main(["selftest", "--delete-weight", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[SKIP] golden-story" in out
    assert "[PASS] oracle-equivalence" in out
    assert "[PASS] harness-recovery" in out


def test_selftest_path_profile_skips_recovery(capsys):
    rc = cli.main(["selftest", "--cost-profile", "path"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[SKIP] harness-recovery" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["unit_edge_cost", "delete_weight", "insert_weight"])
def test_selftest_non_finite_weight_names_the_field(field, value, capsys):
    rc = cli.main(["selftest", f"--{field.replace('_', '-')}={value}"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {field} must be finite, got {value}\n"


def test_selftest_overflowing_weight_reports_no_finite_script(capsys):
    # every price is inf, so no script has a finite cost
    rc = cli.main(["selftest", "--delete-weight", "1e308"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: no finite-cost edit script exists: the prices overflow\n"
    )


@pytest.mark.parametrize(
    "command", ["eval-story", "eval-scene", "eval-story-one-sided", "eval-scene-later-threshold"]
)
def test_eval_overflowing_weight_reports_no_finite_script(command, golden_corpus, tmp_path, capsys):
    if command == "eval-story":
        argv = ["eval-story", *map(str, golden_corpus), "--delete-weight", "1e308"]
    elif command == "eval-story-one-sided":
        # one frame with one extra generated object, whose delete is 4 x 1e308 = inf:
        # the closed form for whole added objects declines, and the solve reports it
        kept = ClevrObject("small", "brown", "rubber", "sphere")
        extra = ClevrObject("large", "red", "metallic", "cube")
        paths = [tmp_path / "gen.jsonl", tmp_path / "gt.jsonl"]
        write_stories(paths[0], [Story(id="s", frames=[[kept, extra]])])
        write_stories(paths[1], [Story(id="s", frames=[[kept]])])
        argv = ["eval-story", *map(str, paths), "--delete-weight", "1e308"]
    elif command == "eval-scene-later-threshold":
        # 0.5 keeps the car and solves; at 0.95 the car's insert overflows, and the
        # files of the threshold that solved must not be left behind
        _write_detections(tmp_path / "det.jsonl", [{"image_id": "a", "detections": [
            {"concept": "car", "confidence": 0.9}]}])
        _write_detections(tmp_path / "tgt.jsonl", [{"image_id": "a", "concepts": ["car"]}])
        argv = ["eval-scene", str(tmp_path / "det.jsonl"), str(tmp_path / "tgt.jsonl"),
                "--taxonomy", "street", "--insert-weight", "1e308",
                "--threshold", "0.5", "--threshold", "0.95"]
    else:  # a truck sits at depth 2 of street, so its insert at weight 1e308 overflows
        _write_detections(tmp_path / "det.jsonl", [{"image_id": "a", "detections": [
            {"concept": "car", "confidence": 0.9}]}])
        _write_detections(tmp_path / "tgt.jsonl", [{"image_id": "a", "concepts": ["truck"]}])
        argv = ["eval-scene", str(tmp_path / "det.jsonl"), str(tmp_path / "tgt.jsonl"),
                "--taxonomy", "street", "--insert-weight", "1e308"]
    out = tmp_path / "out"
    rc = cli.main([*argv, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: no finite-cost edit script exists: the prices overflow\n"
    )
    assert not out.exists()


def test_eval_story_of_a_corpus_against_itself_writes_no_edits(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli.main(["gen-synthetic", "--seed", "2", "--n-stories", "12", "--length", "5",
                     "--out-dir", str(corpus)]) == 0
    gt = str(corpus / "ground_truth.jsonl")
    out = tmp_path / "out"
    assert cli.main(["eval-story", gt, gt, "--out-dir", str(out)]) == 0
    rows = (out / "story_metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 12
    assert all(row.split(",")[2] == "0;0;0;0;0" for row in rows)
    records = [json.loads(line) for line in
               (out / "transactions.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(records) == 12 and all(r["edits"] == [] for r in records)


def test_identical_one_frame_story_scores_zero_at_an_overflowing_weight(tmp_path, capsys):
    # under the path profile each concept's delete costs depth 2 x 1e308, which
    # overflows to inf, but a frame that already matches needs no delete
    frame = [ClevrObject("small", "brown", "rubber", "sphere"),
             ClevrObject("large", "red", "metallic", "cube")]
    paths = [tmp_path / "gen.jsonl", tmp_path / "gt.jsonl"]
    write_stories(paths[0], [Story(id="s", frames=[frame])])
    write_stories(paths[1], [Story(id="s", frames=[frame[::-1]])])
    out = tmp_path / "out"
    rc = cli.main(["eval-story", *map(str, paths), "--cost-profile", "path",
                   "--delete-weight", "1e308", "--out-dir", str(out)])
    assert rc == 0
    # SL is 0; CL's frame-1 count penalty (2 objects, not 1) prices no edit
    assert (out / "story_metrics.csv").read_text(encoding="utf-8").splitlines()[1] == (
        "s,1,0,0,0.0000,4,4.0000,1"
    )


@pytest.mark.parametrize(
    "command,inputs",
    [("eval-story", 2), ("eval-scene", 2), ("gen-synthetic", 0), ("selftest", 0)],
)
@pytest.mark.parametrize(
    "option,message",
    [
        (["--delete-weight", "-1"], "delete_weight must be positive, got -1.0"),
        (["--insert-weight", "nan"], "insert_weight must be finite, got nan"),
        (["--delete-weight", "inf"], "delete_weight must be finite, got inf"),
        (["--unit-edge-cost", "0"], "unit_edge_cost must be positive, got 0.0"),
    ],
)
def test_every_subcommand_checks_the_cost_options(command, inputs, option, message, tmp_path,
                                                  capsys):
    # the options are checked before any input is read, so the inputs need not exist
    out = tmp_path / "out"
    paths = [str(tmp_path / f"input{k}.jsonl") for k in range(inputs)]
    out_dir = [] if command == "selftest" else ["--out-dir", str(out)]
    rc = cli.main([command, *paths, *option, *out_dir])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_synthetic_corrupt_taxonomy_errors(tmp_path, capsys):
    bad = tmp_path / "bad.tax"
    bad.write_text("a -> b\nb -> a\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["gen-synthetic", "--taxonomy", str(bad), "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 1: expected 'child<TAB>parent', got 'a -> b'\n"
    )
    assert not out.exists()


CLEVR_TEXT = resolve_taxonomy("clevr").to_text()


@pytest.mark.parametrize(
    "tax_text,message",
    [
        (None, "concept 'large' is not in the taxonomy"),
        (CLEVR_TEXT.replace("small\tsize", "small\tshape"),
         "attribute 'small' resolves to category 'shape', expected 'size'"),
    ],
    ids=["street", "misplaced-size"],
)
def test_gen_synthetic_rejects_a_taxonomy_without_its_vocabulary(tax_text, message, tmp_path,
                                                                  capsys):
    # every value the generator draws must sit under its slot's category, as
    # eval-story checks of each object it reads, before any story is drawn
    taxonomy = "street"
    if tax_text is not None:
        taxonomy = str(tmp_path / "moved.tax")
        Path(taxonomy).write_text(tax_text, encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["gen-synthetic", "--taxonomy", taxonomy, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_gen_synthetic_reads_its_taxonomy(tmp_path, capsys):
    # a taxonomy that holds the vocabulary where clevr does draws the same corpus
    wider = tmp_path / "wider.tax"
    wider.write_text(CLEVR_TEXT + "texture\tentity\nsmooth\ttexture\n", encoding="utf-8")
    corpora = []
    for taxonomy in ("clevr", str(wider)):
        out = tmp_path / Path(taxonomy).stem
        assert cli.main(["gen-synthetic", "--taxonomy", taxonomy, "--seed", "3",
                         "--out-dir", str(out)]) == 0
        corpora.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert corpora[0] == corpora[1]


@pytest.mark.parametrize(
    "content,detail",
    [
        pytest.param(b"a\tb\nb\ta\n", "cycle detected through concept 'a'", id="cycle"),
        pytest.param(b"!root\tr\na\tr\xff\n", "'utf-8' codec can't decode byte 0xff in "
                     "position 11: invalid start byte", id="non-utf8"),
        pytest.param("!root\tthing\nx\tthing\nX→Y\tx\nz\tx\n".encode(),
                     "line 3: concept name 'x→y' holds '→', which replace tokens put between"
                     " source and target", id="arrow-in-a-concept"),
    ],
)
@pytest.mark.parametrize("command", [["gen-synthetic"], ["eval-scene", "det.jsonl", "tgt.jsonl"]])
def test_bad_taxonomy_file_names_the_file(command, content, detail, tmp_path, capsys):
    # eval-scene loads the taxonomy before it reads its inputs, which need not exist
    bad = tmp_path / "bad.tax"
    bad.write_bytes(content)
    out = tmp_path / "out"
    rc = cli.main([*command, "--taxonomy", str(bad), "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {detail}\n")
    assert not out.exists()


def test_selftest_golden_mismatch_fails(monkeypatch, capsys):
    gen, gt = golden_story_pair()
    monkeypatch.setattr(cli, "golden_story_pair", lambda: (gt, gt))
    rc = cli.main(["selftest"])
    assert rc == 1
    assert capsys.readouterr().out == (
        "[PASS] oracle-equivalence: 120 random instances, assignment == brute force\n"
        "[FAIL] golden-story: golden story mismatch: per-frame CSED\n"
        "[PASS] harness-recovery: 100 corrupted stories recovered exactly\n"
        "2 passed, 1 failed, 0 skipped\n"
    )


def test_selftest_oracle_mismatch_fails(monkeypatch, capsys):
    real = cli.brute_force_csed

    def costlier(*args):  # an oracle that finds one more insert than the solver
        extra = edits.EditOp("I", target="extra", cost=1.0)
        return edits.EditScript(ops=(*real(*args).ops, extra))

    monkeypatch.setattr(cli, "brute_force_csed", costlier)
    rc = cli.main(["selftest"])
    assert rc == 1
    first, *rest = capsys.readouterr().out.splitlines()
    found = re.fullmatch(r"\[FAIL\] oracle-equivalence: assignment (\S+) != brute force (\S+) "
                         r"on S=\[.*\] T=\[.*\]", first)
    assert found and float(found[2]) == float(found[1]) + 1
    assert rest == [
        "[PASS] golden-story: reference story pair reproduced exactly",
        "[PASS] harness-recovery: 100 corrupted stories recovered exactly",
        "2 passed, 1 failed, 0 skipped",
    ]


@pytest.mark.parametrize(
    "field,wrong",
    [
        ("sl_delta", lambda impact: impact.sl_delta + 1.0),
        ("cl_trace", lambda impact: impact.cl_trace[:-1] + (impact.cl_trace[-1] + 1.0,)),
        ("cl_flags", lambda impact: impact.cl_flags ^ {1}),
        ("avg_cl", lambda impact: impact.avg_cl + 1.0),
    ],
)
def test_selftest_recovery_mismatch_fails(field, wrong, monkeypatch, capsys):
    real, seen = cli.corrupt, []

    def off_by_one_field(story, spec, cost):
        corrupted, impact = real(story, spec, cost)
        seen.append((spec, impact))
        return corrupted, dataclasses.replace(impact, **{field: wrong(impact)})

    monkeypatch.setattr(cli, "corrupt", off_by_one_field)
    rc = cli.main(["selftest"])
    assert rc == 1
    assert len(seen) == 1  # the first mismatch ends the suite
    spec, impact = seen[0]
    claimed = dataclasses.replace(impact, **{field: wrong(impact)})
    assert capsys.readouterr().out.splitlines()[2:] == [
        f"[FAIL] harness-recovery: recovery mismatch for spec {spec}: measured SL "
        f"{impact.sl_delta} vs {claimed.sl_delta}, "
        f"CL trace {list(impact.cl_trace)} vs {list(claimed.cl_trace)}, "
        f"flags {sorted(impact.cl_flags)} vs {sorted(claimed.cl_flags)}, "
        f"Avg CL {impact.avg_cl} vs {claimed.avg_cl}",
        "2 passed, 1 failed, 0 skipped",
    ]


# -- formats ------------------------------------------------------------------------


def test_json_format_output(golden_corpus, tmp_path):
    gen_path, gt_path = golden_corpus
    out = tmp_path / "out"
    rc = cli.main(
        ["eval-story", str(gen_path), str(gt_path), "--format", "json",
         "--out-dir", str(out)]
    )
    assert rc == 0
    rows = json.loads((out / "story_metrics.json").read_text(encoding="utf-8"))
    assert rows[0]["story_id"] == "golden"
    assert rows[0]["sl"] == "10"


# -- run options: defaults, args files, README ------------------------------------

POSITIONALS = {"eval-story": 2, "eval-scene": 2, "explain": 1, "gen-synthetic": 0, "selftest": 0}
_COST = {"cost_profile": "flattened", "replace_mode": None, "unit_edge_cost": None,
         "delete_weight": None, "insert_weight": None}
# every value each subcommand parses, its inputs given as "in.jsonl": 40 options in all
PARSED_DEFAULTS = {
    "eval-story": {"taxonomy": "clevr", **_COST, "format": "csv", "out_dir": ".",
                   "generated": "in.jsonl", "ground_truth": "in.jsonl"},
    "eval-scene": {"taxonomy": "clevr", **_COST, "cost_profile": "path", "format": "csv",
                   "out_dir": ".", "attach_unknown": False, "detections": "in.jsonl",
                   "targets": "in.jsonl", "thresholds": None, "show_scripts": 0},
    "explain": {"format": "csv", "out_dir": ".", "transactions": "in.jsonl",
                "min_support": 0.01, "top_k": 10},
    "gen-synthetic": {"taxonomy": "clevr", **_COST, "seed": 0, "out_dir": ".",
                      "n_stories": 20, "length": 4, "max_ops": 2},
    "selftest": {**_COST, "seed": 0},
}


@pytest.mark.parametrize("command", list(POSITIONALS))
def test_parsed_defaults_of_each_subcommand(command):
    args = vars(cli.build_parser().parse_args([command, *["in.jsonl"] * POSITIONALS[command]]))
    assert args.pop("command") == command
    assert "func" not in args  # main looks cmd_<command> up by name
    assert callable(getattr(cli, "cmd_" + command.replace("-", "_")))
    assert args == PARSED_DEFAULTS[command]


def test_main_runs_the_command_bound_to_its_name_when_it_runs(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_selftest", lambda args: seen.append(args.command) or 7)
    assert cli.main(["selftest"]) == 7
    assert seen == ["selftest"]


UNREAD_OPTIONS = [  # options another subcommand takes, which these commands would not read
    ("eval-story", ["--seed", "5"]),
    ("eval-story", ["--attach-unknown"]),
    ("eval-scene", ["--seed", "5"]),
    ("explain", ["--taxonomy", "street"]),
    ("explain", ["--cost-profile", "path"]),
    ("explain", ["--replace-mode", "shortest-path"]),
    ("explain", ["--unit-edge-cost", "2"]),
    ("explain", ["--delete-weight", "5"]),
    ("explain", ["--insert-weight", "5"]),
    ("explain", ["--seed", "5"]),
    ("explain", ["--attach-unknown"]),
    ("gen-synthetic", ["--format", "markdown"]),
    ("gen-synthetic", ["--attach-unknown"]),
    ("selftest", ["--taxonomy", "street"]),
    ("selftest", ["--attach-unknown"]),
    ("selftest", ["--format", "markdown"]),
    ("selftest", ["--out-dir", "out"]),
]


def _assert_rejected(command, option, golden_corpus, tmp_path, monkeypatch, capsys):
    """``cee <command> <valid inputs> <option>`` exits 2 naming the subcommand and
    ``option`` as unrecognized, and prints and writes nothing."""
    # the inputs are valid, so only the option stops the run, before it writes anything
    monkeypatch.chdir(tmp_path)
    inputs = {"eval-story": list(map(str, golden_corpus)),
              "eval-scene": ["det.jsonl", "tgt.jsonl"], "explain": ["tx.jsonl"]}.get(command, [])
    _write_detections("det.jsonl", STREET_DETECTIONS)
    _write_detections("tgt.jsonl", STREET_TARGETS)
    Path("tx.jsonl").write_text('{"id": "a", "edits": ["I:car"]}\n', encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *inputs, *option])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: cee {command} ")
    assert err.endswith(f"cee {command}: error: unrecognized arguments: {' '.join(option)}\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command,option", UNREAD_OPTIONS,
                         ids=[f"{command} {option[0]}" for command, option in UNREAD_OPTIONS])
def test_options_a_subcommand_does_not_read_are_rejected(command, option, golden_corpus,
                                                         tmp_path, monkeypatch, capsys):
    _assert_rejected(command, option, golden_corpus, tmp_path, monkeypatch, capsys)


ABBREVIATED_OPTIONS = [  # (command, an abbreviated flag, the flag in full): every flag
    ("selftest", ["--se", "3"], ["--seed", "3"]),
    ("selftest", ["--del", "0.7"], ["--delete-weight", "0.7"]),
    ("selftest", ["--ins", "0.3"], ["--insert-weight", "0.3"]),
    ("explain", ["--t", "5"], ["--top-k", "5"]),
    ("explain", ["--top=5"], ["--top-k=5"]),
    ("explain", ["--min", "0.5"], ["--min-support", "0.5"]),
    ("eval-story", ["--tax", "clevr"], ["--taxonomy", "clevr"]),
    ("eval-story", ["--cost", "path"], ["--cost-profile", "path"]),
    ("eval-story", ["--form", "json"], ["--format", "json"]),
    ("eval-scene", ["--thr", "0.5"], ["--threshold", "0.5"]),
    ("eval-scene", ["--show", "2"], ["--show-scripts", "2"]),
    ("eval-scene", ["--attach"], ["--attach-unknown"]),
    ("eval-scene", ["--unit", "2"], ["--unit-edge-cost", "2"]),
    ("eval-scene", ["--replace", "shortest-path"], ["--replace-mode", "shortest-path"]),
    ("gen-synthetic", ["--n", "3"], ["--n-stories", "3"]),
    ("gen-synthetic", ["--len", "2"], ["--length", "2"]),
    ("gen-synthetic", ["--max", "1"], ["--max-ops", "1"]),
    ("gen-synthetic", ["--out", "o"], ["--out-dir", "o"]),
]


@pytest.mark.parametrize("command,option,full", ABBREVIATED_OPTIONS,
                         ids=[f"{command} {option[0]}" for command, option, _
                              in ABBREVIATED_OPTIONS])
def test_abbreviated_options_are_rejected(command, option, full, golden_corpus,
                                          tmp_path, monkeypatch, capsys):
    positionals = ["in.jsonl"] * POSITIONALS[command]
    assert cli.build_parser().parse_args([command, *positionals, *full]).command == command
    _assert_rejected(command, option, golden_corpus, tmp_path, monkeypatch, capsys)


def _args_file(path, *args):
    path.write_text("".join(f"{a}\n" for a in args), encoding="utf-8")
    return f"@{path}"


def test_args_file_sets_format_and_out_dir(golden_corpus, tmp_path):
    gen_path, gt_path = golden_corpus
    out = tmp_path / "from_file"
    args_file = _args_file(tmp_path / "run.args", "--format", "markdown", "--out-dir", out)
    assert cli.main(["eval-story", args_file, str(gen_path), str(gt_path)]) == 0
    text = (out / "story_metrics.md").read_text(encoding="utf-8")
    assert text.startswith("| story_id |")


def test_later_flag_overrides_the_args_file(golden_corpus, tmp_path):
    gen_path, gt_path = golden_corpus
    args_file = _args_file(tmp_path / "run.args", "--out-dir", tmp_path / "from_file")
    out = tmp_path / "override"
    assert cli.main(["eval-story", args_file, str(gen_path), str(gt_path),
                     "--out-dir", str(out)]) == 0
    assert not (tmp_path / "from_file").exists()
    assert (out / "story_metrics.csv").exists()


def test_bad_value_in_the_args_file_names_the_option(tmp_path, capsys):
    args_file = _args_file(tmp_path / "run.args", "--delete-weight", "true")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-synthetic", args_file, "--out-dir", str(out)])
    assert exc.value.code == 2
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.endswith(
        "cee gen-synthetic: error: argument --delete-weight: invalid float value: 'true'\n"
    )
    assert not out.exists()


def test_thresholds_from_the_args_file_and_the_command_line_accumulate(tmp_path):
    args_file = _args_file(tmp_path / "run.args", "--threshold", "0.3")
    args = cli.build_parser().parse_args(
        ["eval-scene", args_file, "det.jsonl", "tgt.jsonl", "--threshold", "0.7"]
    )
    assert args.thresholds == [0.3, 0.7]


def test_blank_lines_in_the_args_file_are_skipped(golden_corpus, tmp_path, capsys):
    # a line that is empty or only whitespace is no argument; the others stay as written
    args_file = _args_file(tmp_path / "blank.args", "--delete-weight", "1", "", " \t")
    assert cli.main(["selftest", args_file]) == 0
    gen_path, gt_path = golden_corpus
    args = cli.build_parser().parse_args(["eval-story", args_file, str(gen_path), str(gt_path)])
    assert (args.delete_weight, args.generated, args.ground_truth) == (
        1.0, str(gen_path), str(gt_path))
    out = tmp_path / "story"
    assert cli.main(["eval-story", args_file, str(gen_path), str(gt_path),
                     "--out-dir", str(out)]) == 0
    assert (out / "story_metrics.csv").read_text(encoding="utf-8").count("\n") == 2


def test_readme_command_lines_parse():
    # every `cee` line of README's sh blocks, continuations joined, is a valid command
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```sh\n")[1:]
    lines = [
        line
        for block in blocks
        for line in block.split("```")[0].replace("\\\n", " ").splitlines()
        if line.startswith("cee ")
    ]
    parser = cli.build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == set(POSITIONALS)


# -- determinism -----------------------------------------------------------------


def test_outputs_are_byte_identical_across_runs(golden_corpus, tmp_path):
    gen_path, gt_path = golden_corpus
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(
            ["eval-story", str(gen_path), str(gt_path), "--out-dir", str(out)]
        ) == 0
        blobs.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        )
    assert blobs[0] == blobs[1]


# -- the closed form and the assignment solve write the same files ----------------

_PROFILES = ([], ["--delete-weight", "0.5", "--insert-weight", "2"],
             ["--replace-mode", "shortest-path"])


def _street_corpus(folder, n_images, seed):
    """Paths of a random street detections and targets file pair of ``n_images`` images."""
    detections, targets = random_scene_corpus(random.Random(seed), resolve_taxonomy("street"),
                                              n_images=n_images)
    _write_detections(folder / "det.jsonl", [
        {"image_id": i, "detections": [
            {"concept": d.concept, "confidence": d.confidence} for d in detections[i]]}
        for i in sorted(detections)
    ])
    _write_detections(folder / "tgt.jsonl", [
        {"image_id": i, "concepts": list(targets[i])} for i in sorted(targets)
    ])
    return str(folder / "det.jsonl"), str(folder / "tgt.jsonl")


def _outputs(argv, out, closed_form):
    """Every file one in-process run writes, with the closed forms on or
    forced to decline, those of object scripts (``edits._direct``) and of
    story frames (``edits._residue_scripts``), and how many scripts it wrote
    without the solve."""
    written = []

    def shortcut(real):
        def decide(*args):
            chosen = real(*args) if closed_form else None
            written.append(chosen is not None)
            return chosen
        return decide

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edits, "_direct", shortcut(edits._direct))
        mp.setattr(edits, "_residue_scripts", shortcut(edits._residue_scripts))
        assert cli.main([*argv, "--out-dir", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}, sum(written)


def _assert_same_outputs(argv, tmp_path, tag):
    closed, n_closed = _outputs(argv, tmp_path / f"{tag}-closed", closed_form=True)
    solved, n_solved = _outputs(argv, tmp_path / f"{tag}-solved", closed_form=False)
    assert n_solved == 0
    assert closed == solved
    return closed, n_closed


@pytest.mark.parametrize("profile", _PROFILES, ids=["default", "weights", "shortest-path"])
def test_closed_form_writes_the_solvers_story_outputs(profile, tmp_path, capsys):
    synth = tmp_path / "synth"
    assert cli.main(["gen-synthetic", "--n-stories", "12", "--length", "4",
                     "--seed", "11", "--out-dir", str(synth)]) == 0
    argv = ["eval-story", str(synth / "generated.jsonl"), str(synth / "ground_truth.jsonl"),
            *profile]
    _, n_closed = _assert_same_outputs(argv, tmp_path, "story")
    assert n_closed > 0


@pytest.mark.parametrize("profile", _PROFILES, ids=["default", "weights", "shortest-path"])
def test_closed_form_writes_the_solvers_scene_outputs(profile, tmp_path, capsys):
    argv = ["eval-scene", *_street_corpus(tmp_path, 40, seed=5), "--taxonomy", "street", *profile]
    _, n_closed = _assert_same_outputs(argv, tmp_path, "scene")
    assert n_closed > 0


def test_large_weight_scripts_are_the_solvers(golden_corpus, tmp_path, capsys):
    # Past the float range of the tie bias the solver picks these scripts
    # (see edits._TIE_EPS; exact costs would change them). Their prices reach
    # 2**20, so the closed form declines and the scripts stay the solver's.
    gen_path, gt_path = golden_corpus
    argv = ["eval-story", str(gen_path), str(gt_path),
            "--delete-weight", "1e8", "--insert-weight", "1e8"]
    outputs, n_closed = _assert_same_outputs(argv, tmp_path, "story")
    assert n_closed == 0
    record = json.loads(outputs["transactions.jsonl"])
    assert record["edits"] == ["D:rubber", "D:sphere", "I:cylinder", "I:metallic"]

    _write_detections(tmp_path / "det.jsonl", [{"image_id": "a", "detections": [
        {"concept": "car", "confidence": 0.9}, {"concept": "truck", "confidence": 0.8}]}])
    _write_detections(tmp_path / "tgt.jsonl", [{"image_id": "a", "concepts": ["person"]}])
    argv = ["eval-scene", str(tmp_path / "det.jsonl"), str(tmp_path / "tgt.jsonl"),
            "--taxonomy", "street", "--cost-profile", "path", "--threshold", "0.5",
            "--delete-weight", "1e307"]
    outputs, n_closed = _assert_same_outputs(argv, tmp_path, "scene")
    assert n_closed == 0
    record = json.loads(outputs["transactions_td0.5.jsonl"])
    assert record["edits"] == ["D:truck", "R:car→person"]


@pytest.mark.parametrize("argv", [
    None,
    ["gen-synthetic", "--n-stories", "20", "--length", "9", "--max-ops", "4"],
    ["selftest"],
], ids=["import", "gen-synthetic", "selftest"])
def test_importing_the_cli_loads_neither_numpy_nor_scipy(argv, tmp_path):
    # evaluation runs on the owned assignment solver and the harness prices
    # frames by its own exhaustive pairing, so no command loads either
    src = str(Path(cli.__file__).resolve().parents[1])
    run = "" if argv is None else f"assert cee.cli.main({argv!r}) == 0; "
    code = f"import sys, cee.cli; {run}print(sorted({{'numpy', 'scipy'}} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# -- the paused cycle collector ------------------------------------------------------


def _inputs_of(command, n, folder):
    """The arguments of ``command`` on ``n`` items, written under ``folder``."""
    folder.mkdir()
    if command == "eval-scene":
        return [*_street_corpus(folder, n, seed=n), "--taxonomy", "street"]
    assert cli.main(["gen-synthetic", "--n-stories", str(n), "--seed", str(n),
                     "--out-dir", str(folder)]) == 0
    stories = [str(folder / "generated.jsonl"), str(folder / "ground_truth.jsonl")]
    if command == "eval-story":
        return stories
    assert cli.main(["eval-story", *stories, "--out-dir", str(folder)]) == 0
    return [str(folder / "transactions.jsonl")]


@pytest.mark.parametrize("command", ["eval-story", "eval-scene", "explain"])
def test_a_run_leaves_no_cyclic_garbage_per_item(command, tmp_path, monkeypatch, capsys):
    # a run's taxonomy is held, so its cost-model cycle is no garbage; what
    # is left is the argument parser's own cycles, the same on 2 items as on 20
    held = []

    def holding(*args, _real=cli.resolve_taxonomy, **kwargs):
        held.append(_real(*args, **kwargs))
        return held[-1]

    monkeypatch.setattr(cli, "resolve_taxonomy", holding)
    runs = [_inputs_of(command, n, tmp_path / f"in{k}") for k, n in enumerate((2, 2, 20))]
    found = []
    for k, inputs in enumerate(runs):
        gc.collect()
        assert cli.main([command, *inputs, "--out-dir", str(tmp_path / f"out{k}")]) == 0
        found.append(gc.collect())
    assert found[1] == found[2] > 0  # the first run is a warm-up


@pytest.fixture(params=[True, False], ids=["collecting", "paused-by-caller"])
def collector(request):
    """The collector switched on or off for the test, and the test's setting restored after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv,rc", [(["selftest"], 0), (["explain", "missing.jsonl"], 2)],
                         ids=["exit-0", "exit-2"])
def test_main_restores_the_callers_collector_setting(argv, rc, collector, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    seen = []
    real = cli.build_parser

    def parser():
        seen.append(gc.isenabled())
        return real()

    monkeypatch.setattr(cli, "build_parser", parser)
    assert cli.main(argv) == rc
    assert gc.isenabled() is collector
    assert seen == [False]


def test_main_restores_the_collector_after_a_usage_error(collector, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["explain"])  # no transactions file: argparse exits 2
    assert info.value.code == 2
    assert gc.isenabled() is collector
