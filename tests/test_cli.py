import json
from pathlib import Path

import pytest

from cee import cli
from cee.harness import golden_story_pair
from cee.story import write_stories


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
    assert capsys.readouterr().err == f"error: {doubled}: duplicate story id 'golden'\n"
    assert not (tmp_path / "o").exists()


def test_eval_story_missing_file_reports_error(tmp_path, capsys):
    rc = cli.main(["eval-story", str(tmp_path / "nope.jsonl"), str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# -- eval-scene -------------------------------------------------------------------


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
    assert capsys.readouterr().err == f"error: {tgt_path}: duplicate image id 'a'\n"


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
    assert capsys.readouterr().err == f"error: {det_path}: duplicate image id 'fig'\n"


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


def test_explain_empty_transactions(tmp_path, capsys):
    tx_path = tmp_path / "tx.jsonl"
    tx_path.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["explain", str(tx_path), "--out-dir", str(out)])
    assert rc == 0
    assert (out / "rules.csv").read_text(encoding="utf-8").splitlines() == [
        "source,target,frequency,support_pct,antecedent_support_pct,consequent_support_pct"
    ]


# -- gen-synthetic + round trip -----------------------------------------------------


def test_gen_synthetic_manifest_recovered_by_eval(tmp_path, capsys):
    out = tmp_path / "synth"
    rc = cli.main(
        ["gen-synthetic", "--n-stories", "4", "--length", "4",
         "--seed", "7", "--out-dir", str(out)]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 7 and manifest["n_stories"] == 4

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
        flags = [int(x) for x in row[7].split(";")] if row[7] else []
        assert flags == entry["expected_cl_flags"]


def test_gen_synthetic_rejects_path_profile(tmp_path, capsys):
    rc = cli.main(
        ["gen-synthetic", "--cost-profile", "path", "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "flattened" in capsys.readouterr().err


# -- selftest --------------------------------------------------------------------


def test_selftest_default_all_pass(capsys):
    rc = cli.main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 3
    assert "3 passed, 0 failed, 0 skipped" in out


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


def test_selftest_corrupt_taxonomy_errors(tmp_path, capsys):
    bad = tmp_path / "bad.tax"
    bad.write_text("a -> b\nb -> a\n", encoding="utf-8")
    rc = cli.main(["selftest", "--taxonomy", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# -- config file and formats --------------------------------------------------------


def test_config_file_with_flag_override(golden_corpus, tmp_path):
    gen_path, gt_path = golden_corpus
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps({"format": "markdown", "out_dir": str(tmp_path / "from_cfg")}),
        encoding="utf-8",
    )
    out = tmp_path / "override"
    rc = cli.main(
        ["eval-story", str(gen_path), str(gt_path),
         "--config", str(cfg_path), "--out-dir", str(out)]
    )
    assert rc == 0
    assert not (tmp_path / "from_cfg").exists()  # flag overrides config file
    text = (out / "story_metrics.md").read_text(encoding="utf-8")
    assert text.startswith("| story_id |")


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


def test_unknown_config_key_rejected(golden_corpus, tmp_path, capsys):
    gen_path, gt_path = golden_corpus
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"fromat": "csv"}), encoding="utf-8")
    rc = cli.main(["eval-story", str(gen_path), str(gt_path), "--config", str(cfg_path)])
    assert rc == 2
    assert "fromat" in capsys.readouterr().err


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
