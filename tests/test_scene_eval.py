import dataclasses
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cee import (
    ConceptMultiset,
    EmptyCorpus,
    FLATTENED_CONFIG,
    MalformedObject,
    UnknownConcept,
    build_samples,
    read_detections,
    read_targets,
)
from cee.edits import csed, format_cost, operation_census
from cee.harness import random_scene_corpus
from cee.scene import (
    CENSUS_COLUMNS,
    CENSUS_HEADER,
    DetectionRecord,
    SceneSample,
    census_csv,
    census_rows,
    corpus_report,
    scene_csed,
    solve_thresholds,
)
from cee import cli, edits, scene, taxonomy
from cee.taxonomy import COST_PROFILES, PATH_CONFIG, resolve_taxonomy


def det(concept, confidence):
    return DetectionRecord(concept=concept, confidence=confidence)


def generated(detections, t_d):
    """``build_samples``' generated multiset per image at ``t_d``, every image given a target."""
    targets = {image_id: ConceptMultiset(["car"]) for image_id in detections}
    return {s.image_id: s.generated for s in build_samples(detections, targets, t_d)}


# -- records ------------------------------------------------------------------


def test_detection_confidence_range_enforced():
    with pytest.raises(ValueError):
        det("car", 1.2)
    with pytest.raises(ValueError):
        det("car", -0.1)


def test_sample_is_frozen():
    sample = SceneSample(image_id="i", generated=ConceptMultiset(), target=ConceptMultiset(["car"]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample.generated = ConceptMultiset(["car"])


def test_sample_requires_nonempty_target():
    with pytest.raises(ValueError):
        SceneSample(image_id="i", generated=ConceptMultiset(), target=ConceptMultiset())


# -- threshold filtering ---------------------------------------------------------


def test_filter_drops_low_confidence():
    kept = generated({"i": [det("car", 0.65), det("dog", 0.55)]}, 0.6)
    assert kept == {"i": ConceptMultiset(["car"])}


def test_filter_boundary_inclusive():
    kept = generated({"i": [det("car", 0.60)]}, 0.6)
    assert kept["i"] == ConceptMultiset(["car"])


def test_filter_zero_keeps_everything():
    records = {"i": [det("car", 0.0), det("car", 0.9)], "j": [det("dog", 0.4)]}
    kept = generated(records, 0.0)
    assert kept["i"] == ConceptMultiset(["car", "car"])
    assert kept["j"] == ConceptMultiset(["dog"])


def test_filter_keeps_image_key_when_all_cut():
    kept = generated({"i": [det("car", 0.2)]}, 0.9)
    assert kept == {"i": ConceptMultiset()}


def test_filter_rejects_bad_threshold():
    with pytest.raises(ValueError):
        build_samples({}, {}, 1.5)


# -- per-sample script ------------------------------------------------------------


def test_street_scene_local_script(street):
    sample = SceneSample(
        image_id="fig",
        generated=ConceptMultiset(["car", "car", "traffic light", "car", "stop sign"]),
        target=ConceptMultiset(["light", "buildings"]),
    )
    script = scene_csed(sample, street)  # path profile by default
    kinds = [op.kind for op in script]
    assert kinds.count("D") == 3 and kinds.count("R") == 2 and kinds.count("I") == 0
    assert {op.source for op in script if op.kind == "D"} == {"car"}
    assert {(op.source, op.target) for op in script if op.kind == "R"} == {
        ("traffic light", "light"),
        ("stop sign", "buildings"),
    }


def test_identical_sets_empty_script(street):
    s = ConceptMultiset(["car", "light"])
    sample = SceneSample(image_id="i", generated=s, target=s)
    assert len(scene_csed(sample, street)) == 0


def test_empty_generated_set_all_inserts(street):
    sample = SceneSample(
        image_id="i",
        generated=ConceptMultiset(),
        target=ConceptMultiset(["light", "buildings"]),
    )
    script = scene_csed(sample, street)
    assert [op.kind for op in script] == ["I", "I"]


# -- corpus report ------------------------------------------------------------------


def _toy_corpus():
    detections = {
        "a": [det("car", 0.55), det("light", 0.9)],
        "b": [det("truck", 0.65), det("person", 0.45)],
        "c": [det("buildings", 0.75)],
    }
    targets = {
        "a": ConceptMultiset(["car", "light"]),
        "b": ConceptMultiset(["truck", "person"]),
        "c": ConceptMultiset(["buildings"]),
    }
    return detections, targets


def test_insert_count_monotone_on_toy_corpus(street):
    detections, targets = _toy_corpus()
    report = corpus_report(detections, targets, [0.5, 0.7], street, FLATTENED_CONFIG)
    (t_low, low), (t_high, high) = report
    assert (t_low, t_high) == (0.5, 0.7)
    assert high.n_insert >= low.n_insert


def test_perfect_corpus_all_zero(street):
    detections = {"a": [det("car", 0.9)]}
    targets = {"a": ConceptMultiset(["car"])}
    ((_, census),) = corpus_report(detections, targets, [0.5], street, FLATTENED_CONFIG)
    assert census.n_insert == census.n_delete == census.n_replace == 0
    assert census.mean_total == 0.0


def test_street_scene_census_row(street):
    detections = {
        "fig": [
            det("car", 0.9), det("car", 0.8), det("car", 0.7),
            det("traffic light", 0.95), det("stop sign", 0.85),
        ]
    }
    targets = {"fig": ConceptMultiset(["light", "buildings"])}
    ((_, census),) = corpus_report(detections, targets, [0.6], street, PATH_CONFIG)
    assert census.n_delete == 3 and census.n_replace == 2 and census.n_insert == 0
    assert census.mean_total == 14.0


def test_corpus_report_empty_rejected(street):
    with pytest.raises(EmptyCorpus):
        corpus_report({}, {}, [0.5], street, FLATTENED_CONFIG)


def test_census_additivity(street):
    rng = random.Random(5)
    detections, targets = random_scene_corpus(rng, street, n_images=8)
    samples = build_samples(detections, targets, 0.5)
    scripts = [scene_csed(s, street, FLATTENED_CONFIG) for s in samples]
    whole = operation_census(scripts)
    parts = [operation_census([s]) for s in scripts]
    assert whole.n_insert == sum(p.n_insert for p in parts)
    assert whole.n_delete == sum(p.n_delete for p in parts)
    assert whole.n_replace == sum(p.n_replace for p in parts)
    assert whole.cost_insert == sum(p.cost_insert for p in parts)


def test_build_samples_keeps_only_joined_ids(street):
    detections = {"a": [det("car", 0.9)], "only-det": []}
    targets = {"a": ConceptMultiset(["car"]), "only-tgt": ConceptMultiset(["light"])}
    samples = build_samples(detections, targets, 0.5)
    assert [s.image_id for s in samples] == ["a"]


# -- serialization ----------------------------------------------------------------


def test_census_csv_shape_and_determinism(street):
    detections, targets = _toy_corpus()
    report = corpus_report(detections, targets, [0.5, 0.7], street, FLATTENED_CONFIG)
    text = census_csv(report)
    assert text.splitlines()[0] == CENSUS_HEADER
    assert text == census_csv(
        corpus_report(detections, targets, [0.5, 0.7], street, FLATTENED_CONFIG)
    )


def test_read_detections_and_targets(tmp_path, street):
    det_path = tmp_path / "det.jsonl"
    det_path.write_text(
        '{"image_id": "x", "detections": [{"concept": "car", "confidence": 0.9}]}\n'
        '{"image_id": "y", "detections": []}\n',
        encoding="utf-8",
    )
    tgt_path = tmp_path / "tgt.jsonl"
    tgt_path.write_text('{"image_id": "x", "concepts": ["car", "light"]}\n', encoding="utf-8")
    detections = read_detections(det_path, street)
    assert set(detections) == {"x", "y"}
    assert detections["x"][0].concept == "car"
    targets = read_targets(tgt_path, street)
    assert targets["x"] == ConceptMultiset(["car", "light"])


def _count_normalize(monkeypatch, *modules):
    """Names passed to ``normalize_concept`` from here on, through ``modules``."""
    calls = []
    for module in modules:
        real = module.normalize_concept
        monkeypatch.setattr(
            module, "normalize_concept", lambda name, real=real: calls.append(name) or real(name)
        )
    return calls


def test_read_detections_normalises_each_concept_once(tmp_path, monkeypatch):
    det_path = tmp_path / "det.jsonl"
    det_path.write_text(
        '{"image_id": "7", "detections": [{"concept": " Car ", "confidence": 0.9},'
        ' {"concept": "TRUCK", "confidence": 1}]}\n',
        encoding="utf-8",
    )
    tax = resolve_taxonomy("street")  # its own: nothing resolved yet
    calls = _count_normalize(monkeypatch, taxonomy, scene)
    detections = read_detections(det_path, tax)
    assert calls == [" Car ", "TRUCK"]  # once each, by Taxonomy.resolve
    assert detections == {"7": [det("car", 0.9), det("truck", 1.0)]}


def _detection_line(image_id, *concepts):
    dets = [{"concept": c, "confidence": 0.9} for c in concepts]
    return json.dumps({"image_id": image_id, "detections": dets}) + "\n"


def _target_line(image_id, *concepts):
    return json.dumps({"image_id": image_id, "concepts": list(concepts)}) + "\n"


_READERS = [(read_detections, _detection_line), (read_targets, _target_line)]


@pytest.mark.parametrize("first,second", [_READERS, _READERS[::-1]],
                         ids=["detections-then-targets", "targets-then-detections"])
def test_scene_readers_resolve_each_distinct_concept_once(first, second, tmp_path, monkeypatch):
    tax = resolve_taxonomy("street")
    calls = _count_normalize(monkeypatch, taxonomy, scene)
    (reader, line), (other_reader, other_line) = first, second
    path = tmp_path / "first.jsonl"
    path.write_text(line("x", "car", " Car ", "car") + line("y", "car", "truck"), encoding="utf-8")
    reader(path, tax)
    assert calls == ["car", " Car ", "truck"]
    other = tmp_path / "second.jsonl"
    other.write_text(other_line("x", "truck", " Car ", "light") + other_line("y", "light", "car"),
                     encoding="utf-8")
    other_reader(other, tax)
    assert calls == ["car", " Car ", "truck", "light"]  # the file's only new string


def test_resolve_remembers_an_attached_unknown_but_never_a_rejected_name(monkeypatch):
    attached = resolve_taxonomy("street", attach_unknown=True)
    strict = resolve_taxonomy("street")
    calls = _count_normalize(monkeypatch, taxonomy)
    assert [attached.resolve(" Zebra ") for _ in range(3)] == ["zebra"] * 3
    assert calls == [" Zebra "]
    for _ in range(3):
        with pytest.raises(UnknownConcept):
            strict.resolve(" Zebra ")
    assert calls == [" Zebra "] * 4


@pytest.mark.parametrize("reader,line", _READERS)
@pytest.mark.parametrize(
    "bad,message",
    [
        pytest.param(["car"], "concept name must be a string, got list", id="a-list"),
        pytest.param("zebra", "concept 'zebra' is not in the taxonomy", id="unknown"),
    ],
)
def test_scene_readers_after_a_resolved_concept_keep_the_message(reader, line, bad, message,
                                                                 tmp_path, street):
    path = tmp_path / "in.jsonl"
    path.write_text(line("x", "car") + line("y", "car", bad), encoding="utf-8")
    with pytest.raises(MalformedObject) as info:
        reader(path, street)
    assert str(info.value) == f"{path}:2: {message}"


def test_read_detections_checks_confidence_range(tmp_path, street):
    det_path = tmp_path / "det.jsonl"
    det_path.write_text(
        '{"image_id": "x", "detections": [{"concept": "car", "confidence": 1.5}]}\n',
        encoding="utf-8",
    )
    with pytest.raises(MalformedObject) as excinfo:
        read_detections(det_path, street)
    assert str(excinfo.value) == f"{det_path}:1: confidence 1.5 outside [0, 1]"


def test_read_detections_rejects_missing_keys(tmp_path, street):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"detections": []}\n', encoding="utf-8")
    with pytest.raises(MalformedObject):
        read_detections(p, street)


# -- monotonicity property -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_threshold_monotonicity(seed, street):
    rng = random.Random(seed)
    detections, targets = random_scene_corpus(rng, street, n_images=6)
    thresholds = [0.5, 0.6, 0.7]
    sizes = []
    for t_d in thresholds:
        samples = build_samples(detections, targets, t_d)
        sizes.append({s.image_id: len(s.generated) for s in samples})
    for lo, hi in zip(sizes, sizes[1:]):
        assert all(hi[i] <= lo[i] for i in lo)
    report = corpus_report(detections, targets, thresholds, street, PATH_CONFIG)
    inserts = [census.n_insert for _, census in report]
    assert inserts == sorted(inserts)


# -- threshold sweep: each distinct (image, passing detections) once ----------------


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _eval_scene(tmp_path, detections, targets, thresholds, *options):
    """Runs ``cee eval-scene`` on rows of detections and targets; returns its
    exit code and the paths of its inputs and output directory."""
    det_path, tgt_path, out = tmp_path / "det.jsonl", tmp_path / "tgt.jsonl", tmp_path / "out"
    _write_rows(det_path, detections)
    _write_rows(tgt_path, targets)
    argv = ["eval-scene", str(det_path), str(tgt_path), "--taxonomy", "street",
            *options, *(f"--threshold={t}" for t in thresholds), "--out-dir", str(out)]
    return cli.main(argv), det_path, tgt_path, out


def _reference_sweep(det_path, tgt_path, thresholds, profile, fmt):
    """eval-scene's output files by name, built threshold by threshold: every
    sample is filtered and solved anew, on a taxonomy of its own."""
    tax = resolve_taxonomy("street")
    cost = COST_PROFILES[profile]
    detections, targets = read_detections(det_path, tax), read_targets(tgt_path, tax)
    distinct: list[float] = []
    for t in map(float, thresholds):
        if t not in distinct:  # 0.0 and -0.0 are one threshold, written as the first given
            distinct.append(t)
    files, report = {}, []
    for t_d in sorted(distinct):
        samples = build_samples(detections, targets, t_d)
        scripts = [csed(s.generated, s.target, tax, cost) for s in samples]
        report.append((t_d, operation_census(scripts)))
        files[f"transactions_td{format_cost(t_d)}.jsonl"] = "".join(
            json.dumps({"id": s.image_id, "edits": sorted(set(script.edit_tokens()))},
                       sort_keys=True, ensure_ascii=False) + "\n"
            for s, script in zip(samples, scripts)
        )
    files[f"census.{cli._EXT[fmt]}"] = cli.render_table(CENSUS_COLUMNS, census_rows(report), fmt)
    return files


def _detections(image_id, *pairs):
    return {"image_id": image_id,
            "detections": [{"concept": c, "confidence": conf} for c, conf in pairs]}


# confidences on a grid of tenths, so they often equal a threshold and each other
_EDGE_DETECTIONS = [
    _detections("at", ("car", 0.5), ("truck", 0.7), ("person", 0.3)),  # each equals a threshold
    _detections("tied", ("car", 0.6), ("truck", 0.6), ("light", 0.6)),
    _detections("none"),
    _detections("dups", ("car", 0.9), ("car", 0.9), ("car", 0.4), ("truck", 0.0)),
    _detections("zero", ("person", 0.0), ("person", -0.0)),
    _detections("all", ("light", 1.0), ("buildings", 0.95)),
    _detections("det-only", ("car", 0.9)),
]
_EDGE_TARGETS = [
    {"image_id": "at", "concepts": ["car", "vehicle"]},
    {"image_id": "tied", "concepts": ["truck"]},
    {"image_id": "none", "concepts": ["light", "light"]},
    {"image_id": "dups", "concepts": ["car", "car", "stop sign"]},
    {"image_id": "zero", "concepts": ["person"]},
    {"image_id": "all", "concepts": ["illumination", "structure"]},
    {"image_id": "tgt-only", "concepts": ["car"]},
]


def _random_rows(rng, n_images):
    """Rows over a few street concepts, so images repeat a concept; about one
    image in eight detects nothing."""
    pool = ["car", "truck", "vehicle", "light", "traffic light", "person"]
    detections, targets = [], []
    for i in range(n_images):
        image_id = f"img-{i:04d}"
        n = 0 if rng.random() < 0.125 else rng.randint(1, 7)
        detections.append(_detections(
            image_id, *((rng.choice(pool), rng.randint(0, 10) / 10) for _ in range(n))
        ))
        targets.append({"image_id": image_id,
                        "concepts": [rng.choice(pool) for _ in range(rng.randint(1, 4))]})
    return detections, targets


@pytest.mark.parametrize("profile,fmt", [("path", "csv"), ("flattened", "markdown")])
@pytest.mark.parametrize(
    "corpus,thresholds",
    [
        pytest.param("edges", ["0.7", "0.5", "0.5", "0", "-0.0", "0.3", "1"], id="edges"),
        pytest.param("edges", ["-0.0", "0.6", "0"], id="edges-negative-zero-first"),
        pytest.param("random", ["0.9", "0.1", "0.5", "0.3", "0.7"], id="random-320"),
    ],
)
def test_eval_scene_matches_a_sweep_solved_threshold_by_threshold(
    corpus, thresholds, profile, fmt, tmp_path, capsys
):
    if corpus == "edges":
        detections, targets = _EDGE_DETECTIONS, _EDGE_TARGETS
    else:  # enough images that lines keyed on freed objects' ids would land on other images
        detections, targets = _random_rows(random.Random(11), 320)
    rc, det_path, tgt_path, out = _eval_scene(
        tmp_path, detections, targets, thresholds, "--cost-profile", profile, "--format", fmt
    )
    assert rc == 0
    expected = _reference_sweep(det_path, tgt_path, thresholds, profile, fmt)
    written = {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}
    assert written == expected
    assert capsys.readouterr().out == expected[f"census.{cli._EXT[fmt]}"]


def test_eval_scene_solves_each_distinct_pair_and_renders_each_distinct_line_once(
    tmp_path, monkeypatch
):
    detections = [
        _detections("all", ("car", 0.95), ("truck", 1.0)),  # passes every threshold
        _detections("steps", ("car", 0.15), ("car", 0.35), ("truck", 0.55)),  # 3, 2, 1, 0, 0
        _detections("none"),
        _detections("tied", ("car", 0.5), ("truck", 0.5)),  # 2, 2, 2, 0, 0
    ]
    targets = [{"image_id": i, "concepts": ["car"]} for i in ("all", "steps", "none", "tied")]
    scored, solved, rendered = [], [], []
    real_score, real_solve, real_render = scene.scene_csed, edits._solve, cli.transaction_line
    monkeypatch.setattr(scene, "scene_csed",
                        lambda s, *a: scored.append(s.image_id) or real_score(s, *a))
    monkeypatch.setattr(edits, "_solve",
                        lambda s, t, model: solved.append((s, t)) or real_solve(s, t, model))
    monkeypatch.setattr(cli, "transaction_line",
                        lambda id, scripts: rendered.append(id) or real_render(id, scripts))
    rc, *_, out = _eval_scene(tmp_path, detections, targets, ["0.1", "0.3", "0.5", "0.7", "0.9"])
    assert rc == 0
    assert Counter(scored) == {"all": 5, "steps": 5, "none": 5, "tied": 5}
    # (car truck | car), (car car truck | car), (truck | car) and ( | car), each solved once
    assert len(solved) == len(set(solved)) == 4
    assert Counter(rendered) == {"all": 1, "steps": 4, "none": 1, "tied": 2}
    files = sorted(out.glob("transactions_td*.jsonl"))
    assert [len(p.read_text(encoding="utf-8").splitlines()) for p in files] == [4] * 5


def test_solve_thresholds_shares_the_script_of_an_unchanged_image(street):
    detections = {"a": [det("car", 0.9)], "b": [det("car", 0.4)]}
    targets = {"a": ConceptMultiset(["car"]), "b": ConceptMultiset(["truck"])}
    (_, low, low_scripts), (_, high, high_scripts) = solve_thresholds(
        detections, targets, [0.3, 0.5], street
    )
    assert high_scripts[0] is low_scripts[0]
    assert len(low[1].generated) == 1 and len(high[1].generated) == 0


def test_solve_thresholds_needs_a_threshold(street):
    detections, targets = _toy_corpus()
    with pytest.raises(ValueError, match="^no thresholds given$"):
        next(solve_thresholds(detections, targets, [], street))


def test_solve_thresholds_checks_every_threshold_before_the_first_solve(street, monkeypatch):
    solved = []
    monkeypatch.setattr(scene, "scene_csed", lambda *args: solved.append(args))
    detections, targets = _toy_corpus()
    with pytest.raises(ValueError, match=r"^threshold 1\.5 outside \[0, 1\]$"):
        next(solve_thresholds(detections, targets, [0.5, 0.7, 1.5], street))
    assert solved == []


def test_eval_scene_with_a_bad_last_threshold_solves_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    solved = []
    monkeypatch.setattr(scene, "scene_csed", lambda *args: solved.append(args))
    rc, *_, out = _eval_scene(tmp_path, _EDGE_DETECTIONS, _EDGE_TARGETS, ["0.5", "0.7", "1.5"])
    assert rc == 2
    assert capsys.readouterr().err.endswith("error: threshold 1.5 outside [0, 1]\n")
    assert solved == [] and not out.exists()
