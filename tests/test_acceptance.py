"""End-to-end acceptance gate.

One test per shipped guarantee. Each records a single [PASS]/[FAIL] verdict
line — echoed in the terminal summary by conftest so it survives pytest's
output capture — and the timed criteria enforce their runtime budgets.
"""

import functools
import math
import random
import time
from itertools import combinations

from cee import (
    ConceptMultiset,
    FLATTENED_CONFIG,
    apriori,
    brute_force_csed,
    build_samples,
    cli,
    corrupt,
    csed,
    evaluate_story,
)
from cee.explain import edit_set_counts, mine_rules
from cee.harness import (
    generate_story,
    random_multiset,
    random_scene_corpus,
    random_spec,
    random_taxonomy,
)
from cee.scene import corpus_report
from cee.taxonomy import PATH_CONFIG


VERDICTS: list[str] = []


def criterion(name, budget=None):
    """Record one verdict line per criterion and enforce its time budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                VERDICTS.append(f"[FAIL] {name}: {exc}")
                raise
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed > budget:
                VERDICTS.append(f"[FAIL] {name}: over {budget:.0f}s budget ({elapsed:.2f}s)")
                raise AssertionError(f"{name} took {elapsed:.2f}s, budget {budget:.0f}s")
            VERDICTS.append(f"[PASS] {name}: {detail} ({elapsed:.2f}s)")

        return wrapper

    return deco


@criterion("golden story pair", budget=1.0)
def test_criterion_01_golden_story(clevr):
    from cee import golden_story_pair

    gen, gt = golden_story_pair()
    m = evaluate_story(gen, gt, clevr, FLATTENED_CONFIG)
    assert m.per_frame_csed == [2.0, 2.0, 2.0, 4.0], m.per_frame_csed
    assert m.sl == 10.0 and m.avg_sl == 2.5, (m.sl, m.avg_sl)
    assert m.cl_per_frame == [0.0, 4.0, 8.0, 12.0], m.cl_per_frame
    assert m.avg_cl == 0.0, m.avg_cl
    for k in range(3):
        assert m.frame_scripts[k].edit_tokens() == ["R:rubber→metallic"], (
            k, m.frame_scripts[k].edit_tokens())
    assert m.frame_scripts[3].edit_tokens() == [
        "R:rubber→metallic", "R:sphere→cylinder",
    ], m.frame_scripts[3].edit_tokens()
    return "per-frame CSED [2,2,2,4], SL 10, CL trace [0,4,8,12], scripts exact"


@criterion("assignment vs brute force", budget=30.0)
def test_criterion_02_oracle_equivalence():
    rng = random.Random(20250201)
    n = 500
    for i in range(n):
        tax = random_taxonomy(rng, n_nodes=20)
        s = random_multiset(rng, tax, max_size=6)
        t = random_multiset(rng, tax, max_size=6)
        fast = csed(s, t, tax, FLATTENED_CONFIG)
        slow = brute_force_csed(s, t, tax, FLATTENED_CONFIG)
        assert fast.total_cost == slow.total_cost, (
            f"instance {i}: {fast.total_cost} != {slow.total_cost} "
            f"for S={sorted(s)} T={sorted(t)}"
        )
    return f"{n} random instances agree exactly"


@criterion("corruption recovery", budget=60.0)
def test_criterion_03_corruption_recovery(clevr):
    rng = random.Random(20250202)
    n = 1000
    for i in range(n):
        gt = generate_story(length=rng.randint(2, 6), rng=rng, story_id=f"s{i}")
        spec = random_spec(rng, gt, max_ops=2)
        corrupted, impact = corrupt(gt, spec, FLATTENED_CONFIG)
        m = evaluate_story(corrupted, gt, clevr, FLATTENED_CONFIG)
        assert m.sl == impact.sl_delta, (
            f"pair {i}: measured SL {m.sl} != predicted {impact.sl_delta} for {spec}"
        )
        assert m.cl_flags == impact.cl_flags, (
            f"pair {i}: flags {sorted(m.cl_flags)} != {sorted(impact.cl_flags)} for {spec}"
        )
    return f"{n} seeded corruption pairs recovered exactly"


@criterion("semantic equivalence")
def test_criterion_04_semantic_equivalence(toy_food):
    script = csed(
        ConceptMultiset(["pasta", "dog"]),
        ConceptMultiset(["food", "animal"]),
        toy_food,
        FLATTENED_CONFIG,
    )
    assert script.total_cost == 0.0, script.total_cost
    assert len(script) == 0, script.edit_tokens()
    return "{pasta,dog} vs {food,animal} costs 0 with an empty script"


@criterion("street-scene script structure")
def test_criterion_05_scene_script(street):
    s = ConceptMultiset(["car", "car", "car", "traffic light", "stop sign"])
    t = ConceptMultiset(["light", "buildings"])
    script = csed(s, t, street, PATH_CONFIG)
    deletes = sorted(op.source for op in script if op.kind == "D")
    replaces = sorted((op.source, op.target) for op in script if op.kind == "R")
    inserts = [op for op in script if op.kind == "I"]
    assert deletes == ["car", "car", "car"], deletes
    assert replaces == [
        ("stop sign", "buildings"),
        ("traffic light", "light"),
    ], replaces
    assert not inserts, inserts
    assert script.total_cost == 14.0, script.total_cost
    flat = csed(s, t, street, FLATTENED_CONFIG)
    assert flat.total_cost == 7.0, flat.total_cost
    return "3 deletes, 2 replaces, 0 inserts; totals 14 (path) / 7 (flattened)"


@criterion("threshold monotonicity")
def test_criterion_06_threshold_monotonicity(street):
    rng = random.Random(20250203)
    thresholds = (0.5, 0.6, 0.7)
    n = 200
    for i in range(n):
        detections, targets = random_scene_corpus(rng, street, n_images=6)
        sizes = [
            {s.image_id: len(s.generated) for s in build_samples(detections, targets, t_d)}
            for t_d in thresholds
        ]
        for lo, hi in zip(sizes, sizes[1:]):
            assert all(hi[img] <= lo[img] for img in lo), f"corpus {i}: set size grew"
        report = corpus_report(detections, targets, thresholds, street, PATH_CONFIG)
        inserts = [census.n_insert for _, census in report]
        assert inserts == sorted(inserts), f"corpus {i}: #I not monotone: {inserts}"
    return f"{n} random corpora: set sizes non-increasing, #I non-decreasing"


def _exhaustive_frequent(itemsets, min_support):
    n = len(itemsets)
    universe = sorted(set().union(*itemsets)) if itemsets else []
    min_count = max(1, math.ceil(min_support * n - 1e-9))
    out = {}
    for r in range(1, len(universe) + 1):
        for combo in combinations(universe, r):
            fs = frozenset(combo)
            count = sum(1 for t in itemsets if fs <= t)
            if count >= min_count:
                out[fs] = count
    return out


@criterion("apriori vs exhaustive enumeration", budget=30.0)
def test_criterion_07_apriori():
    rng = random.Random(20250204)
    pool = [
        "R:a→b", "R:a→c", "R:b→c", "R:c→a", "R:d→e", "R:e→d",
        "D:a", "D:b", "D:c", "I:a", "I:b", "I:c",
    ]
    supports = (0.05, 0.1, 0.25, 1 / 3, 0.5, 0.75, 1.0)
    n = 300
    for i in range(n):
        tokens = rng.sample(pool, rng.randint(1, len(pool)))
        data = [
            frozenset(rng.sample(tokens, rng.randint(0, min(6, len(tokens)))))
            for _ in range(rng.randint(1, 12))
        ]
        min_support = rng.choice(supports)
        got = apriori(edit_set_counts(data), min_support)
        want = _exhaustive_frequent(data, min_support)
        assert got == want, f"set {i}: apriori disagrees at min_support={min_support}"
        for rule in mine_rules(edit_set_counts(data), min_support=0.01):
            assert rule.support <= min(
                rule.antecedent_support, rule.consequent_support
            ) + 1e-12, f"set {i}: rule {rule} violates the support bound"
    return f"{n} random transaction sets match; rule support bounded by marginals"


@criterion("CLI determinism")
def test_criterion_08_cli_determinism(tmp_path, capsys):
    synth = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert cli.main(
            ["gen-synthetic", "--n-stories", "3", "--length", "4",
             "--seed", "5", "--out-dir", str(out)]
        ) == 0
        synth.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert synth[0] == synth[1], "gen-synthetic outputs differ"
    gen = tmp_path / "s1" / "generated.jsonl"
    gt = tmp_path / "s1" / "ground_truth.jsonl"

    runs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert cli.main(
            ["eval-story", str(gen), str(gt), "--out-dir", str(out)]
        ) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] == runs[1], "eval-story outputs differ"

    det = tmp_path / "det.jsonl"
    tgt = tmp_path / "tgt.jsonl"
    det.write_text(
        '{"image_id": "a", "detections": ['
        '{"concept": "car", "confidence": 0.55},'
        '{"concept": "traffic light", "confidence": 0.8}]}\n',
        encoding="utf-8",
    )
    tgt.write_text('{"image_id": "a", "concepts": ["car", "light"]}\n', encoding="utf-8")
    scene_runs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert cli.main(
            ["eval-scene", str(det), str(tgt), "--taxonomy", "street",
             "--out-dir", str(out)]
        ) == 0
        scene_runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert scene_runs[0] == scene_runs[1], "eval-scene outputs differ"

    tx = tmp_path / "e1" / "transactions.jsonl"
    explain_runs = []
    for name in ("x1", "x2"):
        out = tmp_path / name
        assert cli.main(
            ["explain", str(tx), "--min-support", "0.2",
             "--out-dir", str(out)]
        ) == 0
        explain_runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert explain_runs[0] == explain_runs[1], "explain outputs differ"

    capsys.readouterr()
    assert cli.main(["selftest", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["selftest", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second, "selftest output differs between runs"
    return "all five subcommands byte-identical across repeat runs"
