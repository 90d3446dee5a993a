"""Correctness checks behind ``failed_share``.

Each check recomputes what an output must say by a route that does not use
the code that wrote it:

- story: every ``story_metrics`` row against the ``gen-synthetic`` manifest,
  whose values come from the harness's analytic route, not the edit engine;
- scene and bigtax: a seeded sample of (image, threshold) items is filtered
  here and re-solved with ``brute_force_csed``; the transaction tokens must
  describe an optimal script and the census must agree with the tokens (and,
  when the sample is the whole corpus, with the oracle's total cost);
- explain: ``rules`` and ``id_frequency`` against a direct R/I/D token count.

``failed_items`` returns the set of item keys whose output failed these
checks; ``failed_against`` adds the items of every output file whose bytes
differ from recorded digests. A missing or differing file fails every item
it covers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

from cee.edits import brute_force_csed
from cee.taxonomy import (
    COST_PROFILES,
    delete_cost,
    distance,
    insert_cost,
    is_replaceable,
    replace_cost,
    resolve_taxonomy,
)

from workloads import Inputs

_EPS = 1e-9


def expected_files(inp: Inputs) -> list[str]:
    if inp.workload == "story":
        return ["global_summary.csv", "semantic_loss.csv", "story_metrics.csv", "transactions.jsonl"]
    if inp.workload == "explain":
        return ["id_frequency.csv", "rules.csv"]
    return ["census.csv"] + [_tx_name(t) for t in inp.params["thresholds"]]


def _tx_name(t: float) -> str:
    return f"transactions_td{t}.jsonl"


def covered_items(inp: Inputs, name: str) -> set:
    """Items whose result a file carries: one threshold's transactions carry
    that threshold's images, every other file carries all items."""
    for t in inp.params.get("thresholds", ()):
        if name == _tx_name(t):
            return {item for item in inp.items if item[1] == t}
    return set(inp.items)


def digests(out_dir: Path, names: list[str]) -> dict[str, str | None]:
    out = {}
    for name in names:
        path = out_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


def byte_failures(inp: Inputs, got: dict, reference: dict) -> set:
    """Items covered by files that are missing or differ from ``reference``."""
    failed = set()
    for name, digest in got.items():
        if digest is None or digest != reference.get(name):
            failed |= covered_items(inp, name)
    return failed


def failed_against(inp: Inputs, out_dir: Path, reference: dict | None) -> set:
    """``failed_items`` plus the items of files whose digest differs from
    ``reference``, the digests recorded for these inputs (None: none were)."""
    failed = failed_items(inp, out_dir)
    if reference is not None:
        failed |= byte_failures(inp, digests(out_dir, expected_files(inp)), reference)
    return failed


def failed_items(inp: Inputs, out_dir: Path) -> set:
    """Items whose output fails the workload's independent check."""
    failed = set()
    for name in expected_files(inp):
        if not (out_dir / name).is_file():
            failed |= covered_items(inp, name)
    try:
        if inp.workload == "story":
            failed |= _check_story(inp, out_dir)
        elif inp.workload == "explain":
            failed |= _check_explain(inp, out_dir)
        else:
            failed |= _check_scene(inp, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"check error: {type(exc).__name__}: {exc}")
        failed = set(inp.items)
    return failed


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


# -- story ------------------------------------------------------------------


def _check_story(inp: Inputs, out_dir: Path) -> set:
    manifest = json.loads((inp.dir / "manifest.json").read_text(encoding="utf-8"))
    expected = {s["id"]: s for s in manifest["stories"]}
    rows = {r["story_id"]: r for r in _csv_rows(out_dir / "story_metrics.csv")}
    failed = set()
    for story_id in inp.items:
        row, exp = rows.get(story_id), expected[story_id]
        if (
            row is None
            or float(row["sl"]) != exp["expected_sl_delta"]
            or row["avg_cl"] != f"{exp['expected_avg_cl']:.4f}"
            or row["cl_flags"] != ";".join(str(k) for k in exp["expected_cl_flags"])
        ):
            failed.add(story_id)
    (summary,) = _csv_rows(out_dir / "global_summary.csv")
    gsl = sum(s["expected_sl_delta"] for s in manifest["stories"])
    if int(summary["n_stories"]) != len(inp.items) or not math.isclose(float(summary["gsl"]), gsl):
        failed |= set(inp.items)
    return failed


# -- scene and bigtax -------------------------------------------------------


def _taxonomy_arg(inp: Inputs) -> str:
    return inp.argv[inp.argv.index("--taxonomy") + 1]


def _check_scene(inp: Inputs, out_dir: Path) -> set:
    tax = resolve_taxonomy(_taxonomy_arg(inp))
    cfg = COST_PROFILES["path"]
    detections = {r["image_id"]: r["detections"] for r in _jsonl(inp.dir / "detections.jsonl")}
    targets = {r["image_id"]: r["concepts"] for r in _jsonl(inp.dir / "targets.jsonl")}
    images = sorted(targets)
    census = {float(r["threshold"]): r for r in _csv_rows(out_dir / "census.csv")}
    rng = random.Random(f"check:{inp.seed}")
    failed = set()
    for t in inp.params["thresholds"]:
        at_t = {(i, t) for i in images}
        row = census.get(t)
        tx = {r["id"]: set(r["edits"]) for r in _jsonl(out_dir / _tx_name(t))}
        if row is None or set(tx) != set(images) or not _census_agrees(row, tx, len(images)):
            failed |= at_t
            continue
        sample = images if inp.params["check_sample"] >= len(images) else sorted(
            rng.sample(images, inp.params["check_sample"])
        )
        oracle_total = 0.0
        for image_id in sample:
            s = [d["concept"] for d in detections[image_id] if d["confidence"] >= t]
            best = brute_force_csed(s, targets[image_id], tax, cfg).total_cost
            oracle_total += best
            if not _tokens_admit(s, targets[image_id], tx[image_id], best, tax, cfg):
                failed.add((image_id, t))
        census_total = sum(float(row[k]) for k in ("cost_insert", "cost_delete", "cost_replace"))
        if len(sample) == len(images) and not math.isclose(census_total, oracle_total, abs_tol=_EPS):
            failed |= at_t
    return failed


def _census_agrees(row: dict, tx: dict[str, set], n_images: int) -> bool:
    """The mean is the summed cost over images, and each kind's op count is
    at least the number of distinct tokens of that kind per image."""
    total = sum(float(row[k]) for k in ("cost_insert", "cost_delete", "cost_replace"))
    if row["mean_csed"] != f"{total / n_images:.4f}":
        return False
    for kind, column in (("I", "n_insert"), ("D", "n_delete"), ("R", "n_replace")):
        distinct = sum(1 for tokens in tx.values() for token in tokens if token.startswith(kind + ":"))
        if int(row[column]) < distinct or (int(row[column]) > 0) != (distinct > 0):
            return False
    return True


def _tokens_admit(s_items, t_items, tokens, best, tax, cfg) -> bool:
    """True when some edit script that uses exactly the op tokens in
    ``tokens`` (each at least once) costs the optimum ``best``.

    Tokens are deduplicated per image and ties between a replace and a
    delete-plus-insert are common, so the check searches for any optimal
    script consistent with the tokens rather than comparing to one script.
    """
    s_items = [tax.resolve(x) for x in sorted(s_items)]
    t_items = [tax.resolve(x) for x in sorted(t_items)]
    n, m = len(s_items), len(t_items)
    options = []  # per generated item: (target index or -1, cost, token or None)
    for s in s_items:
        opts = []
        if f"D:{s}" in tokens:
            opts.append((-1, delete_cost(tax, s, cfg), f"D:{s}"))
        for j, t in enumerate(t_items):
            if distance(tax, s, t, cfg) == 0.0:
                opts.append((j, 0.0, None))
            elif f"R:{s}→{t}" in tokens and is_replaceable(tax, s, t, cfg):
                opts.append((j, replace_cost(tax, s, t, cfg), f"R:{s}→{t}"))
        options.append(opts)
    used = [False] * m

    def walk(i: int, acc: float, seen: frozenset) -> bool:
        if acc > best + _EPS:
            return False
        if i == n:
            rest = [t_items[j] for j in range(m) if not used[j]]
            if any(f"I:{t}" not in tokens for t in rest):
                return False
            total = acc + sum(insert_cost(tax, t, cfg) for t in rest)
            return abs(total - best) <= _EPS and seen | {f"I:{t}" for t in rest} == tokens
        for j, cost, token in options[i]:
            if j >= 0 and used[j]:
                continue
            if j >= 0:
                used[j] = True
            ok = walk(i + 1, acc + cost, seen | {token} if token else seen)
            if j >= 0:
                used[j] = False
            if ok:
                return True
        return False

    return walk(0, 0.0, frozenset())


# -- explain ----------------------------------------------------------------


def _check_explain(inp: Inputs, out_dir: Path) -> set:
    transactions = [set(r["edits"]) for r in _jsonl(inp.dir / "transactions.jsonl")]
    n = len(transactions)
    token_count: dict[str, int] = {}
    for tokens in transactions:
        for token in tokens:
            token_count[token] = token_count.get(token, 0) + 1

    min_count = max(1, math.ceil(inp.params["min_support"] * n - _EPS))
    sources: dict[str, int] = {}
    targets: dict[str, int] = {}
    for tokens in transactions:
        pairs = [tok[2:].split("→") for tok in tokens if tok.startswith("R:")]
        for side, store in ((0, sources), (1, targets)):
            for concept in {p[side] for p in pairs}:
                store[concept] = store.get(concept, 0) + 1
    rules = sorted(
        (-count, *tok[2:].split("→"))
        for tok, count in token_count.items()
        if tok.startswith("R:") and count >= min_count
    )
    want_rules = [
        {
            "source": src, "target": tgt, "frequency": str(-neg),
            "support_pct": f"{100.0 * -neg / n:.2f}",
            "antecedent_support_pct": f"{100.0 * sources[src] / n:.2f}",
            "consequent_support_pct": f"{100.0 * targets[tgt] / n:.2f}",
        }
        for neg, src, tgt in rules
    ]

    want_freq = []
    for kind in ("I", "D"):
        row = {tok[2:]: c for tok, c in token_count.items() if tok.startswith(kind + ":")}
        total = sum(row.values())
        top_k = 10  # cee explain's default --top-k
        for concept, count in sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]:
            want_freq.append({"kind": kind, "concept": concept, "count": str(count),
                              "share_pct": f"{100.0 * count / total:.2f}"})

    if _csv_rows(out_dir / "rules.csv") != want_rules or _csv_rows(out_dir / "id_frequency.csv") != want_freq:
        return set(inp.items)
    return set()
