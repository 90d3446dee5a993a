"""Command-line entry points.

Subcommands mirror the workflows: ``eval-story`` (per-story and corpus
metrics plus an edit-transaction dump), ``eval-scene`` (operation census over
detection thresholds), ``explain`` (association rules and insert/delete
frequency tables), ``gen-synthetic`` (seeded corpora with known expected
losses), and ``selftest`` (embedded oracle, golden, and recovery suites).

All outputs are deterministic for fixed inputs and seed: ids are sorted,
floats use fixed formats, and no timestamps or timings are emitted.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import random
import sys
import types
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

from .edits import brute_force_csed, csed, format_cost, operation_census
from .errors import CeeError, EmptyCorpus
from .explain import (
    Transaction,
    id_frequency_table,
    mine_rules,
    read_transactions,
    write_transactions,
)
from .harness import (
    corrupt,
    generate_story,
    golden_story_pair,
    random_multiset,
    random_spec,
    random_taxonomy,
    recovery_mismatch,
)
from .scene import CENSUS_COLUMNS, census_rows, read_detections, read_targets, solve_thresholds
# unused here, but perfbench/tracer.py wraps these names on this module
from .scene import build_samples, census_csv, corpus_report, scene_csed  # noqa: F401
from .story import evaluate_story, global_aggregate, read_stories, semantic_loss_table, write_stories
from .taxonomy import (
    COST_PROFILES,
    FLATTENED_CONFIG,
    REPLACE_MODES,
    CostConfig,
    Taxonomy,
    clevr_taxonomy,
    resolve_taxonomy,
)

FORMATS = ("csv", "markdown", "json")
_EXT = {"csv": "csv", "markdown": "md", "json": "json"}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run options: config-file values overridden by flags."""

    taxonomy: str = "clevr"
    cost_profile: str = "flattened"
    replace_mode: str | None = None
    unit_edge_cost: float | None = None
    delete_weight: float | None = None
    insert_weight: float | None = None
    thresholds: tuple[float, ...] = (0.5, 0.6, 0.7)
    min_support: float = 0.01
    format: str = "csv"
    seed: int = 0
    out_dir: str = "."
    attach_unknown: bool = False
    top_k: int = 10

    def cost_config(self) -> CostConfig:
        if self.cost_profile not in COST_PROFILES:
            raise ValueError(
                f"unknown cost profile {self.cost_profile!r}; "
                f"choose from {sorted(COST_PROFILES)}"
            )
        cfg = COST_PROFILES[self.cost_profile]
        overrides = {}
        if self.replace_mode is not None:
            overrides["replace_mode"] = self.replace_mode
        if self.unit_edge_cost is not None:
            overrides["unit_edge_cost"] = self.unit_edge_cost
        if self.delete_weight is not None:
            overrides["delete_weight"] = self.delete_weight
        if self.insert_weight is not None:
            overrides["insert_weight"] = self.insert_weight
        return replace(cfg, **overrides) if overrides else cfg

    def load_taxonomy(self) -> Taxonomy:
        return resolve_taxonomy(self.taxonomy, attach_unknown=self.attach_unknown)


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a ``RunConfig`` annotation; a bool is not a number."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_conforms(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _merge_config(args: argparse.Namespace, scene_defaults: bool = False) -> RunConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ValueError(f"{args.config}: expected a JSON object")
        unknown = set(file_values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(RunConfig)
        for key, value in file_values.items():
            if not _conforms(value, hints[key]):
                raise ValueError(
                    f"{args.config}: {key!r} must be {inspect.formatannotation(hints[key])}, "
                    f"got {json.dumps(value)}"
                )
    values: dict = {}
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
        elif f.name in file_values:
            values[f.name] = file_values[f.name]
    if "thresholds" in values:
        values["thresholds"] = tuple(float(t) for t in values["thresholds"])
    if scene_defaults and "cost_profile" not in values:
        values["cost_profile"] = "path"
    cfg = RunConfig(**values)
    if cfg.format not in FORMATS:
        raise ValueError(f"unknown format {cfg.format!r}; choose from {FORMATS}")
    return cfg


# -- table rendering ---------------------------------------------------------


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(headers) + " |",
            "| " + " | ".join("---" for _ in headers) + " |",
        ]
        lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        records = [dict(zip(headers, row)) for row in rows]
        return json.dumps(records, indent=2, ensure_ascii=False) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _write(out_dir: str | Path, name: str, text: str) -> Path:
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _emit(cfg: RunConfig, stem: str, headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render one table in ``cfg.format``, write it to ``<stem>.<ext>`` and return the text."""
    text = render_table(headers, rows, cfg.format)
    _write(cfg.out_dir, f"{stem}.{_EXT[cfg.format]}", text)
    return text


def _fmt_avg(x: float) -> str:
    return f"{x:.4f}"


# -- eval-story ---------------------------------------------------------------


def _join_on_id(left: dict, right: dict, left_name: str, right_name: str):
    """Shared ids, sorted, and the number of join misses, each reported on stderr."""
    misses = [f"join-miss: id {i!r} only in {left_name}" for i in sorted(set(left) - set(right))]
    misses += [f"join-miss: id {i!r} only in {right_name}" for i in sorted(set(right) - set(left))]
    for line in misses:
        print(line, file=sys.stderr)
    return sorted(set(left) & set(right)), len(misses)


def cmd_eval_story(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    tax = cfg.load_taxonomy()
    cost = cfg.cost_config()
    gen_by_id = {s.id: s for s in read_stories(args.generated, tax)}
    gt_by_id = {s.id: s for s in read_stories(args.ground_truth, tax)}
    common, n_miss = _join_on_id(gen_by_id, gt_by_id, "generated corpus", "ground-truth corpus")
    if not common:
        raise EmptyCorpus("no story ids shared between generated and ground-truth corpora")

    per_story = []
    transactions = []
    indexed_scripts = []
    gt_objects_per_frame: dict[int, int] = {}
    for story_id in common:
        metrics = evaluate_story(gen_by_id[story_id], gt_by_id[story_id], tax, cost)
        per_story.append(metrics)
        transactions.append(Transaction.from_scripts(story_id, metrics.frame_scripts))
        for k, script in enumerate(metrics.frame_scripts, start=1):
            indexed_scripts.append((k, script))
        for k, frame in enumerate(gt_by_id[story_id].frames, start=1):
            gt_objects_per_frame[k] = gt_objects_per_frame.get(k, 0) + len(frame)
    summary = global_aggregate(per_story)
    loss_table = semantic_loss_table(indexed_scripts, tax, gt_objects_per_frame)

    _emit(
        cfg,
        "story_metrics",
        ["story_id", "length", "per_frame_csed", "sl", "avg_sl", "cl", "avg_cl", "cl_flags"],
        [
            [m.story_id, str(len(m.per_frame_csed)), ";".join(map(format_cost, m.per_frame_csed)),
             format_cost(m.sl), _fmt_avg(m.avg_sl), format_cost(m.cl), _fmt_avg(m.avg_cl),
             ";".join(str(k) for k in sorted(m.cl_flags))]
            for m in per_story
        ],
    )
    _emit(
        cfg,
        "global_summary",
        ["n_stories", "n_join_miss", "gsl", "avg_gsl", "gcl", "avg_gcl"],
        [[str(summary.n_stories), str(n_miss),
          format_cost(summary.gsl), _fmt_avg(summary.avg_gsl),
          format_cost(summary.gcl), _fmt_avg(summary.avg_gcl)]],
    )
    frame_cols = sorted(gt_objects_per_frame)
    _emit(
        cfg,
        "semantic_loss",
        ["category"] + [f"frame_{k}" for k in frame_cols],
        [
            [category] + [f"{loss_table[category][k]:.2f}" for k in frame_cols]
            for category in sorted(loss_table)
        ],
    )
    write_transactions(Path(cfg.out_dir) / "transactions.jsonl", transactions)

    print(
        f"stories={summary.n_stories} join_miss={n_miss} "
        f"GSL={format_cost(summary.gsl)} AvgGSL={_fmt_avg(summary.avg_gsl)} "
        f"GCL={format_cost(summary.gcl)} AvgGCL={_fmt_avg(summary.avg_gcl)}"
    )
    return 0


# -- eval-scene ---------------------------------------------------------------


def cmd_eval_scene(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, scene_defaults=True)
    tax = cfg.load_taxonomy()
    cost = cfg.cost_config()
    detections = read_detections(args.detections, tax)
    targets = read_targets(args.targets, tax)
    _join_on_id(detections, targets, "detections", "targets")

    out = Path(cfg.out_dir)
    report = []
    for t_d, samples, scripts in solve_thresholds(detections, targets, cfg.thresholds, tax, cost):
        report.append((t_d, operation_census(scripts)))
        out.mkdir(parents=True, exist_ok=True)  # only once solving works: a failed run writes nothing
        write_transactions(
            out / f"transactions_td{format_cost(t_d)}.jsonl",
            [Transaction.from_scripts(s.image_id, [script]) for s, script in zip(samples, scripts)],
        )
    census_text = _emit(cfg, "census", CENSUS_COLUMNS, census_rows(report))
    print(census_text, end="")
    return 0


# -- explain ------------------------------------------------------------------


def cmd_explain(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    transactions = read_transactions(args.transactions)
    rules = mine_rules(transactions, cfg.min_support)
    table = id_frequency_table(transactions, cfg.top_k)  # checks top_k before the first write
    rules_text = _emit(
        cfg,
        "rules",
        [
            "source", "target", "frequency",
            "support_pct", "antecedent_support_pct", "consequent_support_pct",
        ],
        [
            [r.source, r.target, str(r.frequency), f"{r.support:.2f}",
             f"{r.antecedent_support:.2f}", f"{r.consequent_support:.2f}"]
            for r in rules
        ],
    )
    _emit(
        cfg,
        "id_frequency",
        ["kind", "concept", "count", "share_pct"],
        [
            [kind, concept, str(count), f"{share:.2f}"]
            for kind in ("I", "D")
            for concept, count, share in table.get(kind, [])
        ],
    )
    print(rules_text, end="")
    return 0


# -- gen-synthetic ------------------------------------------------------------


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    cost = cfg.cost_config()
    if not cost.flattened:
        raise ValueError("gen-synthetic requires a flattened cost profile")
    n_stories = args.n_stories
    if n_stories < 1:
        raise ValueError(f"--n-stories must be at least 1, got {n_stories}")
    rng = random.Random(cfg.seed)
    length = args.length
    ground_truth = []
    generated = []
    manifest_stories = []
    for i in range(n_stories):
        gt = generate_story(length=length, rng=rng, story_id=f"story-{i:04d}")
        spec = random_spec(rng, gt, max_ops=args.max_ops)
        corrupted, impact = corrupt(gt, spec, cost)
        ground_truth.append(gt)
        generated.append(corrupted)
        manifest_stories.append(
            {
                "id": gt.id,
                "ops": [
                    {
                        "kind": op.kind,
                        "frame": op.frame,
                        **({"attribute": op.attribute, "value": op.value}
                           if op.attribute else {}),
                        **({"object": op.obj.to_dict()} if op.obj else {}),
                    }
                    for op in spec.ops
                ],
                "expected_sl_delta": impact.sl_delta,
                "expected_cl_trace": list(impact.cl_trace),
                "expected_cl_flags": sorted(impact.cl_flags),
                "expected_avg_cl": impact.avg_cl,
            }
        )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_stories(out / "ground_truth.jsonl", ground_truth)
    write_stories(out / "generated.jsonl", generated)
    manifest = {
        "seed": cfg.seed,
        "n_stories": n_stories,
        "length": length,
        "cost_profile": cfg.cost_profile,
        "stories": manifest_stories,
    }
    _write(cfg.out_dir, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {n_stories} story pairs of length {length} to {out}")
    return 0


# -- selftest -----------------------------------------------------------------


def _suite_oracle(cost: CostConfig, seed: int) -> tuple[str, str]:
    rng = random.Random(seed)
    n_cases = 120
    for _ in range(n_cases):
        tax = random_taxonomy(rng, n_nodes=rng.randint(5, 20))
        s = random_multiset(rng, tax, max_size=5)
        t = random_multiset(rng, tax, max_size=5)
        fast = csed(s, t, tax, cost)
        slow = brute_force_csed(s, t, tax, cost)
        if fast.total_cost != slow.total_cost:
            return "FAIL", (
                f"assignment {fast.total_cost} != brute force {slow.total_cost} "
                f"on S={list(s)} T={list(t)}"
            )
    return "PASS", f"{n_cases} random instances, assignment == brute force"


def _suite_golden(cost: CostConfig) -> tuple[str, str]:
    if cost != FLATTENED_CONFIG:
        return "SKIP", "requires the default flattened unit-weight profile"
    tax = clevr_taxonomy()
    m = evaluate_story(*golden_story_pair(), tax, cost)
    checks = [
        (m.per_frame_csed == [2.0, 2.0, 2.0, 4.0], "per-frame CSED"),
        (m.sl == 10.0, "SL"),
        (m.avg_sl == 2.5, "Avg SL"),
        (m.cl_per_frame == [0.0, 4.0, 8.0, 12.0], "CL trace"),
        (m.avg_cl == 0.0, "Avg CL"),
        (m.cl_flags == frozenset(), "CL flags"),
        (
            [op.token for op in m.frame_scripts[3]]
            == ["R:rubber→metallic", "R:sphere→cylinder"],
            "frame-4 script",
        ),
    ]
    for ok, label in checks:
        if not ok:
            return "FAIL", f"golden story mismatch: {label}"
    return "PASS", "reference story pair reproduced exactly"


def _suite_recovery(cost: CostConfig, seed: int) -> tuple[str, str]:
    if not cost.flattened:
        return "SKIP", "corruption analytics need a flattened profile"
    tax = clevr_taxonomy()
    rng = random.Random(seed)
    n_cases = 100
    for _ in range(n_cases):
        gt = generate_story(length=rng.randint(2, 6), rng=rng)
        spec = random_spec(rng, gt)
        corrupted, impact = corrupt(gt, spec, cost)
        mismatch = recovery_mismatch(evaluate_story(corrupted, gt, tax, cost), impact)
        if mismatch is not None:
            return "FAIL", f"recovery mismatch for spec {spec}: measured {mismatch}"
    return "PASS", f"{n_cases} corrupted stories recovered exactly"


def cmd_selftest(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    cfg.load_taxonomy()  # propagate taxonomy validation errors before running
    cost = cfg.cost_config()
    results = [
        ("oracle-equivalence", *_suite_oracle(cost, cfg.seed)),
        ("golden-story", *_suite_golden(cost)),
        ("harness-recovery", *_suite_recovery(cost, cfg.seed)),
    ]
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for name, status, detail in results:
        counts[status] += 1
        print(f"[{status}] {name}: {detail}")
    print(
        f"{counts['PASS']} passed, {counts['FAIL']} failed, {counts['SKIP']} skipped"
    )
    return 1 if counts["FAIL"] else 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with RunConfig defaults")
    common.add_argument("--taxonomy", help="bundled name, $CEE_TAXONOMY_DIR name, or path")
    common.add_argument("--cost-profile", dest="cost_profile", choices=sorted(COST_PROFILES))
    common.add_argument("--replace-mode", dest="replace_mode",
                        choices=REPLACE_MODES)
    common.add_argument("--unit-edge-cost", dest="unit_edge_cost", type=float)
    common.add_argument("--delete-weight", dest="delete_weight", type=float)
    common.add_argument("--insert-weight", dest="insert_weight", type=float)
    common.add_argument("--format", choices=FORMATS)
    common.add_argument("--seed", type=int)
    common.add_argument("--out-dir", dest="out_dir")
    common.add_argument("--attach-unknown", dest="attach_unknown",
                        action="store_const", const=True,
                        help="treat unknown concepts as direct children of the root")

    parser = argparse.ArgumentParser(
        prog="cee",
        description="Knowledge-driven counterfactual edit evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-story", parents=[common],
                       help="story metrics (SL/CL and aggregates) plus transactions")
    p.add_argument("generated", help="generated stories (JSON lines)")
    p.add_argument("ground_truth", help="ground-truth stories (JSON lines)")
    p.set_defaults(func=cmd_eval_story)

    p = sub.add_parser("eval-scene", parents=[common],
                       help="operation census over detection thresholds")
    p.add_argument("detections", help="detections with confidences (JSON lines)")
    p.add_argument("targets", help="target concept sets (JSON lines)")
    p.add_argument("--threshold", dest="thresholds", action="append", type=float,
                   help="detection confidence cut; repeatable")
    p.set_defaults(func=cmd_eval_scene)

    p = sub.add_parser("explain", parents=[common],
                       help="association rules and I/D frequency tables")
    p.add_argument("transactions", help="edit transactions (JSON lines)")
    p.add_argument("--min-support", dest="min_support", type=float)
    p.add_argument("--top-k", dest="top_k", type=int)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("gen-synthetic", parents=[common],
                       help="seeded story corpora with known expected losses")
    p.add_argument("--n-stories", type=int, default=20)
    p.add_argument("--length", type=int, default=4)
    p.add_argument("--max-ops", type=int, default=2)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("selftest", parents=[common],
                       help="run embedded oracle, golden, and recovery suites")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CeeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
