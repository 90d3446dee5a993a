"""Command-line entry points.

Subcommands mirror the workflows: ``eval-story`` (per-story and corpus
metrics plus an edit-transaction dump), ``eval-scene`` (operation census over
detection thresholds; ``--show-scripts N`` adds the grouped edit scripts of
each threshold's N costliest images), ``explain`` (association rules and
insert/delete frequency tables), ``gen-synthetic`` (seeded corpora with known
expected losses), and ``selftest`` (embedded oracle, golden, and recovery
suites).

Every run option is a flag, with its default and its type or choices in
``_ARGUMENTS``; a subcommand takes only the ones its command reads
(``_COMMANDS``). A value's range is checked where the value is used:
``--show-scripts``, ``--n-stories`` and ``--length`` in their command bodies,
and ``--threshold``, ``--min-support``, ``--top-k``, ``--max-ops`` and the
weights by the library calls they reach. ``cee <command> @run.args …``
reads more arguments from ``run.args``, one per line, checked like the flags
they spell; a later argument overrides an earlier one.

All outputs are deterministic for fixed inputs and options: ids are sorted,
floats use fixed formats, and no timestamps or timings are emitted.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .edits import brute_force_csed, csed, format_cost, operation_census
from .errors import CeeError, EmptyCorpus
from .explain import (
    Transaction,
    format_local_grouped,
    id_frequency_table,
    mine_rules,
    read_transactions,
    write_transactions,
)
from .harness import VOCABULARY, corrupt, generate_story, golden_story_pair, random_multiset
from .harness import random_spec, random_taxonomy, recovery_mismatch
from .scene import CENSUS_COLUMNS, census_rows, read_detections, read_targets, solve_thresholds
# unused here, but perfbench/tracer.py wraps these names on this module
from .scene import build_samples, census_csv, corpus_report, scene_csed  # noqa: F401
from .story import evaluate_story, global_aggregate, read_stories, semantic_loss_table
from .story import validate_attribute, write_stories
from .taxonomy import (
    COST_PROFILES,
    FLATTENED_CONFIG,
    REPLACE_MODES,
    CostConfig,
    clevr_taxonomy,
    resolve_taxonomy,
)

FORMATS = ("csv", "markdown", "json")
_EXT = {"csv": "csv", "markdown": "md", "json": "json"}


def _cost_config(args: argparse.Namespace) -> CostConfig:
    """The run's cost config: its profile with the weight flags given over it, built
    and checked here before any input is read."""
    overrides = {
        name: getattr(args, name)
        for name in ("replace_mode", "unit_edge_cost", "delete_weight", "insert_weight")
        if getattr(args, name) is not None
    }
    return replace(COST_PROFILES[args.cost_profile], **overrides)


# -- table rendering ---------------------------------------------------------


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        def cell(c) -> str:  # a "|" would split the cell and a line break the row
            text = str(c).replace("|", "\\|")
            return text.replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")

        def line(cells: Sequence) -> str:
            return "| " + " | ".join(cell(c) for c in cells) + " |"

        lines = [line(headers), line(["---"] * len(headers))] + [line(row) for row in rows]
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


def _emit(
    args: argparse.Namespace, stem: str, headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Render one table in ``--format``, write it to ``<stem>.<ext>`` and return the text."""
    text = render_table(headers, rows, args.format)
    _write(args.out_dir, f"{stem}.{_EXT[args.format]}", text)
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
    cost = _cost_config(args)
    tax = resolve_taxonomy(args.taxonomy)
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
        args,
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
        args,
        "global_summary",
        ["n_stories", "n_join_miss", "gsl", "avg_gsl", "gcl", "avg_gcl"],
        [[str(summary.n_stories), str(n_miss),
          format_cost(summary.gsl), _fmt_avg(summary.avg_gsl),
          format_cost(summary.gcl), _fmt_avg(summary.avg_gcl)]],
    )
    frame_cols = sorted(gt_objects_per_frame)
    _emit(
        args,
        "semantic_loss",
        ["category"] + [f"frame_{k}" for k in frame_cols],
        [
            [category] + [f"{loss_table[category][k]:.2f}" for k in frame_cols]
            for category in sorted(loss_table)
        ],
    )
    write_transactions(Path(args.out_dir) / "transactions.jsonl", transactions)

    print(
        f"stories={summary.n_stories} join_miss={n_miss} "
        f"GSL={format_cost(summary.gsl)} AvgGSL={_fmt_avg(summary.avg_gsl)} "
        f"GCL={format_cost(summary.gcl)} AvgGCL={_fmt_avg(summary.avg_gcl)}"
    )
    return 0


# -- eval-scene ---------------------------------------------------------------


def cmd_eval_scene(args: argparse.Namespace) -> int:
    if args.show_scripts < 0:
        raise ValueError(f"--show-scripts must be at least 0, got {args.show_scripts}")
    cost = _cost_config(args)
    tax = resolve_taxonomy(args.taxonomy, attach_unknown=args.attach_unknown)
    detections = read_detections(args.detections, tax)
    targets = read_targets(args.targets, tax)
    _join_on_id(detections, targets, "detections", "targets")
    thresholds = args.thresholds or (0.5, 0.6, 0.7)  # --threshold would append to a default

    report = []
    files = []  # (name, text) per threshold, held as text: it is smaller than the transactions
    lines: dict[tuple, str] = {}  # an image's line per (image id, passing set)
    costliest = []  # (threshold, [(script, sample)]) when --show-scripts asks for them
    for t_d, samples, scripts in solve_thresholds(detections, targets, thresholds, tax, cost):
        report.append((t_d, operation_census(scripts)))
        if args.show_scripts:  # samples come in image-id order, and sorted() keeps it on ties
            ranked = sorted(zip(scripts, samples), key=lambda pair: -pair[0].total_cost)
            costliest.append((t_d, ranked[: args.show_scripts]))
        text = []
        for s, script in zip(samples, scripts):
            key = (s.image_id, s.generated)
            line = lines.get(key)
            if line is None:
                line = lines[key] = Transaction.from_scripts(s.image_id, [script]).to_json() + "\n"
            text.append(line)
        files.append((f"transactions_td{format_cost(t_d)}.jsonl", "".join(text)))
    for name, text in files:  # only once every threshold solved: a failed run writes nothing
        _write(args.out_dir, name, text)
    census_text = _emit(args, "census", CENSUS_COLUMNS, census_rows(report))
    print(census_text, end="")
    for t_d, shown in costliest:
        print(f"# costliest images at threshold {format_cost(t_d)}")
        for script, sample in shown:
            print(f"image {sample.image_id} (cost {format_cost(script.total_cost)})")
            print(format_local_grouped(script))
    return 0


# -- explain ------------------------------------------------------------------


def cmd_explain(args: argparse.Namespace) -> int:
    edit_sets = read_transactions(args.transactions)  # each distinct edit set, counted
    rules = mine_rules(edit_sets, args.min_support)
    table = id_frequency_table(edit_sets, args.top_k)  # checks top_k before the first write
    rules_text = _emit(
        args,
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
        args,
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
    cost = _cost_config(args)
    tax = resolve_taxonomy(args.taxonomy)
    for attr, values in VOCABULARY.items():  # every value drawn must read back in eval-story
        for value in values:
            validate_attribute(attr, value, tax)
    n_stories, length = args.n_stories, args.length
    if n_stories < 1:
        raise ValueError(f"--n-stories must be at least 1, got {n_stories}")
    if length < 1:
        raise ValueError(f"--length must be at least 1, got {length}")
    rng = random.Random(args.seed)
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
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_stories(out / "ground_truth.jsonl", ground_truth)
    write_stories(out / "generated.jsonl", generated)
    manifest = {
        "seed": args.seed,
        "n_stories": n_stories,
        "length": length,
        "cost_profile": args.cost_profile,
        "stories": manifest_stories,
    }
    _write(args.out_dir, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
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
    cost = _cost_config(args)
    results = [
        ("oracle-equivalence", *_suite_oracle(cost, args.seed)),
        ("golden-story", *_suite_golden(cost)),
        ("harness-recovery", *_suite_recovery(cost, args.seed)),
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


_COST = ("--cost-profile", "--replace-mode", "--unit-edge-cost", "--delete-weight",
         "--insert-weight")
_EVAL = ("--taxonomy", *_COST, "--format", "--out-dir")
_ARGUMENTS = {  # add_argument keywords by name
    "--taxonomy": {"default": "clevr", "help": "bundled name, $CEE_TAXONOMY_DIR name, or path"},
    "--cost-profile": {"choices": sorted(COST_PROFILES), "default": "flattened"},
    "--replace-mode": {"choices": REPLACE_MODES},
    "--unit-edge-cost": {"type": float},
    "--delete-weight": {"type": float},
    "--insert-weight": {"type": float},
    "--format": {"choices": FORMATS, "default": "csv"},
    "--seed": {"type": int, "default": 0},
    "--out-dir": {"default": "."},
    "--attach-unknown": {"action": "store_true",
                         "help": "treat unknown concepts as direct children of the root"},
    "generated": {"help": "generated stories (JSON lines)"},
    "ground_truth": {"help": "ground-truth stories (JSON lines)"},
    "detections": {"help": "detections with confidences (JSON lines)"},
    "targets": {"help": "target concept sets (JSON lines)"},
    "--threshold": {"dest": "thresholds", "action": "append", "type": float,
                    "help": "detection confidence cut; repeatable (default 0.5, 0.6, 0.7)"},
    "--show-scripts": {"type": int, "default": 0, "metavar": "N", "help": "print the grouped "
                       "edit scripts of each threshold's N costliest images"},
    "transactions": {"help": "edit transactions (JSON lines)"},
    "--min-support": {"type": float, "default": 0.01},
    "--top-k": {"type": int, "default": 10},
    "--n-stories": {"type": int, "default": 20},
    "--length": {"type": int, "default": 4},
    "--max-ops": {"type": int, "default": 2},
}
_COMMANDS = {  # help, the arguments the command reads (and no others), defaults
    "eval-story": ("story metrics (SL/CL and aggregates) plus transactions",
                   (*_EVAL, "generated", "ground_truth"), {"func": cmd_eval_story}),
    "eval-scene": ("operation census over detection thresholds",
                   (*_EVAL, "--attach-unknown", "detections", "targets", "--threshold",
                    "--show-scripts"), {"func": cmd_eval_scene, "cost_profile": "path"}),
    "explain": ("association rules and I/D frequency tables",
                ("--format", "--out-dir", "transactions", "--min-support", "--top-k"),
                {"func": cmd_explain}),
    "gen-synthetic": ("seeded story corpora with known expected losses",
                      ("--taxonomy", *_COST, "--seed", "--out-dir", "--n-stories", "--length",
                       "--max-ops"), {"func": cmd_gen_synthetic}),
    "selftest": ("run embedded oracle, golden, and recovery suites", (*_COST, "--seed"),
                 {"func": cmd_selftest}),
}


class _Parser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        """An ``@file`` line is one argument, taken as written; a blank line is none."""
        return [arg_line] if arg_line.strip() else []

    def parse_known_args(self, args=None, namespace=None):
        """An argument this parser does not take is its own error, so a subcommand
        names itself and shows its own usage."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cee",
        description="Knowledge-driven counterfactual edit evaluation",
        fromfile_prefix_chars="@",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for argument in arguments:
            p.add_argument(argument, **_ARGUMENTS[argument])
        p.set_defaults(**defaults)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command. The cycle collector is paused meanwhile, and the caller's
    setting restored after: no command makes a reference cycle per item, so the
    collector's passes over a run's objects would find nothing to free."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            return args.func(args)
        except (CeeError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
