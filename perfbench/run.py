#!/usr/bin/env python3
"""cee batch-evaluation benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload story --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed``, then runs the ``cee``
subcommand as a fresh process again and again, one at a time (one client, a
closed loop), until ``--seconds`` have passed and at least a few runs are in.
Each run's outputs are checked (see ``checks.py``). With ``--trace 0`` it
prints the end-to-end metrics: ``items_per_s`` pooled over the untraced runs,
the others the median over them; with
``--trace 1`` it alternates untraced and traced runs and prints the per-layer
metrics of the traced ones. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A full record,
with every run's raw figures and the machine's state, goes to
``perfbench/_work/results/``. See ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
CHILD_TIMEOUT_S = 60
RUN_CAP_S = 100  # start no run after this, so a slow program still exits within 180 s

# One client and single-threaded BLAS: never more threads than the 2 cores.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(SRC),
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


def run_once(inp, out: Path, report: Path, traced: bool) -> dict | None:
    """One fresh ``cee`` process; returns its timings or None if it failed."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(report), "1" if traced else "0",
           *inp.argv, "--out-dir", str(out)]
    log = out.with_suffix(".log")
    start = time.monotonic()
    with open(log, "w", encoding="utf-8") as log_f:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, stdout=log_f,
                                stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            rc = "timeout"
    if rc != 0 or not report.is_file():
        print(f"run failed ({rc}); last output:")
        print(log.read_text(encoding="utf-8")[-2000:])
        return None
    r = json.loads(report.read_text(encoding="utf-8"))
    return {
        "traced": traced,
        "setup_s": r["setup_end"] - start,
        "items": len(inp.items),
        "run_s": r["end"] - r["setup_end"],
        "peak_rss_mb": r["maxrss_kb"] / 1024.0,
        "output_bytes": sum(p.stat().st_size for p in out.iterdir()),
        "trace": r.get("trace"),
    }


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer figures of one traced run."""
    tr = rep["trace"]
    totals, counts = tr["totals"], tr["counts"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def share(part, whole):
        return part / whole if whole else 0.0

    csed = calls("edits.csed")
    scene_csed = calls("scene.scene_csed")
    return {
        "taxonomy.load_s": total_s("taxonomy.load"),
        "taxonomy.normalize_calls": counts.get("taxonomy.normalize", 0),
        "taxonomy.resolve_calls": counts.get("taxonomy.resolve", 0),
        "taxonomy.path_length_calls": calls("taxonomy.path_length"),
        "taxonomy.path_length_s": total_s("taxonomy.path_length"),
        "edits.csed_calls": csed,
        "edits.csed_s": self_s("edits.csed"),
        "edits.lsa_calls": calls("edits.lsa"),
        "edits.lsa_s": total_s("edits.lsa"),
        "edits.csed_size_mean": share(tr["csed_size_sum"], csed),
        "edits.csed_unique_share": share(tr["csed_unique"], csed),
        "story.read_s": total_s("story.read"),
        "story.frame_csed_calls": calls("story.frame_csed"),
        "story.frame_csed_s": self_s("story.frame_csed"),
        "story.story_loss_s": total_s("story.story_loss"),
        "story.consistency_loss_s": total_s("story.consistency_loss"),
        "story.aggregate_s": total_s("story.aggregate"),
        "scene.read_s": total_s("scene.read"),
        "scene.build_samples_calls": calls("scene.build_samples"),
        "scene.build_samples_s": total_s("scene.build_samples"),
        "scene.corpus_report_s": total_s("scene.corpus_report"),
        "scene.scene_csed_calls": scene_csed,
        "scene.scene_csed_repeat_share": share(counts.get("scene.scene_csed_repeats", 0), scene_csed),
        "explain.read_s": total_s("explain.read"),
        "explain.apriori_s": total_s("explain.apriori"),
        "explain.apriori_itemsets": counts.get("explain.apriori_itemsets", 0),
        "explain.mine_rules_s": total_s("explain.mine_rules"),
        "explain.id_frequency_s": total_s("explain.id_frequency"),
        "explain.write_transactions_s": total_s("explain.write_transactions"),
        "cli.render_s": total_s("cli.render"),
        "cli.write_s": total_s("cli.write"),
        "cli.output_bytes": rep["output_bytes"],
        "cli.self_s": self_s("cli.command"),
    }


def pooled_rate(reps: list[dict]) -> float:
    """Items over post-set-up seconds, summed over runs. The host's speed
    changes in bursts of seconds to tens of seconds; weighing each run by its
    length spread less than the median of per-run rates (README, Noise)."""
    return sum(r["items"] for r in reps) / sum(r["run_s"] for r in reps)


def evaluate_percentiles_ms(reps: list[dict]) -> tuple[float, float]:
    """p50 and p99 of per-story ``evaluate_story`` time, pooled over runs."""
    times = [
        (end - start) * 1e3
        for rep in reps
        for _, name, start, end, _ in rep["trace"]["spans"]
        if name == "story.evaluate"
    ]
    if len(times) < 2:
        return 0.0, 0.0
    return statistics.median(times), statistics.quantiles(times, n=100)[98]


def machine_state() -> dict:
    import numpy
    import scipy

    loadavg = Path("/proc/loadavg")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": loadavg.read_text().strip() if loadavg.is_file() else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cee" / "__init__.py").is_file():
        print(f"error: no cee sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    state = machine_state()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8")).get(args.workload, {})

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        attempted = failed = 0

        # The canary: fixed small inputs whose output digests were recorded
        # when the benchmark was defined. It runs first, untimed, and so also
        # warms the file cache and compiles the bytecode.
        canary = workloads.generate(args.workload, workloads.CANARY_SEED, work / "canary-in", canary=True)
        (work / "canary").mkdir()
        ok = run_once(canary, work / "canary", work / "canary.json", traced=False)
        bad = (set(canary.items) if ok is None
               else checks.failed_against(canary, work / "canary", recorded.get("canary", {})))
        attempted += len(canary.items)
        failed += len(bad)

        inp = workloads.generate(args.workload, args.seed, work / "in")
        reference = recorded.get(str(args.seed))
        min_runs = 4 if args.trace else 3
        reps: list[dict] = []
        first_bad = first_digests = None
        t0 = time.monotonic()
        k = 0
        while (k < min_runs or time.monotonic() < t0 + args.seconds) and time.monotonic() < t0 + RUN_CAP_S:
            out = work / f"out-{k}"
            out.mkdir()
            rep = run_once(inp, out, work / f"report-{k}.json", traced=bool(args.trace and k % 2))
            got = checks.digests(out, checks.expected_files(inp))
            if rep is None:
                bad = set(inp.items)
            elif first_digests is None:
                first_bad = checks.failed_against(inp, out, reference)
                first_digests, bad = got, first_bad
            else:
                bad = first_bad | checks.byte_failures(inp, got, first_digests)
            attempted += len(inp.items)
            failed += len(bad)
            if rep is not None:
                reps.append(rep)
            shutil.rmtree(out)
            k += 1

        untraced = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        if not untraced or (args.trace and not traced):
            print("error: no run of the workload completed", file=sys.stderr)
            return 1
        metrics = {name: statistics.median(r[name] for r in untraced) for name in ("setup_s", "peak_rss_mb")}
        metrics["items_per_s"] = pooled_rate(untraced)
        samples = {"setup_s": len(untraced), "items_per_s": len(untraced), "peak_rss_mb": len(untraced)}
        if args.trace:
            per_run = [layer_metrics(r) for r in traced]
            for name in per_run[0]:
                metrics[name] = statistics.median(m[name] for m in per_run)
                samples[name] = len(traced)
            p50, p99 = evaluate_percentiles_ms(traced)
            n_eval = sum(1 for r in traced for s in r["trace"]["spans"] if s[1] == "story.evaluate")
            metrics["story.evaluate_p50_ms"], metrics["story.evaluate_p99_ms"] = p50, p99
            samples["story.evaluate_p50_ms"] = samples["story.evaluate_p99_ms"] = n_eval
            metrics["trace.items_per_s"] = pooled_rate(traced)
            metrics["trace.overhead_items_per_s"] = metrics["trace.items_per_s"] - metrics["items_per_s"]
            samples["trace.items_per_s"] = len(traced)
            samples["trace.overhead_items_per_s"] = len(reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_share = failed / attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items/run {len(inp.items)}  runs {len(reps)} ({len(untraced)} untraced)")
    print("machine " + "  ".join(f"{k}={v}" for k, v in state.items()))
    for m in wanted:
        print(f"{m['name']:34s} {metrics[m['name']]:14.6f} {m['unit']:6s} "
              f"(n={samples[m['name']]})")
    print(f"{'failed_share':34s} {failed_share:14.6f} share  ({failed} of {attempted} items)")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": state, "params": inp.params,
        "items_per_run": len(inp.items), "attempted": attempted, "failed": failed,
        "failed_share": failed_share, "metrics": metrics, "samples": samples,
        "runs": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
