#!/usr/bin/env python3
"""Record the output digests that later runs must reproduce byte for byte.

Usage (from the repository root): python3 perfbench/record_digests.py

For every workload, runs the canary inputs and the full inputs of seeds
0..N_SEEDS-1 once, checks the outputs independently, and writes their
SHA-256 digests to ``perfbench/digests.json``. Run it only when the
benchmark's inputs change on purpose; the digests pin the program's output.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402
import workloads  # noqa: E402

N_SEEDS = 20


def record(inp, work) -> dict:
    out = work / "out"
    out.mkdir(parents=True)
    if run.run_once(inp, out, work / "report.json", traced=False) is None:
        raise SystemExit(f"{inp.workload} seed {inp.seed}: cee failed")
    bad = checks.failed_items(inp, out)
    if bad:
        raise SystemExit(f"{inp.workload} seed {inp.seed}: {len(bad)} items fail their check")
    return checks.digests(out, checks.expected_files(inp))


def main() -> int:
    table = {}
    for name in workloads.WORKLOADS:
        entry = {}
        for seed, canary in [(workloads.CANARY_SEED, True)] + [(s, False) for s in range(N_SEEDS)]:
            work = run.WORK / "record"
            shutil.rmtree(work, ignore_errors=True)
            inp = workloads.generate(name, seed, work / "in", canary=canary)
            entry["canary" if canary else str(seed)] = record(inp, work)
            print(name, "canary" if canary else seed, flush=True)
        table[name] = entry
    shutil.rmtree(run.WORK / "record", ignore_errors=True)
    (run.BENCH / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
