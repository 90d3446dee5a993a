#!/usr/bin/env python3
"""Run every workload once and print its end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/all.py [--seed N] [--trace 0|1]

Runs ``perfbench/run.py`` for each workload in turn, with the run length of
``BENCHMARK.json``, and prints one block per workload: every metric with its
unit, plus ``failed_share``. Exits 1 if any workload failed a check or did
not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"== {workload}")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:14.6f} {m['unit']}")
        print(f"  {'failed_share':34s} {result['failed'] / result['attempted']:14.6f} share")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
