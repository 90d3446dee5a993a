"""The benchmark's own tests pass, so CLI outputs stay byte-identical.

perfbench/test_bench.py compares the outputs of every workload's canary run
against the SHA-256 digests recorded in perfbench/digests.json. It is not
collected with this suite (it lives outside ``tests/``), so it runs here in a
subprocess, the way test_benchmark_tracer.py runs perfbench/child.py.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_outputs_match_recorded_digests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "perfbench" / "test_bench.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
