"""The benchmark's own tests pass, so CLI outputs stay byte-identical.

perfbench/test_bench.py compares the outputs of every workload's canary run
against the SHA-256 digests recorded in perfbench/digests.json. It is not
collected with this suite (it lives outside ``tests/``), so it runs here in a
subprocess, the way test_benchmark_tracer.py runs perfbench/child.py. Those
tests cover the canary only. The main inputs, whose digests perfbench/run.py
checks one seed a run, are swept here in process: the story and explain
workloads' for seeds 0-19, and the scene and bigtax workloads' for seeds 0-4.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cee.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_outputs_match_recorded_digests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "perfbench" / "test_bench.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """perfbench's input generator and checks, imported as its own scripts import them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        import checks
        import workloads
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    return checks, workloads, recorded


def _main_inputs_match(workload, seed, bench, tmp_path):
    # the main inputs of a seed the benchmark checks, run in this process
    checks, workloads, recorded = bench
    inp = workloads.generate(workload, seed, tmp_path / "in")
    out = tmp_path / "out"
    assert cli_main([*inp.argv, "--out-dir", str(out)]) == 0
    assert checks.failed_against(inp, out, recorded[workload][str(seed)]) == set()


@pytest.mark.parametrize("seed", range(20))
def test_story_workload_outputs_match_recorded_digests(seed, bench, tmp_path, capsys):
    _main_inputs_match("story", seed, bench, tmp_path)


@pytest.mark.parametrize("seed", range(20))
def test_explain_workload_outputs_match_recorded_digests(seed, bench, tmp_path, capsys):
    # the inputs are the transactions eval-scene writes, so they pass through it as well
    _main_inputs_match("explain", seed, bench, tmp_path)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("workload", ["scene", "bigtax"])
def test_other_workload_outputs_match_recorded_digests(workload, seed, bench, tmp_path, capsys):
    # the cost model prices scene and bigtax pairs too
    _main_inputs_match(workload, seed, bench, tmp_path)
