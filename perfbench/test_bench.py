"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root: python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from cee.cli import main as cee_main  # noqa: E402

RECORDED = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _canary_outputs(workload: str, tmp_path: Path):
    inp = workloads.generate(workload, workloads.CANARY_SEED, tmp_path / "in", canary=True)
    out = tmp_path / "out"
    assert cee_main([*inp.argv, "--out-dir", str(out)]) == 0
    return inp, out


def _failed_share(inp, out) -> float:
    failed = checks.failed_against(inp, out, RECORDED[inp.workload]["canary"])
    return len(failed) / len(inp.items)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    a = workloads.generate(workload, 3, tmp_path / "a", canary=True)
    b = workloads.generate(workload, 3, tmp_path / "b", canary=True)
    c = workloads.generate(workload, 4, tmp_path / "c", canary=True)
    assert a.items == b.items
    assert _files(a.dir) == _files(b.dir)
    assert _files(a.dir) != _files(c.dir)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_any_altered_byte_fails_items(workload, tmp_path):
    inp, out = _canary_outputs(workload, tmp_path)
    assert _failed_share(inp, out) == 0.0
    for name in checks.expected_files(inp):
        path = out / name
        original = path.read_bytes()
        altered = bytearray(original)
        altered[len(altered) // 2] ^= 1
        path.write_bytes(bytes(altered))
        assert _failed_share(inp, out) > 0.0, name
        path.unlink()
        assert _failed_share(inp, out) > 0.0, name
        path.write_bytes(original)
    assert _failed_share(inp, out) == 0.0


def test_one_wrong_story_sl_fails_without_digests(tmp_path):
    inp, out = _canary_outputs("story", tmp_path)
    path = out / "story_metrics.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[3] = str(float(fields[3]) + 1.0)  # the sl column
    lines[1] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")
    assert checks.failed_items(inp, out) == {fields[0]}


def test_scene_check_rejects_a_suboptimal_token_set(tmp_path):
    inp, out = _canary_outputs("scene", tmp_path)
    name = "transactions_td0.5.jsonl"
    rows = [json.loads(line) for line in (out / name).read_text(encoding="utf-8").splitlines()]
    victim = next(r for r in rows if any(tok.startswith("R:") for tok in r["edits"]))
    victim["edits"] = sorted(tok for tok in victim["edits"] if not tok.startswith("R:"))
    (out / name).write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                            encoding="utf-8")
    assert (victim["id"], 0.5) in checks.failed_items(inp, out)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "story", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
