"""Smoke runs of the example scripts, which call the readers and the
threshold solver the same way an outside user would."""

import json
import os
import subprocess
import sys
from pathlib import Path

from cee.scene import CENSUS_HEADER

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_synthetic_story_experiment_recovers_every_prediction(tmp_path):
    proc = _run(
        "run_synthetic_story_experiment.py", "--n-stories", "10",
        "--out-dir", str(tmp_path / "out"), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "prediction misses : 0" in proc.stdout


def test_threshold_sweep_on_random_corpus(tmp_path):
    proc = _run("run_threshold_sweep.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert CENSUS_HEADER + "\n" in proc.stdout


def test_threshold_sweep_on_files(tmp_path):
    det_path = tmp_path / "det.jsonl"
    tgt_path = tmp_path / "tgt.jsonl"
    det_path.write_text(
        json.dumps({"image_id": "a", "detections": [
            {"concept": "car", "confidence": 0.9}, {"concept": "truck", "confidence": 0.55},
        ]}) + "\n",
        encoding="utf-8",
    )
    tgt_path.write_text(json.dumps({"image_id": "a", "concepts": ["car"]}) + "\n", encoding="utf-8")
    proc = _run(
        "run_threshold_sweep.py", "--detections", str(det_path), "--targets", str(tgt_path),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert CENSUS_HEADER + "\n" in proc.stdout


def test_threshold_sweep_reports_bad_input_with_path_and_line(tmp_path):
    det_path = tmp_path / "det.jsonl"
    tgt_path = tmp_path / "tgt.jsonl"
    det_path.write_text(
        json.dumps({"image_id": "a", "detections": [{"concept": "zebra", "confidence": 0.9}]})
        + "\n",
        encoding="utf-8",
    )
    tgt_path.write_text(json.dumps({"image_id": "a", "concepts": ["car"]}) + "\n", encoding="utf-8")
    proc = _run(
        "run_threshold_sweep.py", "--detections", str(det_path), "--targets", str(tgt_path),
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {det_path}:1: concept 'zebra' is not in the taxonomy\n"
