"""Smoke runs of the example scripts, which call the readers and the
threshold solver the same way an outside user would."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "field,wrong",
    [
        ("cl_trace", lambda impact: impact.cl_trace[:-1] + (impact.cl_trace[-1] + 1.0,)),
        ("avg_cl", lambda impact: impact.avg_cl + 1.0),
    ],
)
def test_synthetic_story_experiment_checks_the_whole_prediction(
    field, wrong, tmp_path, monkeypatch, capsys
):
    path = ROOT / "scripts" / "run_synthetic_story_experiment.py"
    spec = importlib.util.spec_from_file_location("run_synthetic_story_experiment", path)
    experiment = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(experiment)
    real = experiment.corrupt

    def off_in_one_field(story, corruption, cfg):
        corrupted, impact = real(story, corruption, cfg)
        return corrupted, dataclasses.replace(impact, **{field: wrong(impact)})

    monkeypatch.setattr(experiment, "corrupt", off_in_one_field)
    assert experiment.main(["--n-stories", "3", "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "prediction misses : 3" in captured.out
    assert captured.err.count("MISMATCH") == 3


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


def test_threshold_sweep_reports_a_bad_taxonomy_with_its_file(tmp_path):
    tax_path = tmp_path / "cyc.tax"
    tax_path.write_text("a\tb\nb\ta\n", encoding="utf-8")
    proc = _run("run_threshold_sweep.py", "--taxonomy", str(tax_path), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {tax_path}: cycle detected through concept 'a'\n"
