"""The benchmark's traced child run works on each traced subcommand.

perfbench/tracer.py rebinds module-level names of cee (for example
``cli.corpus_report`` or ``edits.linear_sum_assignment``) with ``getattr``;
a renamed or removed name would crash every traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cee.harness import golden_story_pair
from cee.story import write_stories

ROOT = Path(__file__).resolve().parent.parent


def _inputs(tmp_path):
    gen, gt = golden_story_pair()
    write_stories(tmp_path / "gen.jsonl", [gen])
    write_stories(tmp_path / "gt.jsonl", [gt])
    (tmp_path / "det.jsonl").write_text(
        '{"image_id": "a", "detections": [{"concept": "traffic light", "confidence": 0.9},'
        ' {"concept": "car", "confidence": 0.4}]}\n',
        encoding="utf-8",
    )
    (tmp_path / "tgt.jsonl").write_text(
        '{"image_id": "a", "concepts": ["light", "person"]}\n', encoding="utf-8"
    )
    (tmp_path / "tx.jsonl").write_text(
        '{"edits": ["R:rubber→metallic", "D:car"], "id": "s1"}\n'
        '{"edits": ["R:rubber→metallic"], "id": "s2"}\n',
        encoding="utf-8",
    )
    return {
        "eval-story": ["eval-story", "gen.jsonl", "gt.jsonl"],
        "eval-scene": ["eval-scene", "det.jsonl", "tgt.jsonl", "--taxonomy", "street",
                       "--cost-profile", "path", "--threshold", "0.3", "--threshold", "0.5"],
        "explain": ["explain", "tx.jsonl", "--min-support", "0.5"],
    }


def _traced(command, tmp_path):
    """The trace of ``perfbench/child.py`` running ``command`` on the inputs above."""
    argv = _inputs(tmp_path)[command]
    argv = [str(tmp_path / a) if a.endswith(".jsonl") else a for a in argv]
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(report), "1",
         *argv, "--out-dir", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text(encoding="utf-8"))["trace"]


@pytest.mark.parametrize("command", ["eval-story", "eval-scene", "explain"])
def test_traced_child_run_reports_a_trace(command, tmp_path):
    assert "totals" in _traced(command, tmp_path)


def test_traced_scene_run_builds_and_solves_each_threshold_once(tmp_path):
    # one image at two thresholds: one join and one script per (image, threshold)
    totals = _traced("eval-scene", tmp_path)["totals"]  # span name -> [calls, s, self s]
    assert totals["scene.build_samples"][0] == 2
    assert totals["scene.scene_csed"][0] == 2
