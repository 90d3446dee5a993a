"""The benchmark's traced child run works on each traced subcommand.

perfbench/tracer.py rebinds module-level names of cee (for example
``cli.corpus_report`` or ``edits.linear_sum_assignment``) with ``getattr``;
a renamed or removed name would crash every traced benchmark run. An import
that ``src/cee`` keeps only for the tracer (``# noqa: F401``) must be one the
tracer rebinds.
"""

import ast
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


def test_traced_story_run_reaches_frame_csed_through_story(tmp_path):
    # the golden pair has 4 frames: 4 story-loss frames and 3 consistency steps;
    # the tracer counts only the calls made through story's own binding
    totals = _traced("eval-story", tmp_path)["totals"]
    assert totals["story.frame_csed"][0] == 4 + 3


@pytest.mark.parametrize("command", ["eval-story", "eval-scene", "explain"])
def test_traced_run_enters_its_command_once(command, tmp_path):
    # main looks the command up by name, so the tracer's rebinding of cli.cmd_* is the one run
    assert _traced(command, tmp_path)["totals"]["cli.command"][0] == 1


@pytest.mark.parametrize("command,files", [("eval-story", 1), ("eval-scene", 2)])
def test_traced_eval_run_writes_each_transaction_file_through_write_transactions(
    command, files, tmp_path
):
    # eval-scene writes one file per threshold, at 0.3 and 0.5 here
    totals = _traced(command, tmp_path)["totals"]
    assert totals["explain.write_transactions"][0] == files


def _pinned_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``# noqa: F401`` import in ``src/cee``: names a
    module binds only so that the tracer can rebind them there."""
    found = []
    for path in sorted((ROOT / "src" / "cee").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [(path.stem, alias.asname or alias.name) for alias in node.names
                          if "# noqa: F401" in lines[alias.lineno - 1]]
    return sorted(found)


def test_tracer_rebinds_every_import_kept_only_for_it():
    pinned = _pinned_imports()
    assert pinned  # the scan sees the imports it guards
    script = (
        "import importlib, json, sys\n"
        "from tracer import Tracer\n"
        "pinned = json.loads(sys.argv[1])\n"
        "mods = {m: importlib.import_module('cee.' + m) for m, _ in pinned}\n"
        "before = [getattr(mods[m], name) for m, name in pinned]\n"
        "Tracer().install()\n"
        "print(json.dumps([f'{m}.{name}' for (m, name), old in zip(pinned, before)\n"
        "                  if getattr(mods[m], name) is old]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(pinned)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []  # a name here is imported for nothing
