"""Every imported name is used, unless its import line says ``# noqa: F401``;
the package exports only names with a caller; only ``cee.edits`` holds the
solvers' internals; README's quickstart and its experiment pipeline run."""

import ast
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import cee

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _sources():
    for folder in ("src/cee", "tests"):
        yield from sorted((ROOT / folder).rglob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported: dict[str, int] = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path == ROOT / "src/cee/__init__.py":
        used |= set(cee.__all__)  # the package's imports are its exports
    rel = path.relative_to(ROOT).as_posix()
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    unused = [entry for path in _sources() for entry in _unused_imports(path)]
    assert unused == []


def test_no_process_wide_memo():
    # solve state lives on a taxonomy's cost model, never in a module-level cache
    found = []
    for path in sorted((ROOT / "src/cee").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "functools":
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name in ("lru_cache", "cache")]
    assert found == []


SOLVER_INTERNALS = {"_assign", "linear_sum_assignment", "_TIE_EPS", "_DIRECT_LIMIT", "_LOWEST_PRICE"}


def _private_reach(node: ast.AST) -> list[str]:
    """Solver internals ``node`` names, and private names of ``cee.edits`` or
    ``cee.taxonomy`` that it imports or reads off either module."""
    if isinstance(node, ast.ImportFrom):
        owner = (node.module or "").rpartition(".")[2]
        return [alias.name for alias in node.names if alias.name in SOLVER_INTERNALS
                or (owner in ("edits", "taxonomy") and alias.name.startswith("_"))]
    if isinstance(node, ast.Attribute):
        owner = getattr(node.value, "id", "")
        private = owner in ("edits", "taxonomy") and node.attr.startswith("_")
        return [node.attr] if private or node.attr in SOLVER_INTERNALS else []
    if isinstance(node, ast.Name) and node.id in SOLVER_INTERNALS:
        return [node.id]
    return []


def test_only_edits_holds_solver_internals():
    # edits owns every solve, at both levels: object scripts and story frames
    found = []
    for path in sorted((ROOT / "src/cee").glob("*.py")):
        if path.name != "edits.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                found += [f"{path.name}:{node.lineno}: {name}" for name in _private_reach(node)]
    assert found == []


def test_exports_are_public_names_that_resolve():
    assert cee.__all__
    for name in cee.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(cee, name), types.ModuleType), name
    namespace: dict = {}
    exec("from cee import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cee.__all__)


def test_every_export_has_a_caller():
    # README names it, callers catch it, or README tells library code to build
    # it (ClevrObject)
    documented = set(re.findall(r"\w+", README))
    for name in cee.__all__:
        value = getattr(cee, name)
        assert (
            name in documented
            or (isinstance(value, type) and issubclass(value, Exception))
            or name == "ClevrObject"
        ), name


def test_readme_quickstart_runs_as_written(tmp_path):
    block = README.split("## Python quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = "".join(line[2:] + "\n" for line in block.splitlines() if line.startswith("# "))
    assert expected
    proc = subprocess.run(
        [sys.executable, "-c", block], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_readme_experiment_pipeline_runs_as_written(tmp_path):
    block = README.split("## Experiments", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["cee", "gen-synthetic"], ["cee", "eval-story"], ["cee", "explain"], ["cee", "selftest"],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "cee.cli", *argv[1:]],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
    out = tmp_path / "out" / "synthetic_story"
    for name in ("generated.jsonl", "ground_truth.jsonl", "manifest.json",
                 "story_metrics.csv", "transactions.jsonl", "rules.csv"):
        assert (out / name).is_file(), name
    assert proc.stdout.endswith("3 passed, 0 failed, 0 skipped\n")
