"""Seeded inputs for the benchmark workloads.

Each workload's inputs are a function of its parameters in
``workloads.json`` and the seed: the same seed writes byte-identical files.
The program under test only ever sees the files written here. The explain
input is the program's own output: the transactions ``cee eval-scene``
writes on the scene workload's inputs for the same seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from cee.cli import main as cee_main
from cee.harness import random_scene_corpus, random_taxonomy
from cee.taxonomy import resolve_taxonomy

SPECS = json.loads(Path(__file__).with_name("workloads.json").read_text(encoding="utf-8"))
CANARY_SEED = SPECS["canary_seed"]
WORKLOADS = tuple(SPECS["workloads"])


@dataclass(frozen=True)
class Inputs:
    """Generated files plus what the run and the checks need to know."""

    workload: str
    seed: int
    params: dict
    dir: Path
    argv: tuple[str, ...]  # cee arguments, without --out-dir
    items: tuple  # item keys: story ids, (image id, threshold) or "td<threshold>/<image id>"


def generate(workload: str, seed: int, out: Path, canary: bool = False) -> Inputs:
    spec = SPECS["workloads"][workload]
    params = spec["canary" if canary else "params"]
    out.mkdir(parents=True, exist_ok=True)
    if workload == "story":
        argv, items = _story(params, seed, out)
    elif workload == "explain":
        argv, items = _explain(params, seed, out, canary)
    else:
        argv, items = _scene(workload, params, seed, out)
    return Inputs(workload, seed, params, out, tuple(argv), tuple(items))


def _cee(argv: list[str]) -> None:
    """Run a cee subcommand in this process, quietly."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cee_main(argv)
    if rc != 0:
        raise RuntimeError(f"cee {argv[0]} exited with {rc}")


def _story(params: dict, seed: int, out: Path):
    profile = ["--taxonomy", "clevr", "--cost-profile", "flattened"]
    _cee(["gen-synthetic", *profile, "--seed", str(seed), "--out-dir", str(out),
          "--n-stories", str(params["n_stories"]), "--length", str(params["length"]),
          "--max-ops", str(params["max_ops"])])
    argv = ["eval-story", str(out / "generated.jsonl"), str(out / "ground_truth.jsonl"), *profile]
    items = [f"story-{i:04d}" for i in range(params["n_stories"])]
    return argv, items


def _scene(workload: str, params: dict, seed: int, out: Path):
    rng = random.Random(seed)
    if workload == "bigtax":
        tax = random_taxonomy(rng, n_nodes=params["n_nodes"])
        taxonomy = str(out / "big.tax")
        Path(taxonomy).write_text(tax.to_text(), encoding="utf-8")
    else:
        taxonomy = "street"
        tax = resolve_taxonomy(taxonomy)
    detections, targets = random_scene_corpus(
        rng, tax, n_images=params["n_images"], max_detections=params["max_detections"]
    )
    with open(out / "detections.jsonl", "w", encoding="utf-8") as f:
        for image_id in sorted(detections):
            dets = [{"concept": d.concept, "confidence": d.confidence} for d in detections[image_id]]
            f.write(json.dumps({"image_id": image_id, "detections": dets}) + "\n")
    with open(out / "targets.jsonl", "w", encoding="utf-8") as f:
        for image_id in sorted(targets):
            f.write(json.dumps({"image_id": image_id, "concepts": list(targets[image_id])}) + "\n")
    argv = ["eval-scene", str(out / "detections.jsonl"), str(out / "targets.jsonl"),
            "--taxonomy", taxonomy, "--cost-profile", "path"]
    for t in params["thresholds"]:
        argv += ["--threshold", str(t)]
    items = [(i, t) for t in params["thresholds"] for i in sorted(targets)]
    return argv, items


def _explain(params: dict, seed: int, out: Path, canary: bool):
    # The transactions `cee eval-scene` writes on the scene workload's inputs
    # for this seed, its per-threshold files pooled in threshold order.
    scene = SPECS["workloads"]["scene"]["canary" if canary else "params"]
    tmp = out / "scene"
    (tmp / "in").mkdir(parents=True)
    scene_argv, _ = _scene("scene", scene, seed, tmp / "in")
    _cee([*scene_argv, "--out-dir", str(tmp / "out")])
    items = []
    with open(out / "transactions.jsonl", "w", encoding="utf-8") as f:
        for t in scene["thresholds"]:
            text = (tmp / "out" / f"transactions_td{t}.jsonl").read_text(encoding="utf-8")
            f.write(text)
            items += [f"td{t}/{json.loads(line)['id']}" for line in text.splitlines()]
    shutil.rmtree(tmp)
    argv = ["explain", str(out / "transactions.jsonl"), "--min-support", str(params["min_support"])]
    return argv, items
