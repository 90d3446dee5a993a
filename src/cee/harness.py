"""Synthetic story/scene generation and a corruption harness.

The harness plants known defects into clean stories and predicts the exact
loss impact through an independent route: under a flattened cost profile the
optimal frame alignment decomposes into an object-level assignment over
attribute hamming distances, so expected values never touch the edit engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .edits import ConceptMultiset
from .errors import SpecOutOfRange
from .story import ATTRIBUTES, N_CONCEPTS, ClevrObject, Story, StoryMetrics
from .scene import DetectionRecord
from .taxonomy import REPLACE_SHORTEST_PATH, CostConfig, Taxonomy

SIZES = ("large", "small")
COLORS = ("blue", "brown", "cyan", "gray", "green", "purple", "red", "yellow")
MATERIALS = ("metallic", "rubber")
SHAPES = ("cube", "cylinder", "sphere")
VOCABULARY = {
    "size": SIZES,
    "color": COLORS,
    "material": MATERIALS,
    "shape": SHAPES,
}

ATTR_REPLACE = "attr_replace"
ATTR_DRIFT = "attr_drift"
OBJECT_DROP = "object_drop"
OBJECT_ADD = "object_add"
CORRUPTION_KINDS = (ATTR_REPLACE, ATTR_DRIFT, OBJECT_DROP, OBJECT_ADD)


def random_object(rng: random.Random) -> ClevrObject:
    return ClevrObject(
        size=rng.choice(SIZES),
        color=rng.choice(COLORS),
        material=rng.choice(MATERIALS),
        shape=rng.choice(SHAPES),
    )


def generate_story(
    length: int = 4,
    rng: random.Random | None = None,
    seed: int | None = None,
    story_id: str = "story-0",
) -> Story:
    """Clean cumulative story: frame k shows the first k sampled objects."""
    if length < 1:
        raise ValueError("story length must be at least 1")
    if rng is None:
        rng = random.Random(seed)
    objects = [random_object(rng) for _ in range(length)]
    frames = [list(objects[: k + 1]) for k in range(length)]
    return Story(id=story_id, frames=frames)


def golden_story_pair() -> tuple[Story, Story]:
    """Reference generated/ground-truth pair with hand-checked losses.

    Ground truth introduces one object per frame; the generated story gets
    the first object's material wrong everywhere and the fourth object's
    shape wrong. Under the default flattened profile: per-frame CSED
    [2, 2, 2, 4], SL 10, Avg SL 2.5, CL trace [0, 4, 8, 12], Avg CL 0.
    """
    gt_objects = [
        ClevrObject("small", "brown", "metallic", "sphere"),
        ClevrObject("small", "brown", "metallic", "sphere"),
        ClevrObject("large", "blue", "rubber", "cube"),
        ClevrObject("large", "blue", "metallic", "cylinder"),
    ]
    gen_objects = [
        replace(gt_objects[0], material="rubber"),
        gt_objects[1],
        gt_objects[2],
        replace(gt_objects[3], shape="sphere"),
    ]
    gt = Story(id="golden", frames=[gt_objects[: k + 1] for k in range(4)])
    gen = Story(id="golden", frames=[gen_objects[: k + 1] for k in range(4)])
    return gen, gt


@dataclass(frozen=True)
class CorruptionOp:
    """One planted defect.

    attr_replace: newest object of frame `frame` gets `attribute` = `value`.
    attr_drift:   first object of frame `frame` (frame >= 2) gets it instead.
    object_drop:  newest object removed from frame `frame`.
    object_add:   `obj` appended to frame `frame`.
    """

    kind: str
    frame: int
    attribute: str | None = None
    value: str | None = None
    obj: ClevrObject | None = None

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind: {self.kind!r}")
        if self.kind in (ATTR_REPLACE, ATTR_DRIFT):
            if self.attribute not in ATTRIBUTES:
                raise ValueError(f"corruption needs a valid attribute, got {self.attribute!r}")
            if not self.value:
                raise ValueError("attribute corruption needs a replacement value")
        if self.kind == OBJECT_ADD and self.obj is None:
            raise ValueError("object_add needs the object to insert")


@dataclass(frozen=True)
class CorruptionSpec:
    ops: tuple[CorruptionOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))

    def validate(self, length: int) -> None:
        frames = sorted(op.frame for op in self.ops)
        for op in self.ops:
            if not 1 <= op.frame <= length:
                raise SpecOutOfRange(
                    f"frame {op.frame} outside story of length {length}"
                )
            if op.kind == ATTR_DRIFT and op.frame < 2:
                raise SpecOutOfRange("attr_drift only applies from frame 2 onward")
        for a, b in zip(frames, frames[1:]):
            if a == b:
                raise SpecOutOfRange(f"two corruptions target frame {a}")
            if b - a == 1:
                raise SpecOutOfRange(
                    f"corruptions on adjacent frames {a} and {b} interact"
                )


@dataclass(frozen=True)
class ExpectedImpact:
    """Losses the evaluator must report for the corrupted story."""

    sl_delta: float
    cl_trace: tuple[float, ...]
    cl_flags: frozenset[int]
    avg_cl: float


def recovery_mismatch(m: StoryMetrics, impact: ExpectedImpact) -> str | None:
    """None when the evaluator's SL, CL trace, flags and Avg CL all equal the
    prediction, else each measured value against its predicted one."""
    trace = list(impact.cl_trace)
    if (m.sl != impact.sl_delta or m.cl_per_frame != trace
            or m.cl_flags != impact.cl_flags or m.avg_cl != impact.avg_cl):
        return (f"SL {m.sl} vs {impact.sl_delta}, CL trace {m.cl_per_frame} vs {trace}, "
                f"flags {sorted(m.cl_flags)} vs {sorted(impact.cl_flags)}, "
                f"Avg CL {m.avg_cl} vs {impact.avg_cl}")
    return None


def leaf_fix_cost(cfg: CostConfig) -> float:
    """Cheapest way to turn one wrong attribute leaf into the right one.

    Replacement within a category traverses two edges; the fallback is a
    flattened delete plus insert. The evaluator picks whichever is cheaper.
    """
    via_delete = cfg.delete_weight + cfg.insert_weight
    if cfg.replace_mode == REPLACE_SHORTEST_PATH:
        return min(2.0 * cfg.unit_edge_cost, via_delete)
    return via_delete


def _hamming(a: ClevrObject, b: ClevrObject) -> int:
    return sum(
        1 for attr in ATTRIBUTES if getattr(a, attr) != getattr(b, attr)
    )


def _frame_cost(
    gen: list[ClevrObject], target: list[ClevrObject], cfg: CostConfig
) -> float:
    """Exact flattened frame-to-frame cost without the edit engine.

    Surplus objects are deleted attribute by attribute, missing ones
    inserted, and the survivors pair up through a min-cost assignment over
    hamming distances; pairing is never worse than a delete/insert round
    trip because the per-attribute fix cost is bounded by it.

    The assignment is scipy's, not the engine's, so the prediction stays
    independent. numpy and scipy are imported on the first call, so only the
    commands that reach the harness (gen-synthetic, selftest) load them.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    n, m = len(gen), len(target)
    cost = N_CONCEPTS * cfg.delete_weight * max(n - m, 0)
    cost += N_CONCEPTS * cfg.insert_weight * max(m - n, 0)
    if n and m:
        grid = np.array(
            [[_hamming(g, t) for t in target] for g in gen], dtype=float
        )
        rows, cols = linear_sum_assignment(grid)
        cost += leaf_fix_cost(cfg) * float(grid[rows, cols].sum())
    return cost


def _first_frame_penalty(frame: list[ClevrObject]) -> float:
    return float(abs(N_CONCEPTS * len(frame) - N_CONCEPTS))


def corrupt(
    story: Story, spec: CorruptionSpec, cfg: CostConfig
) -> tuple[Story, ExpectedImpact]:
    """Apply `spec` to a clean story and predict the exact loss impact.

    `story` must be internally consistent (cumulative frames); the returned
    impact assumes it is also the ground truth, so `sl_delta` is the full SL
    of the corrupted story. Only flattened profiles keep the object-level
    decomposition exact.
    """
    if not cfg.flattened:
        raise ValueError("corruption analytics require a flattened cost profile")
    spec.validate(story.length)
    frames = [list(frame) for frame in story.frames]
    for op in spec.ops:
        frame = frames[op.frame - 1]
        if op.kind == ATTR_REPLACE:
            frame[-1] = replace(frame[-1], **{op.attribute: op.value})
        elif op.kind == ATTR_DRIFT:
            frame[0] = replace(frame[0], **{op.attribute: op.value})
        elif op.kind == OBJECT_DROP:
            frame.pop()
        else:
            frame.append(op.obj)
    corrupted = Story(id=story.id, frames=frames)

    sl_delta = sum(
        _frame_cost(frames[k], story.frames[k], cfg) for k in range(story.length)
    )
    trace = [_first_frame_penalty(frames[0])]
    for k in range(1, story.length):
        trace.append(trace[-1] + _frame_cost(frames[k], frames[k - 1], cfg))
    ideal_step = N_CONCEPTS * cfg.delete_weight
    flags = set()
    if trace[0] != 0.0:
        flags.add(1)
    violations = 0
    for k in range(2, story.length + 1):
        if trace[k - 1] != ideal_step * (k - 1):
            flags.add(k)
            violations += 1
    avg_cl = trace[0] / story.length + violations / story.length
    return corrupted, ExpectedImpact(
        sl_delta=sl_delta,
        cl_trace=tuple(trace),
        cl_flags=frozenset(flags),
        avg_cl=avg_cl,
    )


def _mutated_value(rng: random.Random, obj: ClevrObject, attribute: str) -> str:
    current = getattr(obj, attribute)
    return rng.choice([v for v in VOCABULARY[attribute] if v != current])


def random_spec(
    rng: random.Random, story: Story, max_ops: int = 2
) -> CorruptionSpec:
    """Valid random spec: one op per frame, never on adjacent frames."""
    if max_ops < 1:
        raise SpecOutOfRange(f"max_ops must be at least 1, got {max_ops}")
    length = story.length
    candidates = list(range(1, length + 1))
    rng.shuffle(candidates)
    chosen: list[int] = []
    budget = min(max_ops, (length + 1) // 2)
    n_ops = rng.randint(1, budget)
    for frame in candidates:
        if len(chosen) == n_ops:
            break
        if all(abs(frame - f) >= 2 for f in chosen):
            chosen.append(frame)
    ops = []
    for frame in sorted(chosen):
        kinds = list(CORRUPTION_KINDS)
        if frame < 2:
            kinds.remove(ATTR_DRIFT)
        kind = rng.choice(kinds)
        if kind in (ATTR_REPLACE, ATTR_DRIFT):
            index = -1 if kind == ATTR_REPLACE else 0
            target = story.frames[frame - 1][index]
            attribute = rng.choice(ATTRIBUTES)
            ops.append(
                CorruptionOp(
                    kind=kind,
                    frame=frame,
                    attribute=attribute,
                    value=_mutated_value(rng, target, attribute),
                )
            )
        elif kind == OBJECT_ADD:
            ops.append(CorruptionOp(kind=kind, frame=frame, obj=random_object(rng)))
        else:
            ops.append(CorruptionOp(kind=kind, frame=frame))
    return CorruptionSpec(ops=tuple(ops))


def random_taxonomy(
    rng: random.Random, n_nodes: int = 20, prefix: str = "n"
) -> Taxonomy:
    """Random rooted tree; every non-root node hangs off an earlier one."""
    if n_nodes < 2:
        raise ValueError("need at least a root and one concept")
    names = [f"{prefix}{i:02d}" for i in range(n_nodes)]
    parents = {
        names[i]: frozenset({names[rng.randrange(i)]}) for i in range(1, n_nodes)
    }
    return Taxonomy(root=names[0], parents=parents)


def random_multiset(
    rng: random.Random, tax: Taxonomy, max_size: int = 6
) -> ConceptMultiset:
    pool = sorted(tax.nodes - {tax.root})
    size = rng.randint(0, max_size)
    return ConceptMultiset(rng.choice(pool) for _ in range(size))


def random_scene_corpus(
    rng: random.Random,
    tax: Taxonomy,
    n_images: int = 12,
    max_detections: int = 8,
) -> tuple[dict[str, list[DetectionRecord]], dict[str, ConceptMultiset]]:
    """Detections with random confidences plus non-empty target sets."""
    pool = sorted(tax.nodes - {tax.root})
    detections: dict[str, list[DetectionRecord]] = {}
    targets: dict[str, ConceptMultiset] = {}
    for i in range(n_images):
        image_id = f"img-{i:03d}"
        detections[image_id] = [
            DetectionRecord(
                image_id=image_id,
                concept=rng.choice(pool),
                confidence=rng.random(),
            )
            for _ in range(rng.randint(0, max_detections))
        ]
        targets[image_id] = ConceptMultiset(
            rng.choice(pool) for _ in range(rng.randint(1, 4))
        )
    return detections, targets
