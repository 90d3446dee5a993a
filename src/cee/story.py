"""Story-level faithfulness and consistency metrics for CLEVR-style frames.

Faithfulness (story loss, SL) sums per-frame edit script costs between the
generated and ground-truth frames. Consistency (CL) compares each generated
frame against its own predecessor: the ideal cumulative trace grows by one
whole object (|C| concepts) per frame, and any deviation flags the frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .edits import DELETE, INSERT, ConceptMultiset, EditOp, EditScript, _assign, csed
from .errors import (
    EmptyCorpus,
    EmptyStory,
    LengthMismatch,
    MalformedObject,
    UncategorizedConcept,
)
from .taxonomy import (
    FLATTENED_CONFIG,
    CostConfig,
    Taxonomy,
    delete_cost,
    insert_cost,
    normalize_concept,
)

ATTRIBUTES = ("size", "color", "material", "shape")
N_CONCEPTS = len(ATTRIBUTES)


@dataclass(frozen=True)
class ClevrObject:
    """One object as its four attribute concepts."""

    size: str
    color: str
    material: str
    shape: str

    def __post_init__(self):
        for attr in ATTRIBUTES:
            object.__setattr__(self, attr, normalize_concept(getattr(self, attr)))

    def concepts(self) -> tuple[str, str, str, str]:
        return (self.size, self.color, self.material, self.shape)

    def multiset(self) -> ConceptMultiset:
        return ConceptMultiset(self.concepts())

    @classmethod
    def from_dict(cls, record: Mapping[str, str]) -> "ClevrObject":
        missing = [a for a in ATTRIBUTES if a not in record]
        if missing:
            raise MalformedObject(f"object record missing attributes {missing}: {record!r}")
        return cls(**{a: record[a] for a in ATTRIBUTES})

    def to_dict(self) -> dict[str, str]:
        return {a: getattr(self, a) for a in ATTRIBUTES}


@dataclass
class Story:
    id: str
    frames: list[list[ClevrObject]]

    @property
    def length(self) -> int:
        return len(self.frames)

    def to_json(self) -> str:
        payload = {
            "id": self.id,
            "frames": [[obj.to_dict() for obj in frame] for frame in self.frames],
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "Story":
        record = json.loads(line)
        if "id" not in record or "frames" not in record:
            raise MalformedObject(f"story record needs 'id' and 'frames': {line[:80]!r}")
        frames = [
            [ClevrObject.from_dict(obj) for obj in frame] for frame in record["frames"]
        ]
        return cls(id=str(record["id"]), frames=frames)


def read_stories(path: str | Path) -> list[Story]:
    stories: dict[str, Story] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            story = Story.from_json(line)
            if story.id in stories:
                raise MalformedObject(f"{path}: duplicate story id {story.id!r}")
            stories[story.id] = story
    return list(stories.values())


def write_stories(path: str | Path, stories: Iterable[Story]) -> None:
    text = "".join(story.to_json() + "\n" for story in stories)
    Path(path).write_text(text, encoding="utf-8")


def validate_object(obj: ClevrObject, tax: Taxonomy) -> None:
    """Each attribute value must live under the category named like its slot."""
    if not isinstance(obj, ClevrObject):
        raise MalformedObject(f"expected ClevrObject, got {type(obj).__name__}")
    for attr in ATTRIBUTES:
        value = getattr(obj, attr)
        category = tax.category_of(value)
        if category != attr:
            raise MalformedObject(
                f"attribute {value!r} resolves to category {category!r}, expected {attr!r}"
            )


def _object_delete_cost(obj: ClevrObject, tax: Taxonomy, cfg: CostConfig) -> float:
    return float(sum(delete_cost(tax, c, cfg) for c in obj.concepts()))


def _object_insert_cost(obj: ClevrObject, tax: Taxonomy, cfg: CostConfig) -> float:
    return float(sum(insert_cost(tax, c, cfg) for c in obj.concepts()))


def frame_csed(
    gen_frame: Sequence[ClevrObject],
    gt_frame: Sequence[ClevrObject],
    tax: Taxonomy,
    cfg: CostConfig | None = None,
) -> tuple[EditScript, float]:
    """Align objects by minimum-cost assignment; object-pair cost is the
    attribute-multiset CSED. Surplus generated objects become whole-object
    deletes, missing objects whole-object inserts."""
    cfg = cfg or FLATTENED_CONFIG
    for obj in list(gen_frame) + list(gt_frame):
        validate_object(obj, tax)

    n, m = len(gen_frame), len(gt_frame)
    if n == 0 and m == 0:
        return EditScript(()), 0.0

    cache: dict[tuple[tuple[str, ...], tuple[str, ...]], EditScript] = {}
    pair_scripts = []
    for gen_obj in gen_frame:
        row = []
        for gt_obj in gt_frame:
            key = (gen_obj.concepts(), gt_obj.concepts())
            if key not in cache:
                cache[key] = csed(gen_obj.multiset(), gt_obj.multiset(), tax, cfg)
            row.append(cache[key])
        pair_scripts.append(row)
    pair = [[script.total_cost for script in row] for row in pair_scripts]
    del_costs = [_object_delete_cost(obj, tax, cfg) for obj in gen_frame]
    ins_costs = [_object_insert_cost(obj, tax, cfg) for obj in gt_frame]

    ops: list[EditOp] = []
    for i, j in _assign(pair, del_costs, ins_costs):
        if j >= m:
            ops.extend(
                EditOp(DELETE, source=c, cost=delete_cost(tax, c, cfg))
                for c in gen_frame[i].concepts()
            )
        elif i >= n:
            ops.extend(
                EditOp(INSERT, target=c, cost=insert_cost(tax, c, cfg))
                for c in gt_frame[j].concepts()
            )
        else:
            ops.extend(pair_scripts[i][j].ops)
    script = EditScript(tuple(ops))
    return script, script.total_cost


def story_loss(
    gen: Story,
    gt: Story,
    tax: Taxonomy,
    cfg: CostConfig | None = None,
) -> tuple[list[EditScript], float, float]:
    """Per-frame scripts, SL (their cost sum), and Avg SL (SL / L)."""
    if gen.length != gt.length:
        raise LengthMismatch(gen.length, gt.length)
    if gen.length == 0:
        raise EmptyStory(gen.id)
    scripts = []
    for gen_frame, gt_frame in zip(gen.frames, gt.frames):
        script, _ = frame_csed(gen_frame, gt_frame, tax, cfg)
        scripts.append(script)
    sl = float(sum(s.total_cost for s in scripts))
    return scripts, sl, sl / gen.length


def ideal_cl_trace(length: int, cfg: CostConfig | None = None) -> list[float]:
    """Cumulative CL of a perfectly consistent story: one whole object
    (|C| concepts) enters per frame."""
    cfg = cfg or FLATTENED_CONFIG
    step = N_CONCEPTS * cfg.delete_weight
    return [step * k for k in range(length)]


def consistency_loss(
    gen: Story,
    tax: Taxonomy,
    cfg: CostConfig | None = None,
) -> tuple[list[float], float]:
    """Cumulative CL trace and Avg CL. Ground truth plays no part here."""
    cfg = cfg or FLATTENED_CONFIG
    if gen.length == 0:
        raise EmptyStory(gen.id)
    p1 = float(abs(N_CONCEPTS * len(gen.frames[0]) - N_CONCEPTS))
    trace = [p1]
    for k in range(1, gen.length):
        _, step = frame_csed(gen.frames[k], gen.frames[k - 1], tax, cfg)
        trace.append(trace[-1] + step)
    ideal = ideal_cl_trace(gen.length, cfg)
    violations = sum(1 for k in range(1, gen.length) if trace[k] != ideal[k])
    avg_cl = p1 / gen.length + violations / gen.length
    return trace, avg_cl


def consistency_flags(trace: Sequence[float], cfg: CostConfig | None = None) -> frozenset[int]:
    """1-based frame indices where the trace leaves the ideal cumulative path
    (frame 1 flags when the object count itself is off)."""
    cfg = cfg or FLATTENED_CONFIG
    ideal = ideal_cl_trace(len(trace), cfg)
    flags = {k + 1 for k in range(1, len(trace)) if trace[k] != ideal[k]}
    if trace and trace[0] != 0:
        flags.add(1)
    return frozenset(flags)


def _op_categories(op: EditOp, tax: Taxonomy) -> set[str]:
    names = [n for n in (op.source, op.target) if n is not None]
    cats = set()
    for name in names:
        cat = tax.category_of(name)
        if cat is None:
            raise UncategorizedConcept(name)
        cats.add(cat)
    return cats


def semantic_loss_table(
    scripts: Iterable[tuple[int, EditScript]],
    tax: Taxonomy,
    gt_objects_per_frame: Mapping[int, int],
) -> dict[str, dict[int, float]]:
    """Percentage of edited concepts per category and frame position.

    ``scripts`` pairs a 1-based frame index with that frame's edit script,
    across all stories. ``gt_objects_per_frame`` holds the total ground-truth
    object count at each frame position summed over stories (for CLEVR-SV with
    N stories that is k*N at frame k). A Replace touches the categories of its
    endpoints once; under actionability they coincide.
    """
    frames = sorted(gt_objects_per_frame)
    touches: dict[str, dict[int, int]] = {c: {k: 0 for k in frames} for c in tax.categories}
    for frame_idx, script in scripts:
        if frame_idx not in gt_objects_per_frame:
            raise KeyError(f"no ground-truth object count for frame {frame_idx}")
        for op in script:
            for cat in _op_categories(op, tax):
                touches.setdefault(cat, {k: 0 for k in frames})[frame_idx] += 1
    table: dict[str, dict[int, float]] = {}
    for cat, row in touches.items():
        table[cat] = {
            k: (100.0 * row[k] / gt_objects_per_frame[k] if gt_objects_per_frame[k] else 0.0)
            for k in frames
        }
    return table


@dataclass
class StoryMetrics:
    story_id: str
    per_frame_csed: list[float]
    frame_scripts: list[EditScript]
    sl: float
    avg_sl: float
    cl_per_frame: list[float]
    cl: float
    avg_cl: float
    cl_flags: frozenset[int]
    semantic_losses: dict[str, int]


def evaluate_story(
    gen: Story,
    gt: Story,
    tax: Taxonomy,
    cfg: CostConfig | None = None,
) -> StoryMetrics:
    cfg = cfg or FLATTENED_CONFIG
    scripts, sl, avg_sl = story_loss(gen, gt, tax, cfg)
    trace, avg_cl = consistency_loss(gen, tax, cfg)
    flags = consistency_flags(trace, cfg)
    losses: dict[str, int] = {c: 0 for c in tax.categories}
    for script in scripts:
        for op in script:
            for cat in _op_categories(op, tax):
                losses[cat] = losses.get(cat, 0) + 1
    return StoryMetrics(
        story_id=gen.id,
        per_frame_csed=[s.total_cost for s in scripts],
        frame_scripts=scripts,
        sl=sl,
        avg_sl=avg_sl,
        cl_per_frame=trace,
        cl=trace[-1],
        avg_cl=avg_cl,
        cl_flags=flags,
        semantic_losses=losses,
    )


@dataclass(frozen=True)
class GlobalMetrics:
    n_stories: int
    gsl: float
    avg_gsl: float
    gcl: float
    avg_gcl: float


def global_aggregate(per_story: Sequence[StoryMetrics]) -> GlobalMetrics:
    if not per_story:
        raise EmptyCorpus("no stories to aggregate")
    n = len(per_story)
    gsl = float(sum(s.sl for s in per_story))
    gcl = float(sum(s.cl for s in per_story))
    avg_gcl = float(sum(s.avg_cl for s in per_story)) / n
    return GlobalMetrics(n_stories=n, gsl=gsl, avg_gsl=gsl / n, gcl=gcl, avg_gcl=avg_gcl)
