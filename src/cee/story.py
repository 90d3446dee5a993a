"""CLEVR-style objects and stories, their reader, and the story losses.

Faithfulness (story loss, SL) sums the costs of the frame scripts that
``edits.frame_csed`` solves against the ground-truth frames. Consistency (CL)
compares each generated frame against its predecessor: the ideal cumulative
trace grows by one whole object (|C| concepts) per frame; a deviation flags it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .edits import ConceptMultiset, EditOp, EditScript, frame_csed
# unused here, but perfbench/tracer.py wraps this name on this module
from .edits import csed  # noqa: F401
from .errors import (
    EmptyCorpus,
    EmptyStory,
    LengthMismatch,
    MalformedObject,
    UncategorizedConcept,
    _read_jsonl,
)
from .taxonomy import FLATTENED_CONFIG, CostConfig, Taxonomy, normalize_concept

ATTRIBUTES = ("size", "color", "material", "shape")
N_CONCEPTS = len(ATTRIBUTES)
_raw_key = itemgetter(*ATTRIBUTES)  # a raw object's attribute values, in one call


@dataclass(frozen=True)
class ClevrObject:
    """One object as its four attribute concepts, and their multiset."""

    size: str
    color: str
    material: str
    shape: str
    multiset: ConceptMultiset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for attr in ATTRIBUTES:
            object.__setattr__(self, attr, normalize_concept(getattr(self, attr)))
        object.__setattr__(self, "multiset", ConceptMultiset._from_normalized(self.concepts()))

    def concepts(self) -> tuple[str, str, str, str]:
        return (self.size, self.color, self.material, self.shape)

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


def read_stories(path: str | Path, tax: Taxonomy) -> list[Story]:
    """Stories of ``path``; every object passes ``validate_object`` against ``tax``.

    Objects are interned per taxonomy, in ``tax.objects``: equal raw
    attribute values share one ``ClevrObject``, built and validated once,
    across every file read against ``tax``. A line's new objects join the
    table only once the whole line is built and they all pass."""
    interned = tax.objects

    def build(story_id: str, raw_frames: list) -> Story:
        if not raw_frames:
            raise MalformedObject("a story needs at least one frame, got 'frames': []")
        # every object of the line is built before any is validated
        fresh: dict[tuple, ClevrObject] = {}
        frames = []
        for k, frame in enumerate(raw_frames, start=1):
            if not isinstance(frame, list):
                raise MalformedObject(
                    f"frame {k} must be a list of objects, got {type(frame).__name__}"
                )
            objects = []
            for raw in frame:
                try:
                    key = _raw_key(raw)
                    obj = interned.get(key) or fresh.get(key)
                except (KeyError, TypeError):  # not an attribute mapping, or unhashable values
                    key = obj = None
                if obj is None:
                    if not isinstance(raw, dict):  # checked on a miss: only a JSON object can hit
                        raise MalformedObject(
                            f"frame {k} must be a list of objects, got {type(raw).__name__} in it"
                        )
                    # a raw object with no key fails here, so None never keys an object
                    obj = fresh[key] = ClevrObject.from_dict(raw)
                objects.append(obj)
            frames.append(objects)
        for obj in fresh.values():
            validate_object(obj, tax)
        interned.update(fresh)
        return Story(id=story_id, frames=frames)

    return _read_jsonl(path, "id", "frames", build, unique="story")


def write_stories(path: str | Path, stories: Iterable[Story]) -> None:
    text = "".join(story.to_json() + "\n" for story in stories)
    Path(path).write_text(text, encoding="utf-8")


def validate_object(obj: ClevrObject, tax: Taxonomy) -> None:
    """Each attribute value must live under the category named like its slot."""
    if not isinstance(obj, ClevrObject):
        raise MalformedObject(f"expected ClevrObject, got {type(obj).__name__}")
    for attr in ATTRIBUTES:
        validate_attribute(attr, getattr(obj, attr), tax)


def validate_attribute(attr: str, value: str, tax: Taxonomy) -> None:
    category = tax.category_of(value)
    if category != attr:
        raise MalformedObject(
            f"attribute {value!r} resolves to category {category!r}, expected {attr!r}"
        )


def story_loss(
    gen: Story,
    gt: Story,
    tax: Taxonomy,
    cfg: CostConfig = FLATTENED_CONFIG,
) -> tuple[list[EditScript], float, float]:
    """Per-frame scripts, SL (their cost sum), and Avg SL (SL / L).
    Objects are expected to have passed ``validate_object``."""
    if gen.length != gt.length:
        raise LengthMismatch(gen.id, gen.length, gt.length)
    if gen.length == 0:
        raise EmptyStory(gen.id)
    scripts = [
        frame_csed(gen_frame, gt_frame, tax, cfg)
        for gen_frame, gt_frame in zip(gen.frames, gt.frames)
    ]
    sl = float(sum(s.total_cost for s in scripts))
    return scripts, sl, sl / gen.length


def consistency_loss(
    gen: Story,
    tax: Taxonomy,
    cfg: CostConfig = FLATTENED_CONFIG,
) -> tuple[list[float], frozenset[int], float]:
    """Cumulative CL trace, the 1-based frames flagged inconsistent, and Avg CL.

    A perfectly consistent story adds one whole object (|C| concepts) per
    frame, so its trace reads ``N_CONCEPTS * cfg.delete_weight * k`` at index
    k; a later frame whose trace leaves that path is flagged, and frame 1 is
    flagged when its own object count is off. Ground truth plays no part here.
    Objects are expected to have passed ``validate_object``."""
    if gen.length == 0:
        raise EmptyStory(gen.id)
    p1 = float(abs(N_CONCEPTS * len(gen.frames[0]) - N_CONCEPTS))
    trace = [p1]
    for k in range(1, gen.length):
        step = frame_csed(gen.frames[k], gen.frames[k - 1], tax, cfg).total_cost
        trace.append(trace[-1] + step)
    ideal_step = N_CONCEPTS * cfg.delete_weight
    violations = {k + 1 for k in range(1, gen.length) if trace[k] != ideal_step * k}
    flags = frozenset(violations | {1} if p1 else violations)
    avg_cl = p1 / gen.length + len(violations) / gen.length
    return trace, flags, avg_cl


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
                touches[cat][frame_idx] += 1
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


def evaluate_story(
    gen: Story,
    gt: Story,
    tax: Taxonomy,
    cfg: CostConfig = FLATTENED_CONFIG,
) -> StoryMetrics:
    """Objects are expected to have passed ``validate_object``, as
    ``read_stories`` does."""
    scripts, sl, avg_sl = story_loss(gen, gt, tax, cfg)
    trace, flags, avg_cl = consistency_loss(gen, tax, cfg)
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
