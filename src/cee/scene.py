"""Scene-level evaluation: threshold-gated detector concepts vs. caption
concepts, per image, plus threshold-sweep census reports."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .edits import Census, ConceptMultiset, EditScript, csed, format_cost, operation_census
from .errors import EmptyCorpus, MalformedObject, _read_jsonl
from .taxonomy import CostConfig, PATH_CONFIG, Taxonomy
# unused here, but perfbench/tracer.py wraps this name on this module
from .taxonomy import normalize_concept  # noqa: F401

CENSUS_COLUMNS = (
    "threshold",
    "n_insert", "cost_insert",
    "n_delete", "cost_delete",
    "n_replace", "cost_replace",
    "mean_csed",
)
CENSUS_HEADER = ",".join(CENSUS_COLUMNS)


@dataclass(frozen=True)
class DetectionRecord:
    """One detection, filed under its image id by the reader; ``concept`` is
    taken as ``Taxonomy.resolve`` returns it."""

    concept: str
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class SceneSample:
    image_id: str
    generated: ConceptMultiset
    target: ConceptMultiset

    def __post_init__(self):
        if len(self.target) == 0:
            raise ValueError(f"image {self.image_id!r}: target concept set is empty")


def _check_threshold(t_d: float) -> float:
    if not 0.0 <= t_d <= 1.0:
        raise ValueError(f"threshold {t_d} outside [0, 1]")
    return float(t_d)


def scene_csed(sample: SceneSample, tax: Taxonomy, cfg: CostConfig = PATH_CONFIG) -> EditScript:
    return csed(sample.generated, sample.target, tax, cfg)


def build_samples(
    detections: Mapping[str, Sequence[DetectionRecord]],
    targets: Mapping[str, ConceptMultiset],
    t_d: float,
) -> list[SceneSample]:
    """Join detections and targets on image id at one threshold, sorted by
    id; ids on one side only are left out (the CLI reports them). Each
    sample's generated multiset holds the concepts detected with confidence
    >= ``t_d``, and may be empty."""
    _check_threshold(t_d)
    return [
        SceneSample(
            image_id=i,
            generated=ConceptMultiset._from_normalized(
                rec.concept for rec in detections[i] if rec.confidence >= t_d
            ),
            target=targets[i],
        )
        for i in sorted(detections.keys() & targets.keys())
    ]


def solve_thresholds(
    detections: Mapping[str, Sequence[DetectionRecord]],
    targets: Mapping[str, ConceptMultiset],
    thresholds: Iterable[float],
    tax: Taxonomy,
    cfg: CostConfig = PATH_CONFIG,
) -> Iterator[tuple[float, list[SceneSample], list[EditScript]]]:
    """``build_samples`` and their ``scene_csed`` scripts, one threshold at a
    time. Thresholds are deduplicated and yielded in ascending order, and all
    of them are checked before the first is solved."""
    ts = sorted({_check_threshold(t) for t in thresholds})
    if not ts:
        raise ValueError("no thresholds given")
    if not detections.keys() & targets.keys():
        raise EmptyCorpus("no image ids shared between detections and targets")
    for t_d in ts:
        samples = build_samples(detections, targets, t_d)
        yield t_d, samples, [scene_csed(s, tax, cfg) for s in samples]


def corpus_report(
    detections: Mapping[str, Sequence[DetectionRecord]],
    targets: Mapping[str, ConceptMultiset],
    thresholds: Iterable[float],
    tax: Taxonomy,
    cfg: CostConfig = PATH_CONFIG,
) -> list[tuple[float, Census]]:
    """One operation census per threshold over the joined corpus, in
    ascending threshold order."""
    solved = solve_thresholds(detections, targets, thresholds, tax, cfg)
    return [(t_d, operation_census(scripts)) for t_d, _, scripts in solved]


def census_rows(rows: Iterable[tuple[float, Census]]) -> list[list[str]]:
    """Census report rows as text cells, in ``CENSUS_COLUMNS`` order."""
    return [
        [
            format_cost(t_d),
            str(census.n_insert), format_cost(census.cost_insert),
            str(census.n_delete), format_cost(census.cost_delete),
            str(census.n_replace), format_cost(census.cost_replace),
            "" if census.mean_total is None else f"{census.mean_total:.4f}",
        ]
        for t_d, census in rows
    ]


def census_csv(rows: Iterable[tuple[float, Census]]) -> str:
    return "\n".join([CENSUS_HEADER] + [",".join(row) for row in census_rows(rows)]) + "\n"


# -- JSONL ingestion ---------------------------------------------------------


def read_detections(path: str | Path, tax: Taxonomy) -> dict[str, list[DetectionRecord]]:
    """Detections of ``path``, filed by image id; every concept must resolve
    in ``tax``, which checks each distinct string once."""

    def build(image_id: str, dets: list) -> tuple[str, list[DetectionRecord]]:
        detections = []
        for det in dets:
            if not isinstance(det, dict) or "concept" not in det or "confidence" not in det:
                raise MalformedObject(f"a detection needs 'concept' and 'confidence': {det!r}")
            confidence = det["confidence"]
            if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
                raise MalformedObject(f"confidence must be a number, got {confidence!r}")
            detections.append(DetectionRecord(tax.resolve(det["concept"]), float(confidence)))
        return image_id, detections

    return dict(_read_jsonl(path, "image_id", "detections", build, unique="image"))


def read_targets(path: str | Path, tax: Taxonomy) -> dict[str, ConceptMultiset]:
    """Target multisets of ``path`` by image id; every concept must resolve
    in ``tax``, which checks each distinct string once."""

    def build(image_id: str, names: list) -> tuple[str, ConceptMultiset]:
        if not names:
            raise MalformedObject("a target needs at least one concept, got 'concepts': []")
        return image_id, ConceptMultiset._from_normalized(map(tax.resolve, names))

    return dict(_read_jsonl(path, "image_id", "concepts", build, unique="image"))
