"""Scene-level evaluation: threshold-gated detector concepts vs. caption
concepts, per image, plus threshold-sweep census reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .edits import Census, ConceptMultiset, EditScript, csed, format_cost, operation_census
from .errors import EmptyCorpus, MalformedObject
from .taxonomy import CostConfig, PATH_CONFIG, Taxonomy, normalize_concept

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
    image_id: str
    concept: str
    confidence: float

    def __post_init__(self):
        object.__setattr__(self, "image_id", str(self.image_id))
        object.__setattr__(self, "concept", normalize_concept(self.concept))
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


@dataclass
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


def threshold_filter(
    detections: Iterable[DetectionRecord],
    t_d: float,
) -> dict[str, ConceptMultiset]:
    """Per-image multiset of concepts detected with confidence >= t_d.
    Every image id present in the input keeps a key, even when nothing
    survives the cut."""
    _check_threshold(t_d)
    kept: dict[str, list[str]] = {}
    for rec in detections:
        kept.setdefault(rec.image_id, [])
        if rec.confidence >= t_d:
            kept[rec.image_id].append(rec.concept)
    return {image_id: ConceptMultiset(concepts) for image_id, concepts in kept.items()}


def scene_csed(sample: SceneSample, tax: Taxonomy, cfg: CostConfig | None = None) -> EditScript:
    return csed(sample.generated, sample.target, tax, cfg or PATH_CONFIG)


def _group_detections(
    detections: Iterable[DetectionRecord] | Mapping[str, Iterable[DetectionRecord]],
) -> dict[str, list[DetectionRecord]]:
    if isinstance(detections, Mapping):
        return {str(k): list(v) for k, v in detections.items()}
    grouped: dict[str, list[DetectionRecord]] = {}
    for rec in detections:
        grouped.setdefault(rec.image_id, []).append(rec)
    return grouped


def build_samples(
    detections: Iterable[DetectionRecord] | Mapping[str, Iterable[DetectionRecord]],
    targets: Mapping[str, ConceptMultiset],
    t_d: float,
) -> tuple[list[SceneSample], list[str], list[str]]:
    """Join detections and targets on image id at one threshold.

    Returns (samples sorted by id, ids only in detections, ids only in
    targets); the one-sided ids are the join misses the caller reports.
    """
    grouped = _group_detections(detections)
    flat = [rec for recs in grouped.values() for rec in recs]
    filtered = threshold_filter(flat, t_d)
    for image_id in grouped:
        filtered.setdefault(image_id, ConceptMultiset())
    det_ids = set(filtered)
    tgt_ids = set(targets)
    samples = [
        SceneSample(image_id=i, generated=filtered[i], target=targets[i])
        for i in sorted(det_ids & tgt_ids)
    ]
    return samples, sorted(det_ids - tgt_ids), sorted(tgt_ids - det_ids)


def solve_thresholds(
    detections: Iterable[DetectionRecord] | Mapping[str, Iterable[DetectionRecord]],
    targets: Mapping[str, ConceptMultiset],
    thresholds: Iterable[float],
    tax: Taxonomy,
    cfg: CostConfig | None = None,
) -> Iterator[tuple[float, list[SceneSample], list[EditScript]]]:
    """Joined samples and their edit scripts, one threshold at a time; each
    (image, threshold) is solved once.

    Raw detection confidences are kept so each threshold re-filters from
    scratch; thresholds are deduplicated and yielded in ascending order. All
    thresholds are checked before the first is solved.
    """
    cfg = cfg or PATH_CONFIG
    grouped = _group_detections(detections)
    ts = sorted({_check_threshold(t) for t in thresholds})
    if not ts:
        raise ValueError("no thresholds given")
    for t_d in ts:
        samples, _, _ = build_samples(grouped, targets, t_d)
        if not samples:
            raise EmptyCorpus("no image ids shared between detections and targets")
        yield t_d, samples, [scene_csed(sample, tax, cfg) for sample in samples]


def corpus_report(
    detections: Iterable[DetectionRecord] | Mapping[str, Iterable[DetectionRecord]],
    targets: Mapping[str, ConceptMultiset],
    thresholds: Iterable[float],
    tax: Taxonomy,
    cfg: CostConfig | None = None,
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


def read_detections(path: str | Path) -> dict[str, list[DetectionRecord]]:
    grouped: dict[str, list[DetectionRecord]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if "image_id" not in record or "detections" not in record:
            raise MalformedObject(f"detections line needs 'image_id' and 'detections': {line[:80]!r}")
        image_id = str(record["image_id"])
        if image_id in grouped:
            raise MalformedObject(f"{path}: duplicate image id {image_id!r}")
        grouped[image_id] = [
            DetectionRecord(
                image_id=image_id,
                concept=det["concept"],
                confidence=float(det["confidence"]),
            )
            for det in record["detections"]
        ]
    return grouped


def read_targets(path: str | Path) -> dict[str, ConceptMultiset]:
    targets: dict[str, ConceptMultiset] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if "image_id" not in record or "concepts" not in record:
            raise MalformedObject(f"targets line needs 'image_id' and 'concepts': {line[:80]!r}")
        image_id = str(record["image_id"])
        if image_id in targets:
            raise MalformedObject(f"{path}: duplicate image id {image_id!r}")
        targets[image_id] = ConceptMultiset(record["concepts"])
    return targets


def split_caption(text: str) -> list[str]:
    """Convenience splitter for concept lists: commas when present (keeps
    multiword concepts), whitespace otherwise. Tokenization only, not
    language understanding."""
    parts = text.split(",") if "," in text else text.split()
    return [normalize_concept(p) for p in parts if p.strip()]
