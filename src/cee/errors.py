"""Exception types raised across the package, and the JSON-lines input reader.

Every error names the offending node, edge, or record so callers can report
actionable messages without string-parsing tracebacks.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Callable


class CeeError(Exception):
    """Base class for all package errors."""


class TaxonomyError(CeeError):
    """Base class for hierarchy construction and lookup failures."""


class CycleDetected(TaxonomyError):
    def __init__(self, node: str):
        self.node = node
        super().__init__(f"cycle detected through concept {node!r}")


class MultipleRoots(TaxonomyError):
    def __init__(self, roots: list[str]):
        self.roots = sorted(roots)
        super().__init__(f"expected exactly one root, found {self.roots}")


class DanglingEdge(TaxonomyError):
    def __init__(self, node: str, detail: str = "does not reach the root"):
        self.node = node
        super().__init__(f"concept {node!r} {detail}")


class EmptySource(TaxonomyError):
    def __init__(self):
        super().__init__("no concepts declared")


class UnknownConcept(TaxonomyError):
    def __init__(self, concept: str):
        self.concept = concept
        super().__init__(f"concept {concept!r} is not in the taxonomy")


class UncategorizedConcept(TaxonomyError):
    def __init__(self, concept: str):
        self.concept = concept
        super().__init__(f"concept {concept!r} has no category ancestor")


class InstanceTooLarge(CeeError):
    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"instance has {size} items, brute force allows at most {limit}")


class MalformedObject(CeeError):
    pass


class LengthMismatch(CeeError):
    def __init__(self, story_id: str, n_generated: int, n_truth: int):
        self.story_id = story_id
        self.n_generated = n_generated
        self.n_truth = n_truth
        super().__init__(
            f"story {story_id!r}: generated story has {n_generated} frames, "
            f"ground truth has {n_truth}"
        )


class EmptyStory(CeeError):
    def __init__(self, story_id: str):
        super().__init__(f"story {story_id!r} has no frames")


class EmptyCorpus(CeeError):
    pass


class SpecOutOfRange(CeeError):
    pass


# JSONDecoder.raw_decode's scanner, called without raw_decode's own frame: it
# returns (value, end) and raises StopIteration where no value starts
_SCAN = json.JSONDecoder().scan_once
_JSON_WS = " \t\n\r"  # the whitespace JSON allows around a value; str.strip() strips more


def _parse_line(line: str) -> Any:
    """``json.loads(line)``, without its set-up for the common line that is one
    object; anything else, or an error, goes to ``json.loads`` for its message."""
    if line.startswith("{"):
        try:
            record, end = _SCAN(line, 0)
        except (StopIteration, ValueError):
            pass
        else:
            if not line[end:].strip(_JSON_WS):
                return record
    return json.loads(line)


# a line that fails with one of these is reported as ``path:line: message``;
# RecursionError is JSON nested too deep, OverflowError an int too large
_LINE_ERRORS = (MalformedObject, UnknownConcept, ValueError, TypeError, OverflowError,
                RecursionError)


def _record(raw: bytes, id_key: str, list_key: str) -> tuple[str, list] | None:
    """The string id and the list of one line, or None when only JSON whitespace
    is on it."""
    line = raw.decode("utf-8")
    if not line.strip(_JSON_WS):
        return None
    record = _parse_line(line)
    if not isinstance(record, dict):
        raise MalformedObject(f"expected a JSON object, got {type(record).__name__}")
    try:
        record_id, values = record[id_key], record[list_key]
    except KeyError:
        raise MalformedObject(f"line needs {id_key!r} and {list_key!r}") from None
    if not isinstance(values, list):
        raise MalformedObject(f"{list_key!r} must be a list, got {type(values).__name__}")
    if not isinstance(record_id, str):
        raise MalformedObject(f"{id_key!r} must be a string, got {type(record_id).__name__}")
    return record_id, values


def _read_jsonl(
    path: str | Path, id_key: str, list_key: str, build: Callable[[str, list], Any],
    unique: str | None,
) -> list | Counter:
    """``build(id, values)`` per non-blank line of ``path``, where each line is a JSON
    object holding a string ``id`` under ``id_key`` and a list ``values`` under
    ``list_key``; failures get a ``path:line`` prefix. The file is read at once and
    split once.
    ``unique`` names what ids identify ("story", "image") and forbids repeats; the
    built items come back as a list, in file order. None allows repeats, and then the
    items come back counted: each distinct line is decoded, parsed and built once, in
    first-occurrence order, and its item counts once per line that holds it. A failing
    line fails at its first occurrence, which is its own number."""
    # bytes, decoded line by line, so a bad byte is reported with its line;
    # splitlines() breaks at "\n", "\r\n" and "\r", as text mode would
    lines = Path(path).read_bytes().splitlines()
    if unique is None:
        counts: Counter = Counter()
        for raw, n in Counter(lines).items():
            try:
                record = _record(raw, id_key, list_key)
                if record is not None:
                    item = build(*record)
                    counts[item] = counts.get(item, 0) + n  # no __missing__ call per new item
            except _LINE_ERRORS as exc:
                raise MalformedObject(f"{path}:{lines.index(raw) + 1}: {exc}") from exc
        return counts
    items, seen = [], set()
    for number, raw in enumerate(lines, start=1):
        try:
            record = _record(raw, id_key, list_key)
            if record is None:
                continue
            if record[0] in seen:
                raise MalformedObject(f"duplicate {unique} id {record[0]!r}")
            seen.add(record[0])
            items.append(build(*record))
        except _LINE_ERRORS as exc:
            raise MalformedObject(f"{path}:{number}: {exc}") from exc
    return items
