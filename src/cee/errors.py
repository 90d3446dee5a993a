"""Exception types raised across the package, and the JSON-lines input reader.

Every error names the offending node, edge, or record so callers can report
actionable messages without string-parsing tracebacks.
"""

from __future__ import annotations

import json
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


_DECODER = json.JSONDecoder()
_JSON_WS = " \t\n\r"  # the whitespace JSON allows around a value; str.strip() strips more


def _parse_line(line: str) -> Any:
    """``json.loads(line)``, without its set-up for the common line that is one
    object; anything else, or an error, goes to ``json.loads`` for its message."""
    if line.startswith("{"):
        try:
            record, end = _DECODER.raw_decode(line)
        except ValueError:
            pass
        else:
            if not line[end:].strip(_JSON_WS):
                return record
    return json.loads(line)


def _read_jsonl(
    path: str | Path, id_key: str, list_key: str, build: Callable[[str, list], Any],
    unique: str | None,
) -> list:
    """``build(id, values)`` per non-blank line of ``path``, where each line is a JSON
    object holding a string ``id`` under ``id_key`` and a list ``values`` under
    ``list_key``; failures get a ``path:line`` prefix. The file is read at once and
    split once. A line is blank when only JSON whitespace is on it.
    ``unique`` names what ids identify ("story", "image") and forbids repeats; None allows
    them, and then a line that repeats a built line byte for byte gets the same item,
    without being decoded, parsed or built again. Only built lines are kept, so a failing
    line still fails at its own number."""
    items, seen = [], set()
    built: dict[bytes, Any] | None = {} if unique is None else None
    # bytes, decoded line by line, so a bad byte is reported with its line;
    # splitlines() breaks at "\n", "\r\n" and "\r", as text mode would
    for number, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if built is not None:
            item = built.get(raw)
            if item is not None:
                items.append(item)
                continue
        try:
            line = raw.decode("utf-8")
            if not line.strip(_JSON_WS):
                continue
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
                raise MalformedObject(
                    f"{id_key!r} must be a string, got {type(record_id).__name__}"
                )
            if unique is not None:
                if record_id in seen:
                    raise MalformedObject(f"duplicate {unique} id {record_id!r}")
                seen.add(record_id)
            item = build(record_id, values)
        except (MalformedObject, UnknownConcept, ValueError, TypeError,
                OverflowError, RecursionError) as exc:  # nested too deep, or an int too large
            raise MalformedObject(f"{path}:{number}: {exc}") from exc
        items.append(item)
        if built is not None:
            built[raw] = item
    return items
