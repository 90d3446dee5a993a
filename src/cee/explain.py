"""Local explanation rendering and global explanation mining.

Local: an edit script rendered as a human-readable row (story frames) or a
grouped I/D/R listing (scenes). Global: replacement rules counted from the
R tokens of each transaction, plus insert/delete frequency tables; apriori
mines general frequent itemsets over the same transactions.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Collection, Iterable, Sequence

from .edits import ARROW, DELETE, INSERT, REPLACE, EditScript, format_cost
from .errors import MalformedObject
from .taxonomy import Taxonomy


@dataclass(frozen=True)
class Transaction:
    """Deduplicated edit tokens for one story or image."""

    id: str
    items: frozenset[str]

    @classmethod
    def from_scripts(cls, id: str, scripts: Iterable[EditScript]) -> "Transaction":
        tokens: set[str] = set()
        for script in scripts:
            tokens.update(script.edit_tokens())
        return cls(id=str(id), items=frozenset(tokens))

    def to_json(self) -> str:
        return json.dumps(
            {"id": self.id, "edits": sorted(self.items)},
            sort_keys=True,
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, line: str) -> "Transaction":
        record = json.loads(line)
        if "id" not in record or "edits" not in record:
            raise MalformedObject(f"transaction line needs 'id' and 'edits': {line[:80]!r}")
        return cls(id=str(record["id"]), items=frozenset(record["edits"]))


def read_transactions(path: str | Path) -> list[Transaction]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(Transaction.from_json(line))
    return out


def write_transactions(path: str | Path, transactions: Iterable[Transaction]) -> None:
    text = "".join(t.to_json() + "\n" for t in transactions)
    Path(path).write_text(text, encoding="utf-8")


def split_replace_token(token: str) -> tuple[str, str] | None:
    if not token.startswith("R:"):
        return None
    body = token[2:]
    source, _, target = body.partition(ARROW)
    return source, target


def _as_itemsets(transactions: Sequence[Transaction | Collection[str]]) -> list[frozenset[str]]:
    out = []
    for t in transactions:
        out.append(frozenset(t.items) if isinstance(t, Transaction) else frozenset(t))
    return out


def _min_count(min_support: float, n: int) -> int:
    """Smallest count of n transactions whose support fraction reaches
    min_support; the slack absorbs float error when min_support * n lands
    on an exact integer."""
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must be in (0, 1]")
    return max(1, math.ceil(min_support * n - 1e-9))


def apriori(
    transactions: Sequence[Transaction | Collection[str]],
    min_support: float,
) -> dict[frozenset[str], int]:
    """Frequent itemsets (by absolute transaction count) at min_support.

    Classic level-wise search: level k candidates join two frequent (k-1)
    itemsets and are pruned unless every (k-1) subset is frequent.
    """
    itemsets = _as_itemsets(transactions)
    min_count = _min_count(min_support, len(itemsets))
    if not itemsets:
        return {}

    counts: dict[frozenset[str], int] = {}
    singles: dict[frozenset[str], int] = {}
    for t in itemsets:
        for item in t:
            key = frozenset([item])
            singles[key] = singles.get(key, 0) + 1
    level = {k: v for k, v in singles.items() if v >= min_count}
    counts.update(level)
    k = 2
    while level:
        frequent = sorted(level, key=lambda s: sorted(s))
        candidates: set[frozenset[str]] = set()
        for a, b in combinations(frequent, 2):
            union = a | b
            if len(union) != k:
                continue
            if all(union - {item} in level for item in union):
                candidates.add(union)
        next_level: dict[frozenset[str], int] = {}
        for t in itemsets:
            for cand in candidates:
                if cand <= t:
                    next_level[cand] = next_level.get(cand, 0) + 1
        level = {c: v for c, v in next_level.items() if v >= min_count}
        counts.update(level)
        k += 1
    return counts


@dataclass(frozen=True)
class AssociationRule:
    source: str
    target: str
    frequency: int
    support: float  # percentages in [0, 100]
    antecedent_support: float
    consequent_support: float


def mine_rules(
    transactions: Sequence[Transaction | Collection[str]],
    min_support: float = 0.01,
) -> list[AssociationRule]:
    """Replacement rules ranked by support.

    support counts transactions holding the exact R token; antecedent /
    consequent support count transactions holding any R token with the same
    source / target. Membership is per transaction, so a token repeated
    within one sample still counts once.
    """
    itemsets = _as_itemsets(transactions)
    n = len(itemsets)
    if n == 0:
        return []
    min_count = _min_count(min_support, n)

    # a token maps to exactly one (source, target), so pairs count tokens
    pair_counts: Counter[tuple[str, str]] = Counter()
    source_members: Counter[str] = Counter()
    target_members: Counter[str] = Counter()
    for t in itemsets:
        pairs = [pair for pair in map(split_replace_token, t) if pair is not None]
        pair_counts.update(pairs)
        source_members.update({source for source, _ in pairs})
        target_members.update({target for _, target in pairs})

    rules = [
        AssociationRule(
            source=source,
            target=target,
            frequency=count,
            support=100.0 * count / n,
            antecedent_support=100.0 * source_members[source] / n,
            consequent_support=100.0 * target_members[target] / n,
        )
        for (source, target), count in pair_counts.items()
        if count >= min_count
    ]
    rules.sort(key=lambda r: (-r.support, r.source, r.target))
    return rules


def id_frequency_table(
    transactions: Sequence[Transaction | Collection[str]],
    top_k: int,
) -> dict[str, list[tuple[str, int, float]]]:
    """Top inserted/deleted concepts: (concept, count, share of that kind's
    edits as a percentage). Ties rank lexicographically."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    itemsets = _as_itemsets(transactions)
    counts: dict[str, dict[str, int]] = {INSERT: {}, DELETE: {}}
    for t in itemsets:
        for token in t:
            kind, _, concept = token.partition(":")
            if kind in counts and concept:
                counts[kind][concept] = counts[kind].get(concept, 0) + 1
    table: dict[str, list[tuple[str, int, float]]] = {}
    for kind, row in counts.items():
        total = sum(row.values())
        ranked = sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        table[kind] = [
            (concept, count, 100.0 * count / total) for concept, count in ranked
        ]
    return table


def _quoted(names: Iterable[str]) -> str:
    return "{" + ",".join(f"'{n}'" for n in names) + "}"


def _semantic_label(name: str | None, tax: Taxonomy | None) -> str:
    if tax is None or name is None:
        return "?"
    cat = tax.category_of(name)
    return cat.capitalize() if cat else "?"


def format_local(
    script: EditScript,
    tax: Taxonomy | None = None,
    cl: float | None = None,
) -> str:
    """Single-row rendering: edit path | op letters | cost | semantics [| CL].

    Matches the story-table layout, e.g.
    ``{'rubber','sphere'} → {'metallic','cylinder'} | R,R | 4 | Material, Shape``.
    """
    if not script.ops:
        return "no edits"
    segments: list[str] = []
    deletes = [op for op in script if op.kind == DELETE]
    replaces = [op for op in script if op.kind == REPLACE]
    inserts = [op for op in script if op.kind == INSERT]
    if deletes:
        segments.append(f"D {_quoted(op.source for op in deletes)}")
    if replaces:
        if len(replaces) == 1:
            segments.append(f"'{replaces[0].source}' {ARROW} '{replaces[0].target}'")
        else:
            srcs = _quoted(op.source for op in replaces)
            tgts = _quoted(op.target for op in replaces)
            segments.append(f"{srcs} {ARROW} {tgts}")
    if inserts:
        segments.append(f"I {_quoted(op.target for op in inserts)}")

    letters = ",".join(op.kind for op in script)
    semantics: list[str] = []
    for op in script:
        for name in (op.source, op.target):
            if name is None:
                continue
            label = _semantic_label(name, tax)
            if label not in semantics:
                semantics.append(label)
    columns = ["; ".join(segments), letters, format_cost(script.total_cost), ", ".join(semantics)]
    if cl is not None:
        columns.append(format_cost(cl))
    return " | ".join(columns)


def format_local_grouped(script: EditScript) -> str:
    """Grouped scene rendering:

    I: { }
    D: {'car','car','car'}
    R: {'traffic light'→'light'}
    """
    def group(kind: str, render) -> str:
        ops = [op for op in script if op.kind == kind]
        if not ops:
            return f"{kind}: {{ }}"
        return f"{kind}: {_quoted(render(op) for op in ops)}"

    lines = [
        group(INSERT, lambda op: op.target),
        group(DELETE, lambda op: op.source),
    ]
    replaces = [op for op in script if op.kind == REPLACE]
    if not replaces:
        lines.append("R: { }")
    else:
        body = ",".join(f"'{op.source}'{ARROW}'{op.target}'" for op in replaces)
        lines.append("R: {" + body + "}")
    return "\n".join(lines)
