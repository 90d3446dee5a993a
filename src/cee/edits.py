"""Minimum-cost edit scripts between concept multisets.

The generated set S is transformed into the target set T through Replace,
Delete, and Insert operations priced by the taxonomy cost model. The optimum
is found as an assignment problem on an (|S|+|T|) square matrix: real-to-real
cells price replacements (or a sentinel when the pair is not actionable),
real-to-dummy cells price deletions, dummy-to-real cells price insertions,
and dummy-to-dummy cells are free.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import IncompatibleTaxonomy, InstanceTooLarge
from .taxonomy import (
    PATH_CONFIG,
    CostConfig,
    Taxonomy,
    delete_cost,
    distance,
    insert_cost,
    is_replaceable,
    normalize_concept,
    replace_cost,
)

DELETE = "D"
REPLACE = "R"
INSERT = "I"
_KIND_ORDER = {DELETE: 0, REPLACE: 1, INSERT: 2}

ARROW = "→"

# Bias on every dummy route, so a cost tie between a matched pair and
# routing both items through dummies resolves to the pair. Small enough that
# it can never flip a strict cost comparison for the weight profiles used here.
_TIE_EPS = 1e-9

BRUTE_FORCE_LIMIT = 12


def format_cost(x: float) -> str:
    """'2' for integral costs, '2.5' otherwise. Stable for equal floats."""
    xf = float(x)
    return str(int(xf)) if xf.is_integer() else repr(xf)


class ConceptMultiset:
    """Bag of normalized concept names, optionally pinned to one taxonomy."""

    __slots__ = ("_counts", "taxonomy_id")

    def __init__(self, items: Iterable[str] = (), taxonomy_id: str | None = None):
        counts: Counter[str] = Counter()
        for item in items:
            counts[normalize_concept(item)] += 1
        self._counts = counts
        self.taxonomy_id = taxonomy_id

    @classmethod
    def from_counts(cls, counts: dict[str, int], taxonomy_id: str | None = None) -> "ConceptMultiset":
        ms = cls(taxonomy_id=taxonomy_id)
        for name, n in counts.items():
            if n < 0:
                raise ValueError(f"negative multiplicity for {name!r}")
            if n:
                ms._counts[normalize_concept(name)] += n
        return ms

    @classmethod
    def for_taxonomy(cls, items: Iterable[str], tax: Taxonomy) -> "ConceptMultiset":
        ms = cls(items, taxonomy_id=tax.fingerprint)
        for name in ms._counts:
            tax.resolve(name)
        return ms

    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __iter__(self) -> Iterator[str]:
        for name in sorted(self._counts):
            for _ in range(self._counts[name]):
                yield name

    def __contains__(self, name: str) -> bool:
        return normalize_concept(name) in self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConceptMultiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self):
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        return f"ConceptMultiset({list(self)!r})"


@dataclass(frozen=True)
class EditOp:
    """One Replace / Delete / Insert with its cost."""

    kind: str
    source: str | None = None
    target: str | None = None
    cost: float = 0.0

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == REPLACE and not (self.source and self.target):
            raise ValueError("replace needs source and target")
        if self.kind == DELETE and (not self.source or self.target):
            raise ValueError("delete needs only a source")
        if self.kind == INSERT and (self.source or not self.target):
            raise ValueError("insert needs only a target")
        if self.cost < 0:
            raise ValueError("op cost must be non-negative")
        if self.source is not None:
            object.__setattr__(self, "source", normalize_concept(self.source))
        if self.target is not None:
            object.__setattr__(self, "target", normalize_concept(self.target))

    @property
    def token(self) -> str:
        if self.kind == REPLACE:
            return f"R:{self.source}{ARROW}{self.target}"
        if self.kind == DELETE:
            return f"D:{self.source}"
        return f"I:{self.target}"

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.source or "", self.target or "", self.cost)


@dataclass(frozen=True)
class EditScript:
    """Ordered op sequence: deletes, then replaces, then inserts, each block
    sorted lexicographically. total_cost is always the sum of op costs."""

    ops: tuple[EditOp, ...]
    total_cost: float = field(init=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.ops, key=EditOp.sort_key))
        object.__setattr__(self, "ops", ordered)
        object.__setattr__(self, "total_cost", float(sum(op.cost for op in ordered)))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[EditOp]:
        return iter(self.ops)

    def count(self, kind: str) -> int:
        return sum(1 for op in self.ops if op.kind == kind)

    def cost_of(self, kind: str) -> float:
        return float(sum(op.cost for op in self.ops if op.kind == kind))

    def edit_tokens(self) -> list[str]:
        return [op.token for op in self.ops]

    def dumps(self) -> str:
        lines = []
        for op in self.ops:
            lines.append(
                f"{op.kind}\t{op.source or ''}\t{op.target or ''}\t{format_cost(op.cost)}"
            )
        lines.append(f"TOTAL\t{format_cost(self.total_cost)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "EditScript":
        ops = []
        total: float | None = None
        for raw in text.splitlines():
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if fields[0] == "TOTAL":
                total = float(fields[1])
                continue
            kind, source, target, cost = fields
            ops.append(
                EditOp(kind, source=source or None, target=target or None, cost=float(cost))
            )
        script = cls(tuple(ops))
        if total is not None and not math.isclose(script.total_cost, total, abs_tol=1e-9):
            raise ValueError(f"TOTAL line {total} does not match op sum {script.total_cost}")
        return script


def as_multiset(items: Iterable[str] | ConceptMultiset) -> ConceptMultiset:
    return items if isinstance(items, ConceptMultiset) else ConceptMultiset(items)


def _check_compatible(ms: ConceptMultiset, tax: Taxonomy) -> None:
    if ms.taxonomy_id is not None and ms.taxonomy_id != tax.fingerprint:
        raise IncompatibleTaxonomy(
            f"multiset is pinned to taxonomy {ms.taxonomy_id}, got {tax.fingerprint}"
        )


def _assign(
    pair: Sequence[Sequence[float]],
    del_costs: Sequence[float],
    ins_costs: Sequence[float],
) -> list[tuple[int, int]]:
    """Minimum-cost assignment on the (n+m)² dummy-padded matrix.

    ``pair[i][j]`` prices turning generated item i into target item j; row i
    may instead route to a dummy column at ``del_costs[i]`` and column j to a
    dummy row at ``ins_costs[j]``. Returns the chosen cells other than
    dummy-to-dummy: ``j >= m`` deletes item i, ``i >= n`` inserts item j.
    """
    n, m = len(del_costs), len(ins_costs)
    cost = np.zeros((n + m, n + m))
    if n and m:
        cost[:n, :m] = pair
    cost[:n, m:] = np.asarray(del_costs, dtype=float)[:, None] + _TIE_EPS
    cost[n:, :m] = np.asarray(ins_costs, dtype=float) + _TIE_EPS
    rows, cols = linear_sum_assignment(cost)
    return [(i, j) for i, j in zip(rows.tolist(), cols.tolist()) if i < n or j < m]


def csed(
    generated: Iterable[str] | ConceptMultiset,
    target: Iterable[str] | ConceptMultiset,
    tax: Taxonomy,
    cfg: CostConfig | None = None,
) -> EditScript:
    """Minimum-cost edit script turning ``generated`` into ``target``.

    Pairs priced at zero (equal concepts, or generated concept strictly more
    specific than the target) emit no op. Cost ties between a replace and the
    delete-plus-insert route resolve to the replace.
    """
    cfg = cfg or PATH_CONFIG
    S = as_multiset(generated)
    T = as_multiset(target)
    _check_compatible(S, tax)
    _check_compatible(T, tax)

    s_items = [tax.resolve(x) for x in S]
    t_items = [tax.resolve(x) for x in T]
    n, m = len(s_items), len(t_items)
    if n == 0 and m == 0:
        return EditScript(())

    del_costs = [delete_cost(tax, s, cfg) for s in s_items]
    ins_costs = [insert_cost(tax, t, cfg) for t in t_items]

    pair = [[0.0] * m for _ in range(n)]
    for i, s in enumerate(s_items):
        for j, t in enumerate(t_items):
            if distance(tax, s, t, cfg) == 0.0:
                continue
            if is_replaceable(tax, s, t, cfg):
                pair[i][j] = replace_cost(tax, s, t, cfg)
            else:
                # sentinel: strictly worse than deleting s and inserting t
                pair[i][j] = del_costs[i] + ins_costs[j] + 1.0

    ops: list[EditOp] = []
    for i, j in _assign(pair, del_costs, ins_costs):
        if j >= m:
            ops.append(EditOp(DELETE, source=s_items[i], cost=del_costs[i]))
        elif i >= n:
            ops.append(EditOp(INSERT, target=t_items[j], cost=ins_costs[j]))
        elif pair[i][j] > 0.0:
            ops.append(
                EditOp(REPLACE, source=s_items[i], target=t_items[j], cost=float(pair[i][j]))
            )
    return EditScript(tuple(ops))


def brute_force_csed(
    generated: Iterable[str] | ConceptMultiset,
    target: Iterable[str] | ConceptMultiset,
    tax: Taxonomy,
    cfg: CostConfig | None = None,
    limit: int = BRUTE_FORCE_LIMIT,
) -> EditScript:
    """Exhaustive-matching reference solver for small instances.

    Enumerates every partial matching between S and T instead of delegating
    to the assignment solver, so it can confirm ``csed`` independently.
    """
    cfg = cfg or PATH_CONFIG
    S = as_multiset(generated)
    T = as_multiset(target)
    _check_compatible(S, tax)
    _check_compatible(T, tax)
    s_items = [tax.resolve(x) for x in S]
    t_items = [tax.resolve(x) for x in T]
    n, m = len(s_items), len(t_items)
    if n + m > limit:
        raise InstanceTooLarge(n + m, limit)

    del_costs = [delete_cost(tax, s, cfg) for s in s_items]
    ins_costs = [insert_cost(tax, t, cfg) for t in t_items]
    pair: list[list[float | None]] = [[None] * m for _ in range(n)]
    matched: list[list[bool]] = [[False] * m for _ in range(n)]
    for i, s in enumerate(s_items):
        for j, t in enumerate(t_items):
            if distance(tax, s, t, cfg) == 0.0:
                pair[i][j] = 0.0
                matched[i][j] = True
            elif is_replaceable(tax, s, t, cfg):
                pair[i][j] = replace_cost(tax, s, t, cfg)

    best_cost = math.inf
    best_choice: list[int] | None = None
    choice = [-1] * n  # -1 = delete s_i, else index into t_items
    used = [False] * m

    def walk(i: int, acc: float) -> None:
        nonlocal best_cost, best_choice
        if acc > best_cost:
            return
        if i == n:
            total = acc + sum(ins_costs[j] for j in range(m) if not used[j])
            if total < best_cost:
                best_cost = total
                best_choice = choice.copy()
            return
        choice[i] = -1
        walk(i + 1, acc + del_costs[i])
        for j in range(m):
            if used[j] or pair[i][j] is None:
                continue
            used[j] = True
            choice[i] = j
            walk(i + 1, acc + pair[i][j])
            used[j] = False
        choice[i] = -1

    walk(0, 0.0)
    assert best_choice is not None

    ops: list[EditOp] = []
    taken = [False] * m
    for i, j in enumerate(best_choice):
        if j == -1:
            ops.append(EditOp(DELETE, source=s_items[i], cost=del_costs[i]))
        else:
            taken[j] = True
            if not matched[i][j]:
                ops.append(
                    EditOp(REPLACE, source=s_items[i], target=t_items[j], cost=pair[i][j])
                )
    for j in range(m):
        if not taken[j]:
            ops.append(EditOp(INSERT, target=t_items[j], cost=ins_costs[j]))
    return EditScript(tuple(ops))


@dataclass(frozen=True)
class Census:
    """Operation counts and summed costs over a batch of scripts."""

    n_scripts: int
    n_delete: int
    cost_delete: float
    n_replace: int
    cost_replace: float
    n_insert: int
    cost_insert: float
    mean_total: float | None  # None when there are no scripts at all


def operation_census(scripts: Iterable[EditScript]) -> Census:
    batch = list(scripts)
    n_d = sum(s.count(DELETE) for s in batch)
    n_r = sum(s.count(REPLACE) for s in batch)
    n_i = sum(s.count(INSERT) for s in batch)
    c_d = float(sum(s.cost_of(DELETE) for s in batch))
    c_r = float(sum(s.cost_of(REPLACE) for s in batch))
    c_i = float(sum(s.cost_of(INSERT) for s in batch))
    mean = float(sum(s.total_cost for s in batch)) / len(batch) if batch else None
    return Census(
        n_scripts=len(batch),
        n_delete=n_d, cost_delete=c_d,
        n_replace=n_r, cost_replace=c_r,
        n_insert=n_i, cost_insert=c_i,
        mean_total=mean,
    )
