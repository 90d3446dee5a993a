"""Minimum-cost edit scripts between concept multisets.

The generated set S is transformed into the target set T through Replace,
Delete, and Insert operations priced by the taxonomy cost model. The optimum
is found as an assignment problem on an (|S|+|T|) square matrix: real-to-real
cells price replacements (or a sentinel when the pair is not actionable),
real-to-dummy cells price deletions, dummy-to-real cells price insertions,
and dummy-to-dummy cells are free. The matrix is solved by
``linear_sum_assignment``, a pure-Python shortest-augmenting-path solver
that reproduces scipy's choice among equal-cost optima.

Most instances skip that solve. When the actionable pairs form a matching
(no item on either side has two), each pair is decided alone: matched when
its price is below its delete plus insert, each biased by ``_TIE_EPS``,
else both go to dummies; a sentinel never wins. That optimum is unique and
dummy-to-dummy cells never reach the script, so ``_direct`` writes the
solver's script without it, off exact ties and below ``_DIRECT_LIMIT``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import InstanceTooLarge
from .taxonomy import ARROW, PATH_CONFIG, CostConfig, CostModel, Taxonomy, normalize_concept

DELETE = "D"
REPLACE = "R"
INSERT = "I"
_KIND_ORDER = {DELETE: 0, REPLACE: 1, INSERT: 2}

# Bias on every dummy route, so a cost tie between a matched pair and
# routing both items through dummies resolves to the pair. Small enough that
# it can never flip a strict cost comparison for the weight profiles used here.
# It holds only while prices are small. From about 2**24 (1.7e7) float
# rounding absorbs the bias, so a tie may go to the delete and the insert;
# from about 2**53 it also absorbs the +1.0 that puts a forbidden pair's
# sentinel above its delete and insert, so a forbidden replace can win; near
# the float maximum the sums overflow to inf. Exact costs would lift all three.
# ``_direct`` skips the solver only below 2**20, 16x under where it is lost.
_TIE_EPS = 1e-9
_DIRECT_LIMIT = 2.0**20

BRUTE_FORCE_LIMIT = 12

_OVERFLOW = "no finite-cost edit script exists: the prices overflow"


def format_cost(x: float) -> str:
    """'2' for integral costs, '2.5' otherwise. Stable for equal floats."""
    xf = float(x)
    return str(int(xf)) if xf.is_integer() else repr(xf)


class ConceptMultiset(tuple):
    """Bag of normalized concept names, held as a tuple in sorted order.

    Names are normalized once, here; length, iteration, equality and hashing
    are the tuple's."""

    __slots__ = ()

    def __new__(cls, items: Iterable[str] = ()):
        return super().__new__(cls, sorted(normalize_concept(item) for item in items))

    @classmethod
    def _from_normalized(cls, names: Iterable[str]) -> "ConceptMultiset":
        """For names that are already normalized: sorts, normalizes nothing."""
        return super().__new__(cls, sorted(names))

    def counts(self) -> dict[str, int]:
        return dict(Counter(self))

    def __repr__(self) -> str:
        return f"ConceptMultiset({list(self)!r})"


@dataclass(frozen=True)
class EditOp:
    """One Replace / Delete / Insert with its cost. Its sort key and its token
    are built once, with the op, and take no part in equality, hashing or repr."""

    kind: str
    source: str | None = None
    target: str | None = None
    cost: float = 0.0
    _key: tuple = field(init=False, repr=False, compare=False)
    token: str = field(init=False, repr=False, compare=False)

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
        key = (_KIND_ORDER[self.kind], self.source or "", self.target or "", self.cost)
        object.__setattr__(self, "_key", key)
        if self.kind == REPLACE:
            token = f"R:{self.source}{ARROW}{self.target}"
        else:
            token = f"{self.kind}:{self.source or self.target}"
        object.__setattr__(self, "token", token)


_op_key = attrgetter("_key")
_op_cost = attrgetter("cost")


@dataclass(frozen=True)
class EditScript:
    """Ordered op sequence: deletes, then replaces, then inserts, each block
    sorted lexicographically. total_cost is always the sum of op costs."""

    ops: tuple[EditOp, ...]
    total_cost: float = field(init=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.ops, key=_op_key))
        object.__setattr__(self, "ops", ordered)
        object.__setattr__(self, "total_cost", float(sum(map(_op_cost, ordered))))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[EditOp]:
        return iter(self.ops)

    def edit_tokens(self) -> list[str]:
        return [op.token for op in self.ops]


def as_multiset(items: Iterable[str] | ConceptMultiset) -> ConceptMultiset:
    return items if isinstance(items, ConceptMultiset) else ConceptMultiset(items)


def _priced(
    S: ConceptMultiset, T: ConceptMultiset, model: CostModel
) -> tuple[list[float], list[float], list[list[float | None]]]:
    """Both sides' delete and insert prices, and every pair's price (None
    where the replace is not actionable), from the cost model."""
    del_costs = [model.costs(s)[0] for s in S]
    ins_costs = [model.costs(t)[1] for t in T]
    pair = [[model.pair(s, t) for t in T] for s in S]
    return del_costs, ins_costs, pair


def linear_sum_assignment(cost: Sequence[Sequence[float]]) -> tuple[list[int], list[int]]:
    """Minimum-cost perfect matching on a square matrix: ``(rows, cols)``
    with ``rows == [0, ..., N-1]`` and row i matched to column ``cols[i]``.

    A port of scipy's ``rectangular_lsap`` (the shortest augmenting path of
    Crouse, "On implementing 2D rectangular assignment algorithms", IEEE
    TAES 2016) restricted to square matrices. It returns scipy's column
    vector bit for bit, which pins the choice among equal-cost optima: the
    remaining columns are scanned from N-1 down and removed by swapping in
    the last one, a tie in path cost goes to a column no row holds yet, and
    the reduced cost is summed left to right as
    ``min_val + cost[i][j] - u[i] - v[j]``. Regrouping that sum changes
    which optimum is found.
    """
    size = len(cost)
    inf = math.inf
    u = [0.0] * size
    v = [0.0] * size
    col4row = [-1] * size
    row4col = [-1] * size
    path = [-1] * size
    all_inf = [inf] * size
    all_cols = list(range(size - 1, -1, -1))
    for cur_row in range(size):
        shortest = all_inf[:]
        remaining = all_cols[:]
        reached: list[int] = []  # columns in the order the search took them
        min_val = 0.0
        i = cur_row
        while i != -1:
            row, u_i = cost[i], u[i]
            lowest = inf
            index = -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                else:
                    r = shortest[j]
                if r <= lowest and (r < lowest or row4col[j] == -1):
                    lowest = r
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            reached.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            i = row4col[j]  # -1: j is free, the sink
        sink = j

        # the rows reached besides cur_row are those holding the reached
        # columns other than the sink, so each is updated through its column
        u[cur_row] += min_val
        for j in reached:
            step = min_val - shortest[j]
            if j != sink:
                u[row4col[j]] += step
            v[j] -= step

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return list(range(size)), col4row


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

    Every call solves and keeps no state. Repeats are caught before it, on
    the cost model: ``_solve`` runs only for an (S, T) pair whose script the
    model's memo lacks and ``_direct`` cannot write.
    """
    n, m = len(del_costs), len(ins_costs)
    cost = [[*pair[i], *[del_costs[i] + _TIE_EPS] * n] for i in range(n)]
    insert_row = [c + _TIE_EPS for c in ins_costs] + [0.0] * n
    cost += [insert_row] * m
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError as exc:  # every route is finite unless a price overflowed to inf
        raise ValueError(_OVERFLOW) from exc
    return [(i, j) for i, j in zip(rows, cols) if i < n or j < m]


def _direct(
    del_costs: list[float],
    ins_costs: list[float],
    pair: list[list[float | None]],
) -> list[tuple[int, int]] | None:
    """Cells in ``_assign``'s form (``j >= m`` deletes, ``i >= n`` inserts)
    for the script its solve gives, written without the solve; None when the
    actionable pairs do not form a matching, a pair ties its delete plus
    insert exactly, or a price reaches ``_DIRECT_LIMIT``."""
    n, m = len(del_costs), len(ins_costs)
    held = [False] * m
    cells = []
    for i, row in enumerate(pair):
        forbidden = row.count(None)
        if forbidden == m:  # no partner: deleted
            cells.append((i, m))
            continue
        if forbidden < m - 1:
            return None
        for j, p in enumerate(row):
            if p is not None:
                break
        # the delete and insert this pair spares, as the padded matrix holds them
        spared = (del_costs[i] + _TIE_EPS) + (ins_costs[j] + _TIE_EPS)
        if held[j] or p >= _DIRECT_LIMIT or p == spared:
            return None
        held[j] = True
        cells += [(i, j)] if p < spared else [(i, m), (n, j)]
    if max(del_costs + ins_costs, default=0.0) >= _DIRECT_LIMIT:
        return None
    return cells + [(n, j) for j in range(m) if not held[j]]


def csed(
    generated: Iterable[str] | ConceptMultiset,
    target: Iterable[str] | ConceptMultiset,
    tax: Taxonomy,
    cfg: CostConfig = PATH_CONFIG,
) -> EditScript:
    """Minimum-cost edit script turning ``generated`` into ``target``.

    An op priced at zero is not written: a free pair (equal concepts, or the
    generated concept strictly more specific than the target), or a delete or
    insert of the root. Cost ties between a replace and the
    delete-plus-insert route resolve to the replace while prices stay small
    enough for the ``_TIE_EPS`` bias to count (see there).

    When no item has two actionable pairs, as in CLEVR objects whose replaces
    stay in a category, ``_direct`` writes the script the assignment solve
    would give without it; shared partners, exact ties and any price from
    2**20 up go to the solver.

    The script is read from, or solved into, the cost model's ``scripts``,
    so each distinct (S, T) multiset pair is solved once per cost model and
    later calls return the same frozen script. Its ops are the model's own
    (``CostModel.ops``).
    """
    return _script(as_multiset(generated), as_multiset(target), tax.cost_model(cfg))


def _script(S: ConceptMultiset, T: ConceptMultiset, model: CostModel) -> EditScript:
    """The script turning S into T under ``model``: read from its memo, or
    solved once and kept there."""
    script = model.scripts.get((S, T))
    if script is None:
        script = model.scripts[(S, T)] = _solve(S, T, model)
    return script


def _solve(
    s_items: ConceptMultiset, t_items: ConceptMultiset, model: CostModel
) -> EditScript:
    n, m = len(s_items), len(t_items)
    if n == 0 and m == 0:
        return EditScript(())
    del_costs, ins_costs, pair = _priced(s_items, t_items, model)
    cells = _direct(del_costs, ins_costs, pair)
    if cells is None:
        # sentinel for a forbidden pair: strictly worse than deleting s and inserting t
        pair = [
            [d + ins_costs[j] + 1.0 if p is None else p for j, p in enumerate(row)]
            for d, row in zip(del_costs, pair)
        ]
        cells = _assign(pair, del_costs, ins_costs)

    built = model.ops
    ops: list[EditOp] = []
    for i, j in cells:
        if j >= m:
            key, cost = (DELETE, s_items[i], None), del_costs[i]
        elif i >= n:
            key, cost = (INSERT, None, t_items[j]), ins_costs[j]
        else:
            key, cost = (REPLACE, s_items[i], t_items[j]), float(pair[i][j])
        if cost == 0.0:  # a free pair, or a delete or insert of the root: no op
            continue
        op = built.get(key)
        if op is None:  # first use under this model: build and check the op once
            op = built[key] = EditOp(*key, cost)
        ops.append(op)
    return EditScript(tuple(ops))


def brute_force_csed(
    generated: Iterable[str] | ConceptMultiset,
    target: Iterable[str] | ConceptMultiset,
    tax: Taxonomy,
    cfg: CostConfig = PATH_CONFIG,
) -> EditScript:
    """Exhaustive-matching reference solver for instances of at most
    ``BRUTE_FORCE_LIMIT`` items.

    Enumerates every partial matching between S and T instead of delegating
    to the assignment solver, and builds its own ops and remembers no
    script, so it can confirm ``csed`` independently; only the prices come
    from the cost model.
    """
    s_items, t_items = as_multiset(generated), as_multiset(target)
    del_costs, ins_costs, pair = _priced(s_items, t_items, tax.cost_model(cfg))
    n, m = len(s_items), len(t_items)
    if n + m > BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(n + m, BRUTE_FORCE_LIMIT)

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
    if best_choice is None:  # every route's sum overflowed to inf
        raise ValueError(_OVERFLOW)

    ops: list[EditOp] = []
    taken = [False] * m
    for i, j in enumerate(best_choice):  # an op of cost 0 is not written
        if j == -1:
            if del_costs[i] > 0.0:
                ops.append(EditOp(DELETE, source=s_items[i], cost=del_costs[i]))
        else:
            taken[j] = True
            if pair[i][j] > 0.0:
                ops.append(
                    EditOp(REPLACE, source=s_items[i], target=t_items[j], cost=pair[i][j])
                )
    for j in range(m):
        if not taken[j] and ins_costs[j] > 0.0:
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
    """Counts and costs per op kind in one pass over each script's ops. A
    kind's cost is summed per script first, then across scripts in order;
    that grouping fixes the float result."""
    counts = dict.fromkeys(_KIND_ORDER, 0)
    subtotals: dict[str, list[float]] = {kind: [] for kind in _KIND_ORDER}
    totals = []
    kind_of = attrgetter("kind")
    for script in scripts:
        # a script's ops are sorted by kind, so each kind is one run
        for kind, ops in groupby(script.ops, kind_of):
            costs = [op.cost for op in ops]
            counts[kind] += len(costs)
            subtotals[kind].append(float(sum(costs)))
        totals.append(script.total_cost)
    return Census(
        n_scripts=len(totals),
        n_delete=counts[DELETE], cost_delete=float(sum(subtotals[DELETE])),
        n_replace=counts[REPLACE], cost_replace=float(sum(subtotals[REPLACE])),
        n_insert=counts[INSERT], cost_insert=float(sum(subtotals[INSERT])),
        mean_total=float(sum(totals)) / len(totals) if totals else None,
    )
