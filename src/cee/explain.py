"""Local explanation rendering and global explanation mining.

Local: an edit script rendered as a human-readable row (story frames) or a
grouped I/D/R listing (scenes). Transactions: the eval commands render each
story's or image's distinct edit tokens as one JSON line
(``transaction_line``) and write a file of them (``write_transactions``).
Global: replacement rules counted from the R tokens of each transaction,
plus insert/delete frequency tables; apriori mines general frequent itemsets
over the same transactions. All three take ``edit_set_counts``: each
distinct edit set once, weighted by how many transactions hold it.
``read_transactions`` returns that count for a file.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import attrgetter
from pathlib import Path
from typing import Collection, Iterable, Mapping

from .edits import ARROW, DELETE, INSERT, REPLACE, EditOp, EditScript, format_cost
from .errors import MalformedObject, _read_jsonl
from .taxonomy import Taxonomy, normalize_concept

# json.dumps(obj, sort_keys=True, ensure_ascii=False) without a new encoder per line
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def transaction_line(id: str, scripts: Iterable[EditScript]) -> str:
    """One story's or image's transaction as its JSON line: the id and the
    distinct edit tokens of ``scripts``, sorted."""
    tokens = {token for script in scripts for token in script.edit_tokens()}
    return _ENCODER.encode({"id": id, "edits": sorted(tokens)}) + "\n"


def _check_edit(item: object) -> None:
    """``item`` must be a token as ``EditOp.token`` writes it: ``D:<c>``, ``I:<c>``
    or ``R:<c>→<c>``, each ``c`` a concept name that normalisation leaves as is and
    that holds no ``→``, as no concept name does."""
    if not isinstance(item, str):
        raise MalformedObject(f"edit {item!r} is not a string")
    names = (item[2:],) if item[:2] in ("D:", "I:") else split_replace_token(item)
    if not names or not all(
        name.strip() and ARROW not in name and normalize_concept(name) == name for name in names
    ):
        raise MalformedObject(
            f"edit {item!r} is not D:<concept>, I:<concept> or R:<concept>{ARROW}<concept>"
            " over normalised concept names"
        )


def read_transactions(path: str | Path) -> Counter[frozenset[str]]:
    """Each distinct edit set of the file, with the number of lines that hold it:
    ``edit_set_counts`` of its transactions, without building one per line. Ids
    may repeat (pooled per-threshold files hold each image once per threshold)
    and are checked, then dropped.

    A line that repeats an earlier line byte for byte is parsed once. Each
    distinct edit of the file passes ``_check_edit`` once."""
    checked: set[str] = set()

    def build(id: str, edits: list) -> frozenset[str]:
        try:
            items = frozenset(edits)
            if items <= checked:
                return items
        except TypeError:  # an unhashable edit, which the loop names
            pass
        for item in edits:  # in list order, so the first bad edit is named
            if not isinstance(item, str) or item not in checked:
                _check_edit(item)
                checked.add(item)
        return frozenset(edits)

    return _read_jsonl(path, "id", "edits", build, unique=None)


def write_transactions(path: str | Path, lines: Iterable[str]) -> None:
    """Write the lines ``transaction_line`` rendered; the directory must exist."""
    Path(path).write_text("".join(lines), encoding="utf-8")


def split_replace_token(token: str) -> tuple[str, str] | None:
    if not token.startswith("R:"):
        return None
    body = token[2:]
    source, _, target = body.partition(ARROW)
    return source, target


def edit_set_counts(edit_sets: Iterable[Collection[str]]) -> Counter[frozenset[str]]:
    """Each distinct edit set with the number of transactions that hold it."""
    return Counter(map(frozenset, edit_sets))


def _add(counts: dict, keys: Iterable, weight: int) -> None:
    for key in keys:
        counts[key] = counts.get(key, 0) + weight


def _min_count(min_support: float, n: int) -> int:
    """Smallest count of n transactions whose support fraction reaches
    min_support; the slack absorbs float error when min_support * n lands
    on an exact integer."""
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must be in (0, 1]")
    return max(1, math.ceil(min_support * n - 1e-9))


def apriori(
    edit_sets: Mapping[frozenset[str], int],
    min_support: float,
) -> dict[frozenset[str], int]:
    """Frequent itemsets (by absolute transaction count) at min_support, over
    ``edit_set_counts`` of the transactions.

    Classic level-wise search: level k candidates join two frequent (k-1)
    itemsets and are pruned unless every (k-1) subset is frequent.
    """
    min_count = _min_count(min_support, sum(edit_sets.values()))
    counts: dict[frozenset[str], int] = {}
    singles: dict[frozenset[str], int] = {}
    for t, weight in edit_sets.items():
        _add(singles, (frozenset([item]) for item in t), weight)
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
        for t, weight in edit_sets.items():
            _add(next_level, (cand for cand in candidates if cand <= t), weight)
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
    edit_sets: Mapping[frozenset[str], int],
    min_support: float = 0.01,
) -> list[AssociationRule]:
    """Replacement rules ranked by support, over ``edit_set_counts`` of the
    transactions.

    support counts transactions holding the exact R token; antecedent /
    consequent support count transactions holding any R token with the same
    source / target. Membership is per transaction, so a token repeated
    within one sample still counts once. Each distinct edit set is visited
    once and counts as many times as transactions hold it; each distinct
    token is split once.
    """
    n = sum(edit_sets.values())
    min_count = _min_count(min_support, n)
    if n == 0:
        return []

    # rules read only a transaction's R tokens, so each distinct set of them is
    # counted once; a token maps to exactly one (source, target) and back
    split = {token: split_replace_token(token) for token in set().union(*edit_sets)}
    replaces = frozenset(token for token, pair in split.items() if pair is not None)
    replace_sets: dict[frozenset[str], int] = {}
    for t, weight in edit_sets.items():
        key = t & replaces
        replace_sets[key] = replace_sets.get(key, 0) + weight
    pair_counts: dict[tuple[str, str], int] = {}
    source_members: dict[str, int] = {}
    target_members: dict[str, int] = {}
    for tokens, weight in replace_sets.items():
        pairs = [split[token] for token in tokens]
        _add(pair_counts, pairs, weight)
        _add(source_members, {source for source, _ in pairs}, weight)
        _add(target_members, {target for _, target in pairs}, weight)

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
    edit_sets: Mapping[frozenset[str], int],
    top_k: int,
) -> dict[str, list[tuple[str, int, float]]]:
    """Top inserted/deleted concepts over ``edit_set_counts`` of the
    transactions: (concept, count, share of that kind's edits as a
    percentage). Ties rank lexicographically. Each distinct edit set is
    visited once and counts as many times as transactions hold it; each
    distinct token is split once."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    token_counts: dict[str, int] = {}
    for t, weight in edit_sets.items():
        _add(token_counts, t, weight)
    counts: dict[str, dict[str, int]] = {INSERT: {}, DELETE: {}}
    for token, count in token_counts.items():  # a token is one (kind, concept) and back
        kind, _, concept = token.partition(":")
        if kind in counts and concept:
            counts[kind][concept] = count
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


def _runs(script: EditScript) -> dict[str, list[EditOp]]:
    """Each kind's ops in script order; a script holds its ops sorted by kind."""
    return {kind: list(ops) for kind, ops in groupby(script, attrgetter("kind"))}


def format_local(script: EditScript, tax: Taxonomy) -> str:
    """Single-row rendering: edit path | op letters | cost | semantics.

    Matches the story-table layout, e.g.
    ``{'rubber','sphere'} → {'metallic','cylinder'} | R,R | 4 | Material, Shape``.
    A concept with no category (the root, an attached unknown) reads ``?``.
    """
    if not script.ops:
        return "no edits"
    runs = _runs(script)
    segments = [f"D {_quoted(op.source for op in runs[DELETE])}"] if DELETE in runs else []
    replaces = runs.get(REPLACE, [])
    if len(replaces) == 1:
        segments.append(f"'{replaces[0].source}' {ARROW} '{replaces[0].target}'")
    elif replaces:
        srcs = _quoted(op.source for op in replaces)
        segments.append(f"{srcs} {ARROW} {_quoted(op.target for op in replaces)}")
    if INSERT in runs:
        segments.append(f"I {_quoted(op.target for op in runs[INSERT])}")

    letters = ",".join(op.kind for op in script)
    names = (name for op in script for name in (op.source, op.target) if name is not None)
    cats = map(tax.category_of, names)
    semantics = dict.fromkeys(cat.capitalize() if cat else "?" for cat in cats)
    return " | ".join(
        ["; ".join(segments), letters, format_cost(script.total_cost), ", ".join(semantics)]
    )


def format_local_grouped(script: EditScript) -> str:
    """Grouped scene rendering:

    I: { }
    D: {'car','car','car'}
    R: {'traffic light'→'light'}
    """
    runs = _runs(script)
    bodies = {
        INSERT: [f"'{op.target}'" for op in runs.get(INSERT, ())],
        DELETE: [f"'{op.source}'" for op in runs.get(DELETE, ())],
        REPLACE: [f"'{op.source}'{ARROW}'{op.target}'" for op in runs.get(REPLACE, ())],
    }
    return "\n".join(f"{kind}: {{{','.join(body) or ' '}}}" for kind, body in bodies.items())
