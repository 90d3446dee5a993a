"""Concept hierarchies and the edit cost model defined over them.

A taxonomy is a rooted DAG of concepts (multiple parents allowed, exactly one
root). Costs for replacing, deleting, and inserting concepts are derived from
path lengths in the hierarchy, with one twist: a generated concept that is a
descendant of (or equal to) the target concept costs nothing, since a more
specific concept still satisfies the target.
"""

from __future__ import annotations

import math
import os
import re
from collections import deque
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    CycleDetected,
    DanglingEdge,
    EmptySource,
    MultipleRoots,
    TaxonomyError,
    UnknownConcept,
)

if TYPE_CHECKING:
    from .edits import EditOp, EditScript
    from .story import ClevrObject

REPLACE_DELETE_PLUS_INSERT = "delete-plus-insert"
REPLACE_SHORTEST_PATH = "shortest-path"
REPLACE_MODES = (REPLACE_DELETE_PLUS_INSERT, REPLACE_SHORTEST_PATH)

ARROW = "→"  # joins a replace token's source and target, so no concept name holds it
_ARROW_IN_NAME = "concept name {!r} holds '→', which replace tokens put between source and target"
_WS = re.compile(r"\s+")
_UNPRICED = object()  # marks a (s, t) pair the cost model has not priced yet


def normalize_concept(name: str) -> str:
    """Trim, lowercase, and collapse internal whitespace. Idempotent.
    Anything but a string is a ``ValueError``, never a concept."""
    if not isinstance(name, str):
        raise ValueError(f"concept name must be a string, got {type(name).__name__}")
    out = _WS.sub(" ", name.strip().lower())
    if not out:
        raise ValueError("concept name is empty after trimming")
    return out


@dataclass(frozen=True)
class CostConfig:
    """Weights for the three edit operations.

    ``flattened`` forces delete/insert of any non-root concept to cost one
    weighted unit regardless of its depth; replace distances still follow the
    hierarchy. This is the profile used for attribute vocabularies where every
    semantic sits directly under its category.
    """

    unit_edge_cost: float = 1.0
    delete_weight: float = 1.0
    insert_weight: float = 1.0
    replace_mode: str = REPLACE_DELETE_PLUS_INSERT
    flattened: bool = False

    def __post_init__(self):
        if self.replace_mode not in REPLACE_MODES:
            raise ValueError(f"replace_mode must be one of {REPLACE_MODES}")
        for name in ("unit_edge_cost", "delete_weight", "insert_weight"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


FLATTENED_CONFIG = CostConfig(flattened=True)
PATH_CONFIG = CostConfig()

COST_PROFILES = {"flattened": FLATTENED_CONFIG, "path": PATH_CONFIG}


class Taxonomy:
    """Immutable rooted concept hierarchy with cached path queries.

    Instances are safe to share across threads once constructed; the lazy
    caches (resolved names, distances, cost models, story objects) are only
    ever filled with idempotent values. ``objects`` holds every story object
    ``story.read_stories`` built and validated against this taxonomy, keyed
    by its raw attribute values, so each distinct object is built once per
    taxonomy, whichever file it is read from; one that fails is not kept.
    """

    def __init__(
        self,
        root: str | None,
        parents: dict[str, frozenset[str]],
        attach_unknown: bool = False,
    ):
        """Check the hierarchy once: no name holding ``ARROW``, no cycle, one
        root (inferred as the one parentless concept when ``root`` is None),
        and every other concept under it. The nodes are the keys and parents
        of ``parents``, and ``root``."""
        self.attach_unknown = attach_unknown
        self._parents = parents
        self._nodes = frozenset(parents).union(*parents.values(), () if root is None else (root,))
        arrowed = min((n for n in self._nodes if ARROW in n), default=None)
        if arrowed is not None:
            raise ValueError(_ARROW_IN_NAME.format(arrowed))
        # sorted, so a cycle is reported through the same node on every run
        self._ancestors = {n: self._walk_up(n) for n in sorted(self._nodes)}
        parentless = sorted(n for n in self._nodes if not parents.get(n))
        if root is None:
            if len(parentless) != 1:
                raise MultipleRoots(parentless)
            root = parentless[0]
        elif parents.get(root):
            raise DanglingEdge(root, "is the root but declares a parent")
        strays = [n for n in parentless if n != root]
        if strays:
            raise DanglingEdge(strays[0], f"never attaches to root {root!r}")
        self.root = root
        children: dict[str, set[str]] = {n: set() for n in self._nodes}
        for child, ps in parents.items():
            for p in ps:
                children[p].add(child)
        self._children = {n: frozenset(c) for n, c in children.items()}
        top = self._children[root]
        # the root children at or above each node: two nodes share an ancestor
        # below the root exactly when these sets meet, and they give the category
        self._tops = {n: above & top for n, above in self._ancestors.items()}
        self._category = {n: n if n in top else min(tops) for n, tops in self._tops.items() if tops}
        self._resolved: dict[str, str] = {}
        self._dist: dict[str, dict[str, int]] = {}
        self._depth = self._bfs(root)
        self._models: dict[CostConfig, CostModel] = {}
        self.objects: dict[tuple, ClevrObject] = {}

    # -- basic queries --------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @property
    def categories(self) -> tuple[str, ...]:
        """Direct children of the root, sorted."""
        return tuple(sorted(self._children[self.root]))

    def resolve(self, name: str) -> str:
        """Normalize ``name``; unknown concepts are an error unless the
        taxonomy was built with ``attach_unknown``. This is the one check of a
        name from outside: the queries below take names as it returns them.
        Each string is checked once per taxonomy, and only a string that
        resolves is remembered, so a bad name fails every time it is asked."""
        found = self._resolved.get(name) if isinstance(name, str) else None
        if found is None:
            norm = normalize_concept(name)  # rejects anything but a string
            found = self._resolved[name] = norm if norm in self._nodes else self._unknown(norm)
        return found

    def _unknown(self, name: str) -> str:
        """``name``, which is no node, when the taxonomy attaches unknowns, else
        ``UnknownConcept``. An attached unknown is a direct child of the root:
        depth 1, ancestors ``{name, root}``, no category."""
        if not self.attach_unknown:
            raise UnknownConcept(name)
        if ARROW in name:
            raise ValueError(_ARROW_IN_NAME.format(name))
        return name

    def _walk_up(self, node: str) -> frozenset[str]:
        out = {node}
        queue = deque([node])
        while queue:
            for p in self._parents.get(queue.popleft(), ()):
                if p == node:
                    raise CycleDetected(node)
                if p not in out:
                    out.add(p)
                    queue.append(p)
        return frozenset(out)

    def ancestors_or_self(self, name: str) -> frozenset[str]:
        found = self._ancestors.get(name)
        if found is None:
            return frozenset({self._unknown(name), self.root})
        return found

    def is_descendant_or_equal(self, s: str, t: str) -> bool:
        return (t if t in self._nodes else self._unknown(t)) in self.ancestors_or_self(s)

    def is_leaf(self, name: str) -> bool:
        """No concept lies below ``name`` (an attached unknown is a leaf)."""
        return not self._children.get(name if name in self._nodes else self._unknown(name))

    def category_of(self, name: str) -> str | None:
        """Nearest category (direct root child) at or above ``name``.
        Root and attached unknowns have no category."""
        return self._category.get(name if name in self._nodes else self._unknown(name))

    # -- path queries ----------------------------------------------------

    def _bfs(self, src: str) -> dict[str, int]:
        cached = self._dist.get(src)
        if cached is not None:
            return cached
        dist = {src: 0}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            step = dist[node] + 1
            neighbors = self._parents.get(node, frozenset()) | self._children.get(node, frozenset())
            for nbr in neighbors:
                if nbr not in dist:
                    dist[nbr] = step
                    queue.append(nbr)
        self._dist[src] = dist
        return dist

    def path_length(self, s: str, t: str) -> int:
        """Undirected shortest-path edge count between two concepts."""
        if s in self._nodes and t in self._nodes:
            return self._bfs(s)[t]
        hops = self.depth(s) + self.depth(t)  # an attached unknown's path runs through the root
        return 0 if s == t else hops

    def depth(self, name: str) -> int:
        """Edge count to the root, read from the one BFS out of the root."""
        found = self._depth.get(name)
        if found is None:
            self._unknown(name)
            return 1
        return found

    def cost_model(self, cfg: CostConfig) -> "CostModel":
        """The one cost model of this taxonomy under ``cfg``."""
        model = self._models.get(cfg)
        if model is None:
            model = self._models[cfg] = CostModel(self, cfg)
        return model

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = [f"!root\t{self.root}"]
        for child in sorted(self._parents):
            for parent in sorted(self._parents[child]):
                lines.append(f"{child}\t{parent}")
        return "\n".join(lines) + "\n"


def load_taxonomy(source: str, attach_unknown: bool = False) -> Taxonomy:
    """Parse hierarchy text into a validated Taxonomy.

    Format: one ``child<TAB>parent`` edge per line, ``#`` comments, optional
    ``!root<TAB>name`` declaration. Without one, the root is inferred as the
    unique parentless node. No name may hold ``ARROW``.
    """
    declared_root: str | None = None
    parents: dict[str, set[str]] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t") if f.strip()]
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'child<TAB>parent', got {raw!r}")
        left, right = normalize_concept(fields[0]), normalize_concept(fields[1])
        for name in (left, right):
            if ARROW in name:
                raise ValueError(f"line {lineno}: {_ARROW_IN_NAME.format(name)}")
        if left == "!root":
            if declared_root is not None and declared_root != right:
                raise MultipleRoots([declared_root, right])
            declared_root = right
            continue
        parents.setdefault(left, set()).add(right)

    if not parents and declared_root is None:
        raise EmptySource()
    frozen = {c: frozenset(ps) for c, ps in parents.items()}
    return Taxonomy(declared_root, frozen, attach_unknown=attach_unknown)


TAXONOMY_DIR_ENV = "CEE_TAXONOMY_DIR"


def resolve_taxonomy(name_or_path: str, attach_unknown: bool = False) -> Taxonomy:
    """Load a taxonomy by file path, by name in $CEE_TAXONOMY_DIR, or by
    bundled name (``clevr``, ``street``). A file that does not decode, parse
    or form a valid hierarchy raises ``TaxonomyError`` naming the file."""
    env_dir = os.environ.get(TAXONOMY_DIR_ENV)
    named = f"{name_or_path}.tax"
    source = Path(name_or_path)
    if source.suffix != ".tax" and not source.is_file():
        if env_dir and (Path(env_dir) / named).is_file():
            source = Path(env_dir) / named
        else:
            source = resources.files("cee") / "data" / named
            if not source.is_file():
                raise FileNotFoundError(f"no taxonomy named {name_or_path!r} on disk, "
                                        f"in ${TAXONOMY_DIR_ENV}, or bundled")
    try:
        return load_taxonomy(source.read_text(encoding="utf-8"), attach_unknown=attach_unknown)
    except (TaxonomyError, ValueError) as exc:  # a bad byte, line or hierarchy
        raise TaxonomyError(f"{source}: {exc}") from exc


def clevr_taxonomy() -> Taxonomy:
    return resolve_taxonomy("clevr")


# -- cost model ------------------------------------------------------------


def distance(tax: Taxonomy, s: str, t: str, cfg: CostConfig = PATH_CONFIG) -> float:
    """Directed semantic distance from generated concept s to target t.

    Zero when s equals t or is a descendant of t (more specific output still
    satisfies the target); otherwise the weighted undirected path length.
    Like every cost function here, it takes names as ``Taxonomy.resolve``
    returns them; any other name raises ``UnknownConcept``.
    """
    if tax.is_descendant_or_equal(s, t):
        return 0.0
    return cfg.unit_edge_cost * tax.path_length(s, t)


def _hops(tax: Taxonomy, node: str, cfg: CostConfig) -> int:
    """Weighted units a delete or insert of resolved ``node`` costs."""
    if node == tax.root:
        return 0
    depth = tax.depth(node)  # read first, so an unknown name raises when flattened too
    return 1 if cfg.flattened else depth


def delete_cost(tax: Taxonomy, s: str, cfg: CostConfig = PATH_CONFIG) -> float:
    """Price of deleting resolved concept s."""
    return cfg.delete_weight * _hops(tax, s, cfg)


def insert_cost(tax: Taxonomy, t: str, cfg: CostConfig = PATH_CONFIG) -> float:
    """Price of inserting resolved concept t."""
    return cfg.insert_weight * _hops(tax, t, cfg)


def replace_cost(tax: Taxonomy, s: str, t: str, cfg: CostConfig = PATH_CONFIG) -> float:
    """Price of replacing resolved s by resolved t under ``cfg.replace_mode``."""
    if cfg.replace_mode == REPLACE_SHORTEST_PATH:
        return distance(tax, s, t, cfg)
    return delete_cost(tax, s, cfg) + insert_cost(tax, t, cfg)


def is_replaceable(tax: Taxonomy, s: str, t: str, cfg: CostConfig = PATH_CONFIG) -> bool:
    """A replace of resolved s by resolved t is actionable when it beats
    delete-plus-insert through the root, or when the concepts share an
    ancestor below the root (including one being an ancestor of the other)."""
    if replace_cost(tax, s, t, cfg) < delete_cost(tax, s, cfg) + insert_cost(tax, t, cfg):
        return True
    shared = (tax.ancestors_or_self(s) & tax.ancestors_or_self(t)) - {tax.root}
    return bool(shared)


class CostModel:
    """The prices of one (taxonomy, cost config), each computed once.

    Reached through ``Taxonomy.cost_model``. Every price comes from the free
    functions above, which stay the reference for each formula (a pair is
    free when ``is_descendant_or_equal``, the test ``distance`` starts with);
    the model remembers the (delete, insert) prices of each concept and one
    price per (s, t) name pair, and reads which root children lie at or
    above a concept from the taxonomy, which derives that once. It takes
    names as ``Taxonomy.resolve`` returns them, as the readers and
    ``ConceptMultiset`` hold them; any other name raises ``UnknownConcept``
    on every call, since failures are not remembered.

    ``scripts`` holds every edit script solved under this model, keyed by
    the (S, T) multiset pair; ``edits.csed`` and ``edits.frame_csed`` read
    and fill it through one helper, ``edits._script``. ``ops`` holds every
    edit op those scripts hold, keyed by (kind, source, target): the solve
    builds and checks an op the first time it chooses it under this model,
    so scripts of one model that make the same edit share one op object,
    and two models never share one. ``closed_form`` holds, per object
    multiset, whether ``edits.frame_csed`` may write a frame holding it
    without the solve; edits' frame guard, ``_residue_exact``, fills it.
    """

    def __init__(self, tax: Taxonomy, cfg: CostConfig):
        self.tax = tax
        self.cfg = cfg
        self._costs: dict[str, tuple[float, float]] = {}
        self._pairs: dict[tuple[str, str], float | None] = {}
        self.scripts: dict[tuple[tuple[str, ...], tuple[str, ...]], EditScript] = {}
        self.ops: dict[tuple[str, str | None, str | None], EditOp] = {}
        self.closed_form: dict[tuple[str, ...], bool] = {}

    def costs(self, name: str) -> tuple[float, float]:
        """(delete, insert) price of one concept."""
        prices = self._costs.get(name)
        if prices is None:
            tax, cfg = self.tax, self.cfg
            prices = self._costs[name] = (delete_cost(tax, name, cfg), insert_cost(tax, name, cfg))
        return prices

    def pair(self, s: str, t: str) -> float | None:
        """Price of turning generated s into target t: 0.0 when s satisfies
        t, the replace cost when s -> t is actionable, None otherwise."""
        key = (s, t)
        price = self._pairs.get(key, _UNPRICED)
        if price is _UNPRICED:
            price = self._pairs[key] = self._price(s, t)
        return price

    def _price(self, s: str, t: str) -> float | None:
        """``is_replaceable``'s rule on remembered prices: an ancestor below
        the root is shared exactly when some root child lies at or above both
        concepts, and under delete-plus-insert the replace cost is the very
        sum its price test compares with, so that test never holds there."""
        tax = self.tax
        if tax.is_descendant_or_equal(s, t):
            return 0.0
        # prices first, so a name that is no concept raises before the table is read
        (delete, _), (_, insert) = self.costs(s), self.costs(t)
        # an attached unknown hangs from the root: it is its own root child
        shared = not tax._tops.get(s, {s}).isdisjoint(tax._tops.get(t, {t}))
        if self.cfg.replace_mode == REPLACE_SHORTEST_PATH:
            price = distance(tax, s, t, self.cfg)
            return price if shared or price < delete + insert else None
        return delete + insert if shared else None
