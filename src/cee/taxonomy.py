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

REPLACE_DELETE_PLUS_INSERT = "delete-plus-insert"
REPLACE_SHORTEST_PATH = "shortest-path"
REPLACE_MODES = (REPLACE_DELETE_PLUS_INSERT, REPLACE_SHORTEST_PATH)

_WS = re.compile(r"\s+")


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
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.unit_edge_cost, self.delete_weight, self.insert_weight) <= 0:
            raise ValueError("cost weights must be positive")


FLATTENED_CONFIG = CostConfig(flattened=True)
PATH_CONFIG = CostConfig()

COST_PROFILES = {"flattened": FLATTENED_CONFIG, "path": PATH_CONFIG}


class Taxonomy:
    """Immutable rooted concept hierarchy with cached path queries.

    Instances are safe to share across threads once constructed; the lazy
    caches (distances, cost models) are only ever filled with idempotent
    values.
    """

    def __init__(
        self,
        root: str | None,
        parents: dict[str, frozenset[str]],
        attach_unknown: bool = False,
    ):
        """Check the hierarchy once: no cycle, one root (inferred as the one
        parentless concept when ``root`` is None), and every other concept
        under it. The nodes are the keys and parents of ``parents``, and
        ``root``."""
        self.attach_unknown = attach_unknown
        self._parents = parents
        self._nodes = frozenset(parents).union(*parents.values(), () if root is None else (root,))
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
        self._dist: dict[str, dict[str, int]] = {}
        self._models: dict[CostConfig, CostModel] = {}
        self._category = self._derive_categories()

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
        name from outside: the queries below take names as it returns them."""
        norm = normalize_concept(name)
        return norm if norm in self._nodes else self._unknown(norm)

    def _unknown(self, name: str) -> str:
        """``name``, which is no node, when the taxonomy attaches unknowns, else
        ``UnknownConcept``. An attached unknown is a direct child of the root:
        depth 1, ancestors ``{name, root}``, no category."""
        if not self.attach_unknown:
            raise UnknownConcept(name)
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

    def category_of(self, name: str) -> str | None:
        """Nearest category (direct root child) at or above ``name``.
        Root and attached unknowns have no category."""
        return self._category.get(name if name in self._nodes else self._unknown(name))

    def _derive_categories(self) -> dict[str, str]:
        top = self._children[self.root]
        out: dict[str, str] = {}
        for node in self._nodes:
            if node == self.root:
                continue
            hits = sorted(self._ancestors[node] & top)
            if hits:
                out[node] = node if node in top else hits[0]
        return out

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
        if name not in self._nodes:
            self._unknown(name)
            return 1
        return self._bfs(self.root)[name]

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


def load_taxonomy(
    source: str,
    root_name: str | None = None,
    attach_unknown: bool = False,
) -> Taxonomy:
    """Parse hierarchy text into a validated Taxonomy.

    Format: one ``child<TAB>parent`` edge per line, ``#`` comments, optional
    ``!root<TAB>name`` declaration. The root may instead be passed as
    ``root_name`` or inferred as the unique parentless node.
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
        if left == "!root":
            if declared_root is not None and declared_root != right:
                raise MultipleRoots([declared_root, right])
            declared_root = right
            continue
        parents.setdefault(left, set()).add(right)

    if root_name is not None:
        root_name = normalize_concept(root_name)
        if declared_root is not None and declared_root != root_name:
            raise MultipleRoots([declared_root, root_name])
        declared_root = root_name

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
    if source.suffix != ".tax" and not source.exists():
        if env_dir and (Path(env_dir) / named).exists():
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


def clevr_taxonomy(attach_unknown: bool = False) -> Taxonomy:
    return resolve_taxonomy("clevr", attach_unknown=attach_unknown)


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
    functions above, which stay the only copy of each formula (a pair is free
    when ``is_descendant_or_equal``, the test ``distance`` starts with); the
    model only remembers them by name, or by (s, t) name pair. It takes names
    as ``Taxonomy.resolve`` returns them, as the readers and ``ConceptMultiset``
    hold them; any other name raises ``UnknownConcept`` on every call, since
    failures are not remembered.

    ``scripts`` holds every edit script solved under this model, keyed by
    the (S, T) multiset pair; ``edits.csed`` and ``story.frame_csed`` read
    and fill it through one helper, ``edits._script``. ``ops`` holds every
    edit op those scripts hold, keyed by (kind, source, target): the solve
    builds and checks an op the first time it chooses it under this model,
    so scripts of one model that make the same edit share one op object,
    and two models never share one.
    """

    def __init__(self, tax: Taxonomy, cfg: CostConfig):
        self.tax = tax
        self.cfg = cfg
        self._costs: dict[str, tuple[float, float]] = {}
        self._pairs: dict[tuple[str, str], float | None] = {}
        self.scripts: dict[tuple[tuple[str, ...], tuple[str, ...]], EditScript] = {}
        self.ops: dict[tuple[str, str | None, str | None], EditOp] = {}

    def costs(self, name: str) -> tuple[float, float]:
        """(delete, insert) price of one concept."""
        price = self._costs.get(name)
        if price is None:
            tax, cfg = self.tax, self.cfg
            price = self._costs[name] = (delete_cost(tax, name, cfg), insert_cost(tax, name, cfg))
        return price

    def pair(self, s: str, t: str) -> float | None:
        """Price of turning generated s into target t: 0.0 when s satisfies
        t, the replace cost when s -> t is actionable, None otherwise."""
        key = (s, t)
        if key in self._pairs:
            return self._pairs[key]
        tax, cfg = self.tax, self.cfg
        if tax.is_descendant_or_equal(s, t):
            price = 0.0
        elif is_replaceable(tax, s, t, cfg):
            price = replace_cost(tax, s, t, cfg)
        else:
            price = None
        self._pairs[key] = price
        return price
