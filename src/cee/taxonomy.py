"""Concept hierarchies and the edit cost model defined over them.

A taxonomy is a rooted DAG of concepts (multiple parents allowed, exactly one
root). Costs for replacing, deleting, and inserting concepts are derived from
path lengths in the hierarchy, with one twist: a generated concept that is a
descendant of (or equal to) the target concept costs nothing, since a more
specific concept still satisfies the target.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import deque
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import (
    CycleDetected,
    DanglingEdge,
    EmptySource,
    MultipleRoots,
    UnknownConcept,
)

REPLACE_DELETE_PLUS_INSERT = "delete-plus-insert"
REPLACE_SHORTEST_PATH = "shortest-path"
_REPLACE_MODES = (REPLACE_DELETE_PLUS_INSERT, REPLACE_SHORTEST_PATH)

_WS = re.compile(r"\s+")


def normalize_concept(name: str) -> str:
    """Trim, lowercase, and collapse internal whitespace. Idempotent."""
    out = _WS.sub(" ", str(name).strip().lower())
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
        if self.replace_mode not in _REPLACE_MODES:
            raise ValueError(f"replace_mode must be one of {_REPLACE_MODES}")
        if min(self.unit_edge_cost, self.delete_weight, self.insert_weight) <= 0:
            raise ValueError("cost weights must be positive")


FLATTENED_CONFIG = CostConfig(flattened=True)
PATH_CONFIG = CostConfig()

COST_PROFILES = {"flattened": FLATTENED_CONFIG, "path": PATH_CONFIG}


class Taxonomy:
    """Immutable rooted concept hierarchy with cached path queries.

    Instances are safe to share across threads once constructed; the lazy
    distance cache is only ever filled with idempotent values.
    """

    def __init__(
        self,
        root: str,
        parents: dict[str, frozenset[str]],
        attach_unknown: bool = False,
    ):
        self.root = root
        self.attach_unknown = attach_unknown
        self._parents = parents
        self._nodes = frozenset(parents) | {root}
        children: dict[str, set[str]] = {n: set() for n in self._nodes}
        for child, ps in parents.items():
            for p in ps:
                children[p].add(child)
        self._children = {n: frozenset(c) for n, c in children.items()}
        self._ancestors: dict[str, frozenset[str]] = {}
        self._dist: dict[str, dict[str, int]] = {}
        self._category = self._derive_categories()
        self._fingerprint: str | None = None

    # -- basic queries --------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return normalize_concept(name) in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @property
    def categories(self) -> tuple[str, ...]:
        """Direct children of the root, sorted."""
        return tuple(sorted(self._children[self.root]))

    @property
    def leaves(self) -> frozenset[str]:
        return frozenset(n for n in self._nodes if not self._children[n])

    def parents(self, name: str) -> frozenset[str]:
        return self._parents.get(self.resolve(name), frozenset())

    def children(self, name: str) -> frozenset[str]:
        return self._children.get(self.resolve(name), frozenset())

    def resolve(self, name: str) -> str:
        """Normalize ``name``; unknown concepts are an error unless the
        taxonomy was built with ``attach_unknown``, in which case they behave
        as direct children of the root."""
        norm = normalize_concept(name)
        if norm not in self._nodes and not self.attach_unknown:
            raise UnknownConcept(norm)
        return norm

    def ancestors_or_self(self, name: str) -> frozenset[str]:
        node = self.resolve(name)
        if node not in self._nodes:
            return frozenset({node, self.root})
        cached = self._ancestors.get(node)
        if cached is None:
            out = {node}
            queue = deque([node])
            while queue:
                for p in self._parents.get(queue.popleft(), ()):
                    if p not in out:
                        out.add(p)
                        queue.append(p)
            cached = frozenset(out)
            self._ancestors[node] = cached
        return cached

    def is_descendant_or_equal(self, s: str, t: str) -> bool:
        return self.resolve(t) in self.ancestors_or_self(s)

    def category_of(self, name: str) -> str | None:
        """Nearest category (direct root child) at or above ``name``.
        Root and attached unknowns have no category."""
        node = self.resolve(name)
        return self._category.get(node)

    def _derive_categories(self) -> dict[str, str]:
        top = self._children[self.root]
        out: dict[str, str] = {}
        for node in self._nodes:
            if node == self.root:
                continue
            hits = sorted(self.ancestors_or_self(node) & top)
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
        s, t = self.resolve(s), self.resolve(t)
        if s == t:
            return 0
        s_virtual = s not in self._nodes
        t_virtual = t not in self._nodes
        if s_virtual and t_virtual:
            return 2
        if s_virtual:
            return 1 + self._bfs(self.root)[t]
        if t_virtual:
            return self._bfs(s)[self.root] + 1
        return self._bfs(s)[t]

    def depth(self, name: str) -> int:
        return self.path_length(name, self.root)

    def shortest_path(self, s: str, t: str) -> list[str]:
        """One shortest node sequence from s to t; ties resolve to the
        lexicographically smallest sequence."""
        s, t = self.resolve(s), self.resolve(t)
        if s == t:
            return [s]
        # attached unknowns hang off the root
        if s not in self._nodes:
            return [s] + self.shortest_path(self.root, t)
        if t not in self._nodes:
            return self.shortest_path(s, self.root) + [t]
        dist_to_t = self._bfs(t)
        path = [s]
        node = s
        while node != t:
            nbrs = self._parents.get(node, frozenset()) | self._children.get(node, frozenset())
            node = min(n for n in nbrs if dist_to_t.get(n, -1) == dist_to_t[node] - 1)
            path.append(node)
        return path

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = [f"!root\t{self.root}"]
        for child in sorted(self._parents):
            for parent in sorted(self._parents[child]):
                lines.append(f"{child}\t{parent}")
        return "\n".join(lines) + "\n"

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            digest = hashlib.sha1(self.to_text().encode("utf-8")).hexdigest()
            self._fingerprint = digest[:16]
        return self._fingerprint


def _detect_cycle(parents: dict[str, frozenset[str]]) -> None:
    # iterative three-color DFS over child -> parent edges
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in parents}
    for start in sorted(parents):
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, list[str]]] = [(start, sorted(parents.get(start, ())))]
        color[start] = GREY
        while stack:
            node, todo = stack[-1]
            while todo:
                nxt = todo.pop()
                state = color.get(nxt, BLACK)
                if state == GREY:
                    raise CycleDetected(nxt)
                if state == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, sorted(parents.get(nxt, ()))))
                    break
            else:
                color[node] = BLACK
                stack.pop()


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
    edges: list[tuple[str, str]] = []
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
        if left == right:
            raise CycleDetected(left)
        edges.append((left, right))

    if root_name is not None:
        root_name = normalize_concept(root_name)
        if declared_root is not None and declared_root != root_name:
            raise MultipleRoots([declared_root, root_name])
        declared_root = root_name

    if not edges and declared_root is None:
        raise EmptySource()

    parents: dict[str, set[str]] = {}
    nodes: set[str] = set() if declared_root is None else {declared_root}
    for child, parent in edges:
        parents.setdefault(child, set()).add(parent)
        nodes.update((child, parent))

    frozen = {c: frozenset(ps) for c, ps in parents.items()}
    all_parents = {n: frozen.get(n, frozenset()) for n in nodes}
    _detect_cycle(all_parents)

    parentless = sorted(n for n in nodes if not all_parents[n])
    if declared_root is None:
        if len(parentless) > 1:
            raise MultipleRoots(parentless)
        if not parentless:
            raise EmptySource("no parentless node to serve as root")
        declared_root = parentless[0]
    else:
        if all_parents.get(declared_root):
            raise DanglingEdge(declared_root, "is the root but declares a parent")
        strays = [n for n in parentless if n != declared_root]
        if strays:
            raise DanglingEdge(strays[0], f"never attaches to root {declared_root!r}")

    return Taxonomy(declared_root, all_parents, attach_unknown=attach_unknown)


def load_taxonomy_file(path: str | Path, **kwargs) -> Taxonomy:
    return load_taxonomy(Path(path).read_text(encoding="utf-8"), **kwargs)


TAXONOMY_DIR_ENV = "CEE_TAXONOMY_DIR"


def resolve_taxonomy(name_or_path: str, attach_unknown: bool = False) -> Taxonomy:
    """Load a taxonomy by file path, by name in $CEE_TAXONOMY_DIR, or by
    bundled name (``clevr``, ``street``)."""
    p = Path(name_or_path)
    if p.suffix == ".tax" or p.exists():
        return load_taxonomy_file(p, attach_unknown=attach_unknown)
    env_dir = os.environ.get(TAXONOMY_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / f"{name_or_path}.tax"
        if candidate.exists():
            return load_taxonomy_file(candidate, attach_unknown=attach_unknown)
    bundle = resources.files("cee") / "data" / f"{name_or_path}.tax"
    if bundle.is_file():
        return load_taxonomy(bundle.read_text(encoding="utf-8"), attach_unknown=attach_unknown)
    raise FileNotFoundError(f"no taxonomy named {name_or_path!r} on disk, "
                            f"in ${TAXONOMY_DIR_ENV}, or bundled")


def clevr_taxonomy(attach_unknown: bool = False) -> Taxonomy:
    return resolve_taxonomy("clevr", attach_unknown=attach_unknown)


# -- cost model ------------------------------------------------------------


def distance(tax: Taxonomy, s: str, t: str, cfg: CostConfig | None = None) -> float:
    """Directed semantic distance from generated concept s to target t.

    Zero when s equals t or is a descendant of t (more specific output still
    satisfies the target); otherwise the weighted undirected path length.
    """
    cfg = cfg or PATH_CONFIG
    if tax.is_descendant_or_equal(s, t):
        return 0.0
    return cfg.unit_edge_cost * tax.path_length(s, t)


def delete_cost(tax: Taxonomy, s: str, cfg: CostConfig | None = None) -> float:
    cfg = cfg or PATH_CONFIG
    node = tax.resolve(s)
    if node == tax.root:
        return 0.0
    hops = 1 if cfg.flattened else tax.depth(node)
    return cfg.delete_weight * hops


def insert_cost(tax: Taxonomy, t: str, cfg: CostConfig | None = None) -> float:
    cfg = cfg or PATH_CONFIG
    node = tax.resolve(t)
    if node == tax.root:
        return 0.0
    hops = 1 if cfg.flattened else tax.depth(node)
    return cfg.insert_weight * hops


def replace_cost(tax: Taxonomy, s: str, t: str, cfg: CostConfig | None = None) -> float:
    cfg = cfg or PATH_CONFIG
    if cfg.replace_mode == REPLACE_SHORTEST_PATH:
        return distance(tax, s, t, cfg)
    return delete_cost(tax, s, cfg) + insert_cost(tax, t, cfg)


def is_replaceable(tax: Taxonomy, s: str, t: str, cfg: CostConfig | None = None) -> bool:
    """A replace s -> t is actionable when it beats delete-plus-insert through
    the root, or when the concepts share an ancestor below the root (including
    one being an ancestor of the other)."""
    cfg = cfg or PATH_CONFIG
    s, t = tax.resolve(s), tax.resolve(t)
    if replace_cost(tax, s, t, cfg) < delete_cost(tax, s, cfg) + insert_cost(tax, t, cfg):
        return True
    shared = (tax.ancestors_or_self(s) & tax.ancestors_or_self(t)) - {tax.root}
    return bool(shared)
