"""Labelled defining graphs and their combinatorial decompositions.

A defining graph has named vertices and a symmetric label m(u, v) on each
unordered pair, an integer >= 2 or infinity.  An absent edge means the label
is infinity; the parser also accepts an explicit ``inf`` token and normalizes
it to absence.  Vertex declaration order is preserved and is the global
tie-breaking order used by every other module.

The Coxeter diagram joins every pair whose label is not 2, infinity
included.  Its connected components are the join factors, and spherical and
Euclidean graphs are recognized by naming each component from the
classification, with integer work and no field arithmetic; the spherical
types also give the Coxeter number and whether -1 lies in W.  The Gram form
with its exact minors, and the Coxeter number and longest element computed
by matrix products (in ``coxeter``), are kept as the independent references
the tests check the classification against.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator

INF = float("inf")

# Default vertex-count guard of `analyze` (its --max-vertices option).
MAX_VERTICES = 16

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class GraphFormatError(ValueError):
    """Raised when a graph file or graph construction data is malformed."""


class DefiningGraph:
    """Immutable labelled graph; construct via :func:`make_graph` or :func:`parse_graph`.

    A slotted value class: equality, hashing, pickling and the repr see only
    the vertices and the edges, never the lookup tables built from them.
    """

    __slots__ = ("vertices", "edges", "_index", "_labels")

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]  # sorted, distinct (i, j, m) with i < j, m finite
    _index: dict[str, int]
    _labels: dict[tuple[int, int], int]

    def __init__(self, vertices: tuple[str, ...], edges: tuple[tuple[int, int, int], ...]) -> None:
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise GraphFormatError("duplicate vertex name")
        for v in vertices:
            if not _NAME_RE.fullmatch(v):
                raise GraphFormatError(f"invalid vertex name {v!r}")
        labels: dict[tuple[int, int], int] = {}
        for i, j, m in edges:
            if i == j:
                raise GraphFormatError(f"self-loop on {vertices[i]!r}")
            if not (0 <= i < j < len(vertices)):
                raise GraphFormatError("edge endpoints out of range")
            if not (isinstance(m, int) and m >= 2):
                raise GraphFormatError(f"label {m!r} must be an integer >= 2")
            if (i, j) in labels and labels[(i, j)] != m:
                raise GraphFormatError(
                    f"conflicting labels for ({vertices[i]}, {vertices[j]})"
                )
            labels[(i, j)] = m
        # One stored form per graph, so equality and hashing ignore edge order
        # and repeated lines.
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(sorted((i, j, m) for (i, j), m in labels.items())))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return DefiningGraph, (self.vertices, self.edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"DefiningGraph(vertices={self.vertices!r}, edges={self.edges!r})"

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def label(self, u: str, v: str) -> int | float:
        """Symmetric label of the pair; INF when the edge is absent."""
        i, j = self.index(u), self.index(v)
        if i == j:
            raise ValueError(f"no label for the pair ({u}, {u})")
        return self._labels.get((min(i, j), max(i, j)), INF)

    def finite_labels(self) -> list[int]:
        return [m for _, _, m in self.edges]

    def subset(self, names: Iterable[str]) -> tuple[str, ...]:
        """Canonicalize a vertex subset into declaration order, validating membership."""
        seen = {self.index(v) for v in names}
        return tuple(v for i, v in enumerate(self.vertices) if i in seen)

    def adjacent(self, u: str, v: str) -> bool:
        return self.label(u, v) != INF

    # -- derived graphs --------------------------------------------------

    def induced(self, names: Iterable[str]) -> "DefiningGraph":
        """Subgraph induced on a vertex subset, declaration order preserved."""
        keep = self.subset(names)
        pos = {v: k for k, v in enumerate(keep)}
        edges = tuple(
            (pos[self.vertices[i]], pos[self.vertices[j]], m)
            for i, j, m in self.edges
            if self.vertices[i] in pos and self.vertices[j] in pos
        )
        return DefiningGraph(keep, edges)

    def cone_points(self) -> tuple[str, ...]:
        """Vertices adjacent (finite label) to every other vertex."""
        deg = [0] * len(self.vertices)
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        full = len(self.vertices) - 1
        return tuple(v for i, v in enumerate(self.vertices) if deg[i] == full)

    def is_clique(self) -> bool:
        n = len(self.vertices)
        return len(self._labels) == n * (n - 1) // 2

    def maximal_cliques(self) -> Iterator[tuple[str, ...]]:
        """Every maximal set of pairwise adjacent vertices, each in declaration
        order.  The pivoting Bron-Kerbosch search runs in declaration order, so
        the graph alone fixes the order in which cliques come."""
        adjacent: list[set[int]] = [set() for _ in self.vertices]
        for i, j, _ in self.edges:
            adjacent[i].add(j)
            adjacent[j].add(i)

        def extend(clique, candidates, excluded):
            if not candidates and not excluded:
                yield tuple(self.vertices[i] for i in sorted(clique))
                return
            pivot = max(sorted(candidates | excluded), key=lambda u: len(candidates & adjacent[u]))
            for v in sorted(candidates - adjacent[pivot]):
                yield from extend(clique + (v,), candidates & adjacent[v], excluded & adjacent[v])
                candidates = candidates - {v}
                excluded = excluded | {v}

        return extend((), set(range(len(self.vertices))), set())

    def join_factors(self) -> list["DefiningGraph"]:
        """Maximal decomposition as a join with all cross labels equal to 2.

        Factors are the connected components of the Coxeter diagram, each
        returned as an induced subgraph, ordered by smallest contained vertex
        in declaration order.
        """
        return [
            self.induced(self.vertices[i] for i in comp) for comp in _components(_diagram(self))
        ]

    def amalgam_split(
        self, x: str, y: str
    ) -> tuple["DefiningGraph", "DefiningGraph", "DefiningGraph"]:
        """The three induced subgraphs (minus x, minus both, minus y) exhibited
        by an amalgamated-product splitting over a non-adjacent pair."""
        if self.label(x, y) != INF:
            raise ValueError(
                f"label({x}, {y}) is finite; no amalgamated splitting over this pair"
            )
        rest = [v for v in self.vertices if v not in (x, y)]
        return (
            self.induced(rest + [y]),
            self.induced(rest),
            self.induced(rest + [x]),
        )

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = ["vertices: " + " ".join(self.vertices)]
        for i, j, m in self.edges:
            lines.append(f"edge {self.vertices[i]} {self.vertices[j]} {m}")
        return "\n".join(lines) + "\n"


def make_graph(
    vertices: Iterable[str], edges: Iterable[tuple[str, str, int | float]] = ()
) -> DefiningGraph:
    """Build a graph from vertex names and (u, v, m) triples; m may be INF.
    A pair may repeat only with the same label, INF included."""
    verts = tuple(vertices)
    index = {v: i for i, v in enumerate(verts)}
    if len(index) != len(verts):
        raise GraphFormatError("duplicate vertex name")
    seen: dict[tuple[str, str], int | float] = {}
    normalized = []
    for u, v, m in edges:
        if seen.setdefault((min(u, v), max(u, v)), m) != m:
            raise GraphFormatError(f"conflicting labels for edge ({u}, {v})")
        if u not in index:
            raise GraphFormatError(f"unknown vertex {u!r} in edge")
        if v not in index:
            raise GraphFormatError(f"unknown vertex {v!r} in edge")
        if u == v:
            raise GraphFormatError(f"self-loop on {u!r}")
        if m == INF:
            continue
        i, j = sorted((index[u], index[v]))
        normalized.append((i, j, m))
    return DefiningGraph(verts, tuple(normalized))


def parse_graph(text: str) -> DefiningGraph:
    """Parse the line-oriented graph file format.

    First non-comment line: ``vertices: v1 v2 ... vn``.  Then ``edge u v m``
    lines with m an integer >= 2 or ``inf``.  ``#`` starts a comment.
    """
    vertices: tuple[str, ...] | None = None
    edges: list[tuple[str, str, int | float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if vertices is None:
            if not line.startswith("vertices:"):
                raise GraphFormatError(
                    f"line {lineno}: expected 'vertices:' declaration first"
                )
            vertices = tuple(line[len("vertices:"):].split())
            if not all(_NAME_RE.fullmatch(v) for v in vertices):
                raise GraphFormatError(f"line {lineno}: invalid vertex name")
            if len(set(vertices)) != len(vertices):
                raise GraphFormatError(f"line {lineno}: duplicate vertex")
            continue
        parts = line.split()
        if parts[0] != "edge" or len(parts) != 4:
            raise GraphFormatError(f"line {lineno}: expected 'edge u v m'")
        _, u, v, mtext = parts
        if mtext == "inf":
            m: int | float = INF
        else:
            try:
                m = int(mtext)
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: label {mtext!r} is not an integer or 'inf'"
                ) from None
            if m < 2:
                raise GraphFormatError(f"line {lineno}: label {m} < 2")
        edges.append((u, v, m))
    if vertices is None:
        raise GraphFormatError("missing 'vertices:' line")
    return make_graph(vertices, edges)


# -- Coxeter diagram classification -------------------------------------------
#
# The connected spherical diagrams are A_n, B_n, D_n, E_6-8, F_4, H_3, H_4
# and I_2(m), and the connected Euclidean ones are A~_n (A~_1 is the label
# infinity), B~_n, C~_n, D~_n, E~_6-8, F~_4 and G~_2 (Coxeter 1935;
# Humphreys, Reflection Groups and Coxeter Groups, 2.4-2.7).  So each
# component is named from its shape and labels with O(n^2) integer work, and
# each spherical type brings its Coxeter number h and whether -1 lies in W
# (exactly when every degree is even).

_SPHERICAL = "spherical"
_EUCLIDEAN = "euclidean"

# (kind, Coxeter number h, -1 in W) of one component; kind and h are None for
# a component that is neither spherical nor Euclidean, h for a Euclidean one.
DiagramType = tuple[str | None, int | None, bool]

_NEITHER: DiagramType = (None, None, False)
_AFFINE: DiagramType = (_EUCLIDEAN, None, False)

# Paths with a label other than 3 that are neither A_n, B_n nor C~_n, read
# from one end (both directions are looked up).
_EXCEPTIONAL_PATHS: dict[tuple[int, ...], DiagramType] = {
    (5, 3): (_SPHERICAL, 10, True),  # H_3
    (5, 3, 3): (_SPHERICAL, 30, True),  # H_4
    (3, 4, 3): (_SPHERICAL, 12, True),  # F_4
    (6, 3): _AFFINE,  # G~_2
    (3, 4, 3, 3): _AFFINE,  # F~_4
}

# Label-3 trees with one branch vertex, by sorted arm lengths; the arms
# (1, 1, r) are D_(r+3).
_STARS: dict[tuple[int, ...], DiagramType] = {
    (1, 2, 2): (_SPHERICAL, 12, False),  # E_6
    (1, 2, 3): (_SPHERICAL, 18, True),  # E_7
    (1, 2, 4): (_SPHERICAL, 30, True),  # E_8
    (2, 2, 2): _AFFINE,  # E~_6
    (1, 3, 3): _AFFINE,  # E~_7
    (1, 2, 5): _AFFINE,  # E~_8
    (1, 1, 1, 1): _AFFINE,  # D~_4
}


def _diagram(g: DefiningGraph) -> list[dict[int, int | float]]:
    """Neighbours of each vertex index in the Coxeter diagram, with labels."""
    n = len(g.vertices)
    nbrs: list[dict[int, int | float]] = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = g._labels.get((i, j), INF)
            if m != 2:
                nbrs[i][j] = nbrs[j][i] = m
    return nbrs


def _arm(nbrs: list[dict[int, int | float]], prev: int, cur: int) -> tuple[int, ...]:
    """Labels of a tree diagram from the edge (prev, cur) onward, up to the
    first vertex whose degree is not 2."""
    labels = [nbrs[prev][cur]]
    while len(nbrs[cur]) == 2:
        prev, cur = cur, next(u for u in nbrs[cur] if u != prev)
        labels.append(nbrs[prev][cur])
    return tuple(labels)


def _classify_path(labels: tuple[int, ...]) -> DiagramType:
    k = len(labels) + 1
    for seq in (labels, labels[::-1]):
        if all(m == 3 for m in seq[:-1]):
            if seq[-1] == 3:
                return (_SPHERICAL, k + 1, False)  # A_k with k >= 3
            if seq[-1] == 4:
                return (_SPHERICAL, 2 * k, True)  # B_k
        if seq[0] == seq[-1] == 4 and all(m == 3 for m in seq[1:-1]):
            return _AFFINE  # C~_(k-1)
        if seq in _EXCEPTIONAL_PATHS:
            return _EXCEPTIONAL_PATHS[seq]
    return _NEITHER


def _classify_component(nbrs: list[dict[int, int | float]], comp: list[int]) -> DiagramType:
    k = len(comp)
    if k == 1:
        return (_SPHERICAL, 2, True)  # A_1
    labels = [m for v in comp for u, m in nbrs[v].items() if v < u]
    if k == 2:
        m = labels[0]
        return _AFFINE if m == INF else (_SPHERICAL, m, m % 2 == 0)  # A~_1 or I_2(m)
    if len(labels) > k:  # more than one cycle
        return _NEITHER
    degree = {v: len(nbrs[v]) for v in comp}
    simply_laced = all(m == 3 for m in labels)
    if len(labels) == k:  # one cycle
        cycle = simply_laced and all(d == 2 for d in degree.values())
        return _AFFINE if cycle else _NEITHER  # A~_(k-1)
    branches = [v for v in comp if degree[v] > 2]
    if not branches:
        end = next(v for v in comp if degree[v] == 1)
        return _classify_path(_arm(nbrs, end, next(iter(nbrs[end]))))
    if len(branches) == 2:  # D~_(k-1): a path forking into two leaves at each end
        forks = all(
            degree[b] == 3 and sum(degree[u] == 1 for u in nbrs[b]) == 2 for b in branches
        )
        return _AFFINE if simply_laced and forks else _NEITHER
    if len(branches) > 2:
        return _NEITHER
    b = branches[0]
    arms = sorted((_arm(nbrs, b, u) for u in nbrs[b]), key=lambda a: (len(a), a))
    if not simply_laced:  # B~_(k-1): a fork, then a path ending in label 4
        *fork, tail = arms
        bent = fork == [(3,), (3,)] and tail[-1] == 4 and all(m == 3 for m in tail[:-1])
        return _AFFINE if bent else _NEITHER
    lengths = tuple(len(a) for a in arms)
    if lengths[:2] == (1, 1) and len(lengths) == 3:
        return (_SPHERICAL, 2 * k - 2, k % 2 == 0)  # D_k
    return _STARS.get(lengths, _NEITHER)


def _components(nbrs: list[dict[int, int | float]]) -> list[list[int]]:
    """Connected components of a diagram, ordered by smallest vertex index."""
    seen: set[int] = set()
    comps = []
    for start in range(len(nbrs)):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:  # breadth-first; comp grows while it is read
            for u in nbrs[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
        comps.append(comp)
    return comps


def _classify_diagram(g: DefiningGraph) -> tuple[DiagramType, ...]:
    """(kind, h, -1 in W) for each connected component of the Coxeter diagram."""
    nbrs = _diagram(g)
    return tuple(_classify_component(nbrs, comp) for comp in _components(nbrs))


@lru_cache(maxsize=None)
def is_spherical(g: DefiningGraph) -> bool:
    """True iff the Coxeter group is finite: every component of the Coxeter
    diagram is of spherical type."""
    return all(kind == _SPHERICAL for kind, _, _ in _classify_diagram(g))


def is_affine(g: DefiningGraph) -> bool:
    """True iff the Gram form is positive semidefinite of rank n-1: exactly
    one component of the Coxeter diagram is of Euclidean type and the others
    are spherical (an irreducible Euclidean form has corank one)."""
    kinds = [kind for kind, _, _ in _classify_diagram(g)]
    return kinds.count(_EUCLIDEAN) == 1 and kinds.count(_SPHERICAL) == len(kinds) - 1
