"""Labelled defining graphs and their combinatorial decompositions.

A defining graph has named vertices and a symmetric label m(u, v) on each
unordered pair, an integer >= 2 or infinity.  An absent edge means the label
is infinity; the parser also accepts an explicit ``inf`` token and normalizes
it to absence.  Vertex declaration order is preserved and is the global
tie-breaking order used by every other module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

INF = float("inf")

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class GraphFormatError(ValueError):
    """Raised when a graph file or graph construction data is malformed."""


@dataclass(frozen=True)
class DefiningGraph:
    """Immutable labelled graph; construct via :func:`make_graph` or :func:`parse_graph`."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]  # sorted, distinct (i, j, m) with i < j, m finite
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)
    _labels: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise GraphFormatError("duplicate vertex name")
        for v in self.vertices:
            if not _NAME_RE.match(v):
                raise GraphFormatError(f"invalid vertex name {v!r}")
        labels: dict[tuple[int, int], int] = {}
        for i, j, m in self.edges:
            if i == j:
                raise GraphFormatError(f"self-loop on {self.vertices[i]!r}")
            if not (0 <= i < j < len(self.vertices)):
                raise GraphFormatError("edge endpoints out of range")
            if not (isinstance(m, int) and m >= 2):
                raise GraphFormatError(f"label {m!r} must be an integer >= 2")
            if (i, j) in labels and labels[(i, j)] != m:
                raise GraphFormatError(
                    f"conflicting labels for ({self.vertices[i]}, {self.vertices[j]})"
                )
            labels[(i, j)] = m
        # One stored form per graph, so equality and hashing ignore edge order
        # and repeated lines.
        object.__setattr__(self, "edges", tuple(sorted((i, j, m) for (i, j), m in labels.items())))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_labels", labels)

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

        Factors are the connected components of the auxiliary graph where u ~ v
        iff label(u, v) != 2, each returned as an induced subgraph, ordered by
        smallest contained vertex in declaration order.
        """
        n = len(self.vertices)
        adj: list[list[int]] = [[] for _ in range(n)]
        non2 = {(i, j) for i, j, m in self.edges if m != 2}
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) in non2 or (i, j) not in self._labels:
                    adj[i].append(j)
                    adj[j].append(i)
        comp = [-1] * n
        order: list[list[int]] = []
        for start in range(n):
            if comp[start] != -1:
                continue
            stack, members = [start], []
            comp[start] = len(order)
            while stack:
                u = stack.pop()
                members.append(u)
                for w in adj[u]:
                    if comp[w] == -1:
                        comp[w] = len(order)
                        stack.append(w)
            order.append(sorted(members))
        return [self.induced(self.vertices[i] for i in members) for members in order]

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
            if not all(_NAME_RE.match(v) for v in vertices):
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

