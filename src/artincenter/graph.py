"""Labelled defining graphs and their combinatorial decompositions.

A defining graph has named vertices and a symmetric label m(u, v) on each
unordered pair, an integer >= 2 or infinity.  An absent edge means the label
is infinity; the parser also accepts an explicit ``inf`` token and normalizes
it to absence.  Vertex declaration order is preserved and is the global
tie-breaking order used by every other module.

The join factors are the connected components of the Coxeter diagram, which
joins every pair whose label is not 2, infinity included.  The diagram and
its classification into spherical and Euclidean types live in ``diagram``,
which this module imports only when a graph is split into join factors, so
that commands which never classify a graph never load it.
"""

from __future__ import annotations

from typing import Iterable

INF = float("inf")

# Vertex guard of analyze and the kernel: a kernel matrix has n^2 entries, and
# the analyzer's one exponential step, its clique search, has its own budget
MAX_VERTICES = 256


def _is_name(v: str) -> bool:
    """A vertex name: ASCII letters, digits and _, not led by a digit, which
    for an ASCII string is exactly a Python identifier."""
    return v.isascii() and v.isidentifier()


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
            if not _is_name(v):
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
        self._fill(vertices, index, labels)

    def _fill(self, vertices, index, labels) -> None:
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

    # -- derived graphs --------------------------------------------------

    def induced(self, names: Iterable[str]) -> "DefiningGraph":
        """Subgraph induced on a vertex subset, declaration order preserved."""
        # read off the subset's own k^2 pairs, not every edge, and skip the
        # checks of __init__: this graph's labels already passed them
        keep = self.subset(names)
        old = [self._index[v] for v in keep]
        get = self._labels.get
        labels = {}
        for a, i in enumerate(old):
            for b in range(a + 1, len(old)):
                m = get((i, old[b]))
                if m is not None:
                    labels[a, b] = m
        sub = object.__new__(DefiningGraph)
        sub._fill(keep, {v: k for k, v in enumerate(keep)}, labels)
        return sub

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

    def join_factors(self) -> list["DefiningGraph"]:
        """Maximal decomposition as a join with all cross labels equal to 2.

        Factors are the connected components of the Coxeter diagram, each
        returned as an induced subgraph, ordered by smallest contained vertex
        in declaration order.
        """
        from .diagram import _components, _diagram

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
            if not all(map(_is_name, vertices)):
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
