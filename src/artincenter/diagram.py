"""Coxeter diagram classification.

The Coxeter diagram joins every pair whose label is not 2, infinity
included.  Its connected components are the join factors, and spherical and
Euclidean graphs are recognized by naming each component from the
classification, with integer work and no field arithmetic; the spherical
types also give the Coxeter number and whether -1 lies in W.  The Gram form
with its exact minors, and the Coxeter number and longest element computed
by matrix products (in ``coxeter``), are kept as the independent references
the tests check the classification against.

The connected spherical diagrams are A_n, B_n, D_n, E_6-8, F_4, H_3, H_4
and I_2(m), and the connected Euclidean ones are A~_n (A~_1 is the label
infinity), B~_n, C~_n, D~_n, E~_6-8, F~_4 and G~_2 (Coxeter 1935;
Humphreys, Reflection Groups and Coxeter Groups, 2.4-2.7).  So each
component is named from its shape and labels with O(n^2) integer work, and
each spherical type brings its Coxeter number h and whether -1 lies in W
(exactly when every degree is even).
"""

from __future__ import annotations

from functools import lru_cache

from .graph import INF, DefiningGraph

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


# Hits come from the center generator asking again about a spherical factor
# and from small clique subgraphs that recur across the graphs of one
# analyze --dir run.  Over certify-corpus seeds 1-4 (80 shards of 30 graphs,
# a cache per shard) 64 entries keep all 1,801 hits of an unbounded cache,
# 32 keep 1,761 and 16 keep 1,704; unbounded, the cache grew with the run.
@lru_cache(maxsize=64)
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
