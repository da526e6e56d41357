"""The Cartan realization of a defining graph's Coxeter group.

The reflection representation acts on the simple root basis through a Cartan
realization (Vinberg, Izv. Akad. Nauk SSSR 35 (1971); Kac, Infinite
dimensional Lie algebras, Prop. 3.13): the generator s maps alpha_s to
-alpha_s and each other alpha_c to alpha_c + k(s, c) alpha_s, where k(s, c)
is nonzero exactly when c is a neighbour of s in the Coxeter diagram (labels
other than 2, infinity included), positive, and
k(s, c) * k(c, s) = 4cos^2(pi/m_sc), which is 4 for infinity.  The
coefficients need not be symmetric; for s declared before c:
- labels 3, 4, 6 and infinity give k(s, c) = 1 and k(c, s) = 1, 2, 3, 4;
- an odd m gives 2cos(pi/m) both ways;
- an even m gives k(s, c) = 1 and k(c, s) = 2 + 2cos(2pi/m).
So a graph whose labels all lie in {2, 3, 4, 6, infinity} has matrices of
plain Python ints and needs no field arithmetic.  Otherwise the entries lie
in the real field Q(cos(pi/N)), N the lcm of the other labels with the even
ones halved (see field_of), where 2cos(pi/m) is the basis element C_(N/m)
when N/m is below the field's degree.  Such a realization is faithful and
has the same root theory as the symmetric one: every root is a nonnegative
or a nonpositive combination of simple roots, so equality of elements is
equality of matrices, and the same descents and reduced words follow.

A product by one generator is a generator update in O(n * deg), touching
only the generator's diagram neighbours: M * s negates column s and adds
k(s, c) times column s to each neighbour column c; s * M negates row s and
adds k(s, c) times each neighbour row c to it.  A coefficient 1 adds
without a product.

This module holds the realization alone, reading the diagram's edges off
the graph's labels, so plain retraction, which needs only the neighbour
table and column updates, loads neither the group elements (coxeter) nor
the diagram classification (diagram).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Union

from .graph import INF, MAX_VERTICES, DefiningGraph

if TYPE_CHECKING:
    from .scalar import FieldContext, Scalar

# A matrix holds ints over the int ring and Scalars over a field
Matrix = tuple[tuple["int | Scalar", ...], ...]
# int, or the field of the non-crystallographic labels
Ring = Union[type, "FieldContext"]

# 4cos^2(pi/m) for the labels whose Cartan coefficients are ints
_INTEGRAL = {3: 1, 4: 2, 6: 3, INF: 4}


def field_of(g: DefiningGraph) -> Ring:
    """The ring of the graph's Cartan coefficients.

    int when every label lies in {2, 3, 4, 6, infinity}.  Otherwise the real
    field Q(cos(pi/N)), of degree phi(2N)/2, N the lcm of the other labels
    with the even ones halved: it holds 2cos(pi/m) for an odd m and
    cos(2pi/m) = cos(pi/(m/2)) for an even m.  Every matrix is built over a
    ring from here, so the vertex guard is here.
    """
    n = len(g.vertices)
    if n > MAX_VERTICES:
        raise ValueError(f"graph has {n} vertices; kernel guard is {MAX_VERTICES}")
    labels = [m if m % 2 else m // 2 for m in g.finite_labels() if m != 2 and m not in _INTEGRAL]
    if not labels:
        return int
    from .scalar import field_context

    return field_context(labels)


def _zero_one(ring: Ring) -> tuple:
    return (0, 1) if ring is int else (ring.zero, ring.one)


def _identity_matrix(ring: Ring, n: int) -> Matrix:
    zero, one = _zero_one(ring)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


# (c, k(s, c), k(s, c) == 1) for each neighbour c of a generator s in the
# Coxeter diagram: the nonzero off-diagonal entries of row s of its
# reflection, each with its unit flag, computed once per graph
Neighbours = tuple[tuple[int, "int | Scalar", bool], ...]


def _cartan(m, earlier: bool, ring: Ring):
    """k(s, c) for a diagram edge of label m, with s declared before c or not."""
    if m in _INTEGRAL:
        return 1 if earlier else _INTEGRAL[m]
    from .scalar import cos_pi_over

    if m % 2:
        return 2 * cos_pi_over(m, ring)
    return 1 if earlier else 2 + 2 * cos_pi_over(m // 2, ring)


# The kernel's one cache: a request asks for its graph's table many times, and
# at degree 288 (labels 5, 7, 8, 9) a rebuild is 0.2 ms of field products.
# A command uses one entry; the bound keeps a library loop over graphs flat.
@lru_cache(maxsize=4)
def _neighbours(g: DefiningGraph) -> tuple[Neighbours, ...]:
    """Each generator's diagram neighbours in ascending index order: every
    other vertex whose label is not 2, an absent edge (infinity) included."""
    ring = field_of(g)
    label = g._labels.get
    n = len(g.vertices)
    rows = []
    for s in range(n):
        row = []
        for c in range(n):
            if c != s:
                m = label((s, c) if s < c else (c, s), INF)
                if m != 2:
                    k = _cartan(m, s < c, ring)
                    row.append((c, k, k == 1))
        rows.append(tuple(row))
    return tuple(rows)


def _times_generator(mat: Matrix, s: int, nbrs: Neighbours) -> Matrix:
    """mat * s: column s is negated and each neighbour column c gains
    k(s, c) times column s."""
    rows = []
    for row in mat:
        x = row[s]
        if x:
            new = list(row)
            new[s] = -x
            for c, a, unit in nbrs:
                new[c] = new[c] + (x if unit else a * x)
            row = tuple(new)
        rows.append(row)
    return tuple(rows)


def _generator_times(mat: Matrix, s: int, nbrs: Neighbours) -> Matrix:
    """s * mat: row s becomes -row s plus k(s, c) times each neighbour row c."""
    new = [-x for x in mat[s]]
    for c, a, unit in nbrs:
        for j, y in enumerate(mat[c]):
            if y:
                new[j] = new[j] + (y if unit else a * y)
    return mat[:s] + (tuple(new),) + mat[s + 1 :]
