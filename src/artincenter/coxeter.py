"""The Coxeter group of a defining graph, with an exact word problem.

Elements are matrices of the reflection representation acting on the simple
root basis, through the Cartan realization of ``cartan``, which also holds
the generator updates, the neighbour table and the ring of the entries.

An element w is one matrix, that of w^{-1}, because descent tests read
columns of the inverse: a generator s descends w on the left exactly when
w^{-1} maps the simple root of s to a negative root.  The sign of a root is
the sign of its first nonzero coordinate: an int's own, or Scalar.sign.

As (w * s)^-1 = s * w^-1, theta appends a letter by a row update; as
(s * w)^-1 = w^-1 * s, the greedy strip behind reduced words and coset
splits takes one off by a column update, and longest_element puts one on
the same way.  w's own matrix is the one its inverse holds, built from the
reduced word reversed; right descents are the left descents of w^-1.
The dense n^3 product is left for products of two general elements.

The symmetric Gram form, -cos(pi/m) off the diagonal, is kept only as the
reference that the diagram classification is tested against; it has its
own field, because cos(pi/m) for an even m is not in Q(cos(2pi/m)).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .cartan import (
    Matrix,
    Ring,
    _generator_times,
    _identity_matrix,
    _neighbours,
    _times_generator,
    _zero_one,
    field_of,
)

# The diagram classification lives in diagram; coxeter keeps the names
# is_spherical and is_affine for its callers.
from .diagram import is_affine, is_spherical
from .graph import DefiningGraph

if TYPE_CHECKING:
    from .scalar import FieldContext, Scalar
    from .words import ArtinWord

MAX_COXETER_ORDER_STEPS = 10**5


def _mat_mul(a: Matrix, b: Matrix, ring: Ring) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b)) if n else ()
    zero = _zero_one(ring)[0]
    rows = []
    for arow in a:
        row = []
        for bcol in bt:
            acc = zero
            for x, y in zip(arow, bcol):
                if x and y:
                    acc = acc + x * y
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


class CoxeterElement:
    """Group element w held as the reflection-representation matrix of w^-1.

    Descents, reduced words and coset splits read only this matrix; w's own
    matrix is inverse().inv.  Instances are only created by this module
    (identity, generators, products), which keeps the matrices inside the
    image of the representation.
    """

    __slots__ = ("graph", "inv", "_word")

    def __init__(self, graph: DefiningGraph, inv: Matrix):
        self.graph = graph
        self.inv = inv
        self._word: tuple[str, ...] | None = None

    def __eq__(self, other):
        if not isinstance(other, CoxeterElement):
            return NotImplemented
        return self.graph == other.graph and self.inv == other.inv

    def __hash__(self):
        return hash(self.inv)

    def __mul__(self, other: "CoxeterElement") -> "CoxeterElement":
        """(w * u)^-1 = u^-1 * w^-1, one dense product."""
        if self.graph != other.graph:
            raise ValueError("elements of different Coxeter groups")
        return CoxeterElement(self.graph, _mat_mul(other.inv, self.inv, field_of(self.graph)))

    def __pow__(self, k: int) -> "CoxeterElement":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = identity(self.graph)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CoxeterElement":
        """w^-1, whose matrix is w's: the image of the reduced word reversed."""
        return theta(self.graph, [(v, 1) for v in reversed(self.reduced_word())])

    def times_generator(self, v: str) -> "CoxeterElement":
        """self * s_v, by one row update: (w * s)^-1 = s * w^-1."""
        s = self.graph.index(v)
        return CoxeterElement(self.graph, _generator_times(self.inv, s, _neighbours(self.graph)[s]))

    def is_identity(self) -> bool:
        return self.inv == identity(self.graph).inv

    def __repr__(self):
        return f"CoxeterElement({' '.join(self.reduced_word()) or '1'})"

    # -- descents and lengths ------------------------------------------------

    def _column_is_negative(self, mat: Matrix, idx: int) -> bool:
        # Sign of the root mat * alpha_idx; roots have one-signed coordinates,
        # so the first nonzero coordinate decides.
        for row in mat:
            x = row[idx]
            if x:
                return x < 0 if type(x) is int else x.sign() < 0
        raise ArithmeticError("zero column in a reflection matrix")

    def has_left_descent(self, v: str) -> bool:
        """True iff multiplying by the generator v on the left shortens the element."""
        return self._column_is_negative(self.inv, self.graph.index(v))

    def left_descents(self) -> tuple[str, ...]:
        return tuple(v for v in self.graph.vertices if self.has_left_descent(v))

    def right_descents(self) -> tuple[str, ...]:
        """The generators v with length(w * s_v) < length(w): the left
        descents of w^-1."""
        return self.inverse().left_descents()

    def reduced_word(self) -> tuple[str, ...]:
        """Canonical reduced word: greedily strip the declaration-order-smallest
        left descent.  Multiplies back to the element and realizes its length."""
        if self._word is None:
            self._word = _strip(self, self.graph.vertices)[0]
        return self._word

    def length(self) -> int:
        return len(self.reduced_word())

    def match_simple_reflection(self, subset: Iterable[str]) -> str | None:
        """The unique vertex in the subset whose generator equals this element,
        or None.  Distinct generators have distinct matrices."""
        for x in self.graph.subset(subset):
            if self == simple_reflection(self.graph, x):
                return x
        return None


def identity(g: DefiningGraph) -> CoxeterElement:
    return CoxeterElement(g, _identity_matrix(field_of(g), len(g.vertices)))


def simple_reflection(g: DefiningGraph, v: str) -> CoxeterElement:
    """Reflection matrix of a generator: alpha_v -> -alpha_v and
    alpha_u -> alpha_u + k(v, u) alpha_v for u != v; an involution, so it is
    also the matrix of the inverse."""
    s = g.index(v)
    return CoxeterElement(g, _times_generator(identity(g).inv, s, _neighbours(g)[s]))


def theta(g: DefiningGraph, word: "ArtinWord | Iterable[tuple[str, int]]") -> CoxeterElement:
    """Image of an Artin word in the Coxeter group (exponent signs collapse),
    one row update per letter: (w * s)^-1 = s * w^-1."""
    letters = getattr(word, "letters", word)
    neighbours = _neighbours(g)
    inv = identity(g).inv
    for v, _exp in letters:
        s = g.index(v)
        inv = _generator_times(inv, s, neighbours[s])
    return CoxeterElement(g, inv)


class CosetDecomposition(NamedTuple):
    """u = subgroup_part * reduced_part with the first factor inside the
    standard subgroup on the subset and the second factor reduced for it."""

    subgroup_part: CoxeterElement
    reduced_part: CoxeterElement
    subset: tuple[str, ...]


def _strip(w: CoxeterElement, among: Sequence[str]) -> tuple[tuple[str, ...], Matrix]:
    """Greedily strip the first left descent among the given generators until
    none is left; returns the stripped letters and the remainder's matrix,
    one column update per letter: (s * w)^-1 = w^-1 * s."""
    g = w.graph
    neighbours = _neighbours(g)
    order = [(v, g.index(v)) for v in among]
    inv = w.inv
    letters = []
    while True:
        for v, s in order:
            if w._column_is_negative(inv, s):
                letters.append(v)
                inv = _times_generator(inv, s, neighbours[s])
                break
        else:
            return tuple(letters), inv


def coset_decompose(u: CoxeterElement, subset: Iterable[str]) -> CosetDecomposition:
    """Split off the standard-subgroup part on the left by repeatedly stripping
    the smallest descent contained in the subset.  The reduced part is the
    unique minimal-length representative of the coset.

    The stripped letters are the canonical reduced word of the subgroup part:
    for X-reduced w and v in W_X, the left descents of v * w inside X are
    exactly those of v, and the subset comes in declaration order, so both
    greedy strips take the same letters.  The strip yields the reduced part's
    matrix, and the subgroup part is the image of the stripped letters.
    """
    g = u.graph
    x_set = g.subset(subset)
    letters, inv = _strip(u, x_set)
    v_part = theta(g, [(x, 1) for x in letters])
    v_part._word = letters
    return CosetDecomposition(v_part, CoxeterElement(g, inv), x_set)


# -- Gram form: the reference the diagram classification is tested against ----


def gram_field(g: DefiningGraph) -> FieldContext:
    """The field of the Gram form, that of every label other than 2: for an
    even m, cos(pi/m) is not in the Cartan ring's field."""
    from .scalar import field_context

    return field_context(m for m in g.finite_labels() if m != 2)


def gram_matrix(g: DefiningGraph) -> Matrix:
    """Symmetric bilinear form: 1 on the diagonal, -cos(pi/m_uv) off it,
    over gram_field(g)."""
    from .scalar import cos_pi_over

    ctx = gram_field(g)
    n = len(g.vertices)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(ctx.one)
            else:
                row.append(-cos_pi_over(g.label(g.vertices[i], g.vertices[j]), ctx))
        rows.append(tuple(row))
    return tuple(rows)


def _det(rows: Sequence[Sequence[Scalar]], ctx: FieldContext) -> Scalar:
    # Division-free determinant: expand row by row over column subsets.
    n = len(rows)
    if n == 0:
        return ctx.one
    level = {0: ctx.one}
    for r in range(n):
        nxt: dict[int, Scalar] = {}
        for mask, val in level.items():
            if not val:
                continue
            parity = r & 1
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    parity ^= 1
                    continue
                entry = rows[r][j]
                if entry:
                    term = val * entry if parity == 0 else -(val * entry)
                    key = mask | bit
                    acc = nxt.get(key)
                    nxt[key] = term if acc is None else acc + term
        level = nxt
        if not level:
            return ctx.zero
    return level.get((1 << n) - 1, ctx.zero)


def _rank(rows: Sequence[Sequence[Scalar]], ctx: FieldContext) -> int:
    work = [list(r) for r in rows]
    n = len(work)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col].inverse()
        for r in range(rank + 1, n):
            factor = work[r][col] * inv
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def coxeter_number(g: DefiningGraph) -> int:
    """Order of the product of all generators in declaration order; defined
    for irreducible spherical graphs."""
    if not is_spherical(g):
        raise ValueError("Coxeter number requires a spherical graph")
    c = theta(g, [(v, 1) for v in g.vertices])
    power = c
    h = 1
    while not power.is_identity():
        power = power * c
        h += 1
        if h > MAX_COXETER_ORDER_STEPS:
            raise ArithmeticError("Coxeter element order guard exceeded")
    return h


def longest_element(g: DefiningGraph) -> CoxeterElement:
    """The maximal-length element, reached by greedily prepending the smallest
    generator that is not a left descent, so still increases length, until
    every generator is one."""
    if not is_spherical(g):
        raise ValueError("longest element requires a spherical graph")
    neighbours = _neighbours(g)
    w = identity(g)
    while True:
        v = next((v for v in g.vertices if not w.has_left_descent(v)), None)
        if v is None:
            return w
        s = g.index(v)
        w = CoxeterElement(g, _times_generator(w.inv, s, neighbours[s]))


def is_minus_identity(w: CoxeterElement) -> bool:
    zero, one = _zero_one(field_of(w.graph))
    n = len(w.graph.vertices)
    # -1 is its own inverse
    return w.inv == tuple(tuple(-one if i == j else zero for j in range(n)) for i in range(n))
