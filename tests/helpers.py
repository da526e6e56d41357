"""Shared oracles and random generators for the test suite.

Oracles here are deliberately independent of the code paths they check:
the symmetric reflection representation over the Gram field with dense
products (the kernel before the Cartan realization) for reduced words,
descents, coset splits and retractions, BFS over representation matrices
for lengths and group orders, the spherical
triangle-group order formula for expected sizes, a braid-relation rewriting
closure for positive-word equality in rank 2, signs of Gram minors for the
spherical and Euclidean tests, the order of the Coxeter element and the
longest element by matrix products for the center generator's exponent,
an exhaustive sweep over vertex subsets for the FC-type test, every
induced triple for the two-dimensional test,
retraction by explicit conjugation of each letter's generator, the
cyclotomic field Q(zeta_2N) (the field arithmetic before the real subfield,
moved here unchanged) for every product, sum, sign and cosine of the real
field through the embedding C_j -> zeta^j + zeta^-j, cyclotomic
polynomials by the product recursion with dense division, reduction by a
dense fold through every lower coefficient of the modulus, cyclotomic
products by the schoolbook convolution over every coefficient of both
operands, sums by Fraction coefficients, conjugation through the table of
all 2N root powers, signs of field elements by outward-rounded mpmath
interval sums, rank-2 Garside normal forms by fixed-point combing of a
simple-factor list, the command line by the hand-written argparse parser,
vertex names and word tokens by regular expressions, and JSON output by
json.dumps.

It also holds the definitions that only the tests call, kept off the
modules every command compiles: a graph's file text, adjacency, cyclic
rotation of a word, the coset-minimality test, float and complex values of
field elements, spelling a rank-2 normal form, and the rank-2 center
generator.
"""

from __future__ import annotations

import argparse
import math
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product, repeat
from operator import add, mul, neg
from typing import Iterable, Sequence

from artincenter import __version__, cli
from artincenter.coxeter import (
    CoxeterElement,
    _det,
    _rank,
    coset_decompose,
    coxeter_number,
    gram_field,
    gram_matrix,
    identity,
    is_minus_identity,
    longest_element,
    simple_reflection,
    theta,
)
from artincenter.diagram import is_spherical
from artincenter.dihedral import GarsideNormalForm, _validate, dihedral_equal
from artincenter.retraction import retract, retract_trace
from artincenter.graph import INF, DefiningGraph, make_graph
from artincenter.scalar import (
    _SIGN_LADDER,
    MAX_FIELD_DEGREE,
    FieldContext,
    PrecisionExhaustedError,
    Scalar,
    _cos_table,
    _normalize,
    _rational_operand,
    _totient,
    cos_pi_over,
    cyclotomic_polynomial,
)
from artincenter.words import MAX_LETTERS, ArtinWord, WordSyntaxError, abelianize


def graph_to_text(g: DefiningGraph) -> str:
    """The graph in the file format that parse_graph reads."""
    lines = ["vertices: " + " ".join(g.vertices)]
    for i, j, m in g.edges:
        lines.append(f"edge {g.vertices[i]} {g.vertices[j]} {m}")
    return "\n".join(lines) + "\n"


def adjacent(g: DefiningGraph, u: str, v: str) -> bool:
    return g.label(u, v) != INF


def rotated(w: ArtinWord, start: int) -> ArtinWord:
    """Cyclic permutation beginning at the given letter index."""
    if not 0 <= start <= len(w.letters):
        raise IndexError(f"rotation index {start} out of range")
    return ArtinWord(w.letters[start:] + w.letters[:start])


def is_reduced_for(w: CoxeterElement, subset) -> bool:
    """True iff the element is the minimal-length representative of its left
    coset under the standard subgroup on the subset (no left descent lies in
    the subset)."""
    return not any(w.has_left_descent(v) for v in w.graph.subset(subset))


def float_value(x: Scalar | CyclotomicScalar | int) -> float:
    """The real value of a field element, or of a kernel integer."""
    if isinstance(x, int):
        return float(x)
    angle = math.pi / x.ctx.N
    if isinstance(x, Scalar):  # c_0 + sum(c_j * 2cos(j*pi/N))
        total = x.nums[0] + sum(2 * c * math.cos(j * angle) for j, c in enumerate(x.nums) if c and j)
        return total / x.den
    if not x.is_real:
        raise ValueError("float value is defined for real scalars only")
    total = sum(c * math.cos(j * angle) for j, c in enumerate(x.nums) if c)
    return total / x.den


def complex_value(x: Scalar | CyclotomicScalar) -> complex:
    if isinstance(x, Scalar):
        return complex(float_value(x))
    angle = math.pi / x.ctx.N
    total = sum(
        c * complex(math.cos(j * angle), math.sin(j * angle)) for j, c in enumerate(x.nums) if c
    )
    return total / x.den


def nf_is_trivial(nf: GarsideNormalForm) -> bool:
    return nf.delta_power == 0 and not nf.factors


def nf_to_word(nf: GarsideNormalForm) -> ArtinWord:
    """A word spelling the element: delta power then the factors.  The letter
    guard is checked before any letter is spelled."""
    size = abs(nf.delta_power) * nf.m + sum(k for _, k in nf.factors)
    if size > MAX_LETTERS:
        raise ValueError(f"word exceeds the {MAX_LETTERS}-letter guard")

    def simple_word(start: int, k: int) -> list[tuple[str, int]]:
        return [(nf.gens[(start + i) % 2], 1) for i in range(k)]

    delta = simple_word(0, nf.m)
    letters: list[tuple[str, int]] = []
    if nf.delta_power >= 0:
        letters.extend(delta * nf.delta_power)
    else:
        inv = [(v, -1) for v, _ in reversed(delta)]
        letters.extend(inv * (-nf.delta_power))
    for start, k in nf.factors:
        letters.extend(simple_word(start, k))
    return ArtinWord(tuple(letters))


def dihedral_center_generator(m: int, gens: tuple[str, str] = ("s", "t")) -> ArtinWord:
    """Generator of the center: (st)^(m/2) = delta for even m, (st)^m = delta^2
    for odd m.  The infinite dihedral Artin group has trivial center."""
    if m == math.inf:
        raise ValueError("the label-infinity rank-2 Artin group has trivial center")
    _validate(m, gens)
    s, t = gens
    reps = m // 2 if m % 2 == 0 else m
    return ArtinWord(((s, 1), (t, 1))) ** reps


def bfs_enumerate(g: DefiningGraph, limit: int = 10000) -> dict[CoxeterElement, int]:
    """All elements of a finite Coxeter group with their BFS distances from 1."""
    start = identity(g)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        new = []
        for w in frontier:
            for v in g.vertices:
                u = w * simple_reflection(g, v)
                if u not in dist:
                    if len(dist) >= limit:
                        raise RuntimeError("BFS limit exceeded; group is too large")
                    dist[u] = dist[w] + 1
                    new.append(u)
        frontier = new
    return dist


def expected_finite_order(g: DefiningGraph) -> int:
    """Classification-free order of a finite rank <= 3 Coxeter group.

    Rank 2 is dihedral of order 2m; rank 3 is a spherical triangle group of
    order 4 / (1/p + 1/q + 1/r - 1).
    """
    n = len(g.vertices)
    if n == 0:
        return 1
    if n == 1:
        return 2
    if n == 2:
        m = g.label(g.vertices[0], g.vertices[1])
        assert m != INF
        return 2 * int(m)
    if n == 3:
        a, b, c = g.vertices
        p, q, r = g.label(a, b), g.label(a, c), g.label(b, c)
        assert INF not in (p, q, r)
        excess = Fraction(1, int(p)) + Fraction(1, int(q)) + Fraction(1, int(r)) - 1
        assert excess > 0
        order = 4 / excess
        assert order.denominator == 1
        return int(order)
    raise ValueError("only rank <= 3 supported")


def spherical_by_minors(g: DefiningGraph) -> bool:
    """True iff the Gram form is positive definite, decided by exact signs of
    the leading principal minors."""
    b = gram_matrix(g)
    ctx = gram_field(g)
    for k in range(1, len(g.vertices) + 1):
        minor = _det([row[:k] for row in b[:k]], ctx)
        if minor.sign() <= 0:
            return False
    return True


def affine_by_deletion(g: DefiningGraph) -> bool:
    """Positive semidefinite of rank n-1: the determinant vanishes and some
    vertex-deleted subgraph is positive definite (interlacing).  It signs
    leading minors only, not all 3^n principal ones, so it reaches graphs on
    10 vertices."""
    verts = g.vertices
    if not any(spherical_by_minors(g.induced(verts[:i] + verts[i + 1 :])) for i in range(len(verts))):
        return False
    return not _det(gram_matrix(g), gram_field(g))


def center_exponent_by_matrices(g: DefiningGraph) -> tuple[int, bool]:
    """(order of the declaration-order Coxeter element, whether the longest
    element is -1), both by products of reflection matrices."""
    return coxeter_number(g), is_minus_identity(longest_element(g))


def affine_by_minors(g: DefiningGraph) -> bool:
    """Positive semidefinite of rank n-1, from the signs of every principal
    minor and an exact rank; exponential (3^n), for small graphs only."""
    n = len(g.vertices)
    if n == 0:
        return False
    b = gram_matrix(g)
    ctx = gram_field(g)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = [[b[i][j] for j in subset] for i in subset]
            if _det(sub, ctx).sign() < 0:
                return False
    return not _det(b, ctx) and _rank(b, ctx) == n - 1


def retract_by_conjugation(
    g: DefiningGraph, subset: tuple[str, ...], word: ArtinWord
) -> list[tuple[CoxeterElement, CoxeterElement, CoxeterElement, tuple[str, int] | None]]:
    """Per letter (subgroup part, reduced part, reflection, emitted letter).

    Tracks the image of each prefix and splits it from scratch; the letter's
    generator is conjugated by the reduced part before it (positive letter) or
    after it (negative letter), and the letter survives iff that reflection is
    a simple reflection of the subset.
    """
    prefix = identity(g)
    prev_reduced = identity(g)
    steps = []
    for v, e in word.letters:
        refl = simple_reflection(g, v)
        prefix = prefix * refl
        dec = coset_decompose(prefix, subset)
        conj = prev_reduced if e == 1 else dec.reduced_part
        reflection = conj * refl * conj.inverse()
        witness = reflection.match_simple_reflection(subset)
        emitted = (witness, e) if witness is not None else None
        steps.append((dec.subgroup_part, dec.reduced_part, reflection, emitted))
        prev_reduced = dec.reduced_part
    return steps


# -- the symmetric kernel --------------------------------------------------------
# The reflection representation that coxeter used before its Cartan
# realization: s maps alpha_c to alpha_c + 2cos(pi/m_sc) alpha_s (2 for
# infinity), over the Gram field, with dense matrix products only.  The
# algorithms are the ones it ran: greedy strips of the smallest left descent,
# coset splits by stripping descents in the subset, and the retraction's
# column test, which in this realization asks for the unit vector of a
# target vertex.  Words are tuples of vertex names.  Images and reduced
# words are memoized per kernel, which sweeps over many words need.


class SymmetricKernel:
    def __init__(self, g: DefiningGraph):
        ctx = gram_field(g)
        n = len(g.vertices)
        self.g, self.zero, self.one = g, ctx.zero, ctx.one
        self.identity = tuple(
            tuple(ctx.one if i == j else ctx.zero for j in range(n)) for i in range(n)
        )
        self.reflections = []
        for s, v in enumerate(g.vertices):
            rows = list(self.identity)
            rows[s] = tuple(
                -ctx.one if c == s else 2 * cos_pi_over(g.label(v, u), ctx)
                for c, u in enumerate(g.vertices)
            )
            self.reflections.append(tuple(rows))
        self._images = {(): (self.identity, self.identity)}
        self._words = {}

    def mul(self, a, b):
        cols = list(zip(*b))
        return tuple(
            tuple(sum((x * y for x, y in zip(row, col) if x and y), self.zero) for col in cols)
            for row in a
        )

    def image(self, word: tuple[str, ...]) -> tuple:
        """(matrix, inverse) of the Coxeter image of a word of vertex names."""
        found = self._images.get(word)
        if found is None:
            mat, inv = self.image(word[:-1])
            refl = self.reflections[self.g.index(word[-1])]
            found = self._images[word] = (self.mul(mat, refl), self.mul(refl, inv))
        return found

    def negative_column(self, mat, s: int) -> bool:
        return next(row[s].sign() for row in mat if row[s]) < 0

    def left_descents(self, inv) -> tuple[str, ...]:
        return tuple(v for s, v in enumerate(self.g.vertices) if self.negative_column(inv, s))

    def right_descents(self, mat) -> tuple[str, ...]:
        return tuple(v for s, v in enumerate(self.g.vertices) if self.negative_column(mat, s))

    def strip(self, inv, among) -> tuple[tuple[str, ...], tuple]:
        """Stripped letters and the remainder's inverse."""
        letters = []
        while True:
            v = next((v for v in among if self.negative_column(inv, self.g.index(v))), None)
            if v is None:
                return tuple(letters), inv
            letters.append(v)
            inv = self.mul(inv, self.reflections[self.g.index(v)])

    def reduced_word(self, inv) -> tuple[str, ...]:
        """Greedy strip of the smallest left descent, one letter at a time."""
        word = self._words.get(inv)
        if word is None:
            g = self.g
            v = next((v for v in g.vertices if self.negative_column(inv, g.index(v))), None)
            rest = () if v is None else self.reduced_word(self.mul(inv, self.reflections[g.index(v)]))
            word = self._words[inv] = () if v is None else (v,) + rest
        return word

    def coset(self, inv, subset) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Reduced words of the subgroup part and of the reduced part."""
        letters, rest = self.strip(inv, self.g.subset(subset))
        return letters, self.reduced_word(rest)

    def retract_trace(self, subset, word: ArtinWord):
        """(output letters, per step the reduced words of the subgroup part,
        the reduced part and the reflection)."""
        g, x_set = self.g, self.g.subset(subset)
        units = {
            x: [self.one if r == g.index(x) else self.zero for r in range(len(g.vertices))]
            for x in x_set
        }
        w = v = (self.identity, self.identity)
        out, steps = [], []
        for letter, e in word.letters:
            s = g.index(letter)
            column = [row[s] for row in w[0]]
            x = next((x for x in x_set if column == units[x]), None)
            refl = self.reflections[s]
            ws = (self.mul(w[0], refl), self.mul(refl, w[1]))
            reflection = self.mul(ws[0], w[1])
            if x is None:
                rest = self.strip(ws[1], x_set)[1]
                w = (self.image(self.reduced_word(rest))[0], rest)
            else:
                out.append((x, e))
                refl_x = self.reflections[g.index(x)]
                v = (self.mul(v[0], refl_x), self.mul(refl_x, v[1]))
            steps.append(
                (self.reduced_word(v[1]), self.reduced_word(w[1]), self.reduced_word(reflection))
            )
        return tuple(out), steps


def assert_matches_symmetric_kernel(
    g: DefiningGraph, words, subsets, kernel: SymmetricKernel | None = None, retracts=True
) -> None:
    """The Cartan kernel's reduced words, descents and coset splits against
    the symmetric kernel's, for each word and, for splits, each subset; with
    retracts, also plain retractions and every trace step's three words."""
    kernel = kernel or SymmetricKernel(g)
    for word in words:
        elem = theta(g, word)
        mat, inv = kernel.image(tuple(v for v, _ in word.letters))
        assert elem.reduced_word() == kernel.reduced_word(inv), (g, word)
        assert elem.left_descents() == kernel.left_descents(inv), (g, word)
        assert elem.right_descents() == kernel.right_descents(mat), (g, word)
        for subset in subsets:
            dec = coset_decompose(elem, subset)
            split = (dec.subgroup_part.reduced_word(), dec.reduced_part.reduced_word())
            assert split == kernel.coset(inv, subset), (g, word, subset)
            if not retracts:
                continue
            output, steps = kernel.retract_trace(subset, word)
            assert retract(g, subset, word).letters == output, (g, word, subset)
            trace = retract_trace(g, subset, word)
            assert trace.output.letters == output, (g, word, subset)
            assert [
                (st.subgroup_part.reduced_word(), st.reduced_part.reduced_word(),
                 st.reflection.reduced_word())
                for st in trace.steps
            ] == steps, (g, word, subset)


# -- the cyclotomic field Q(zeta_2N): the field arithmetic before the real
# subfield, kept as the oracle of the program's Scalar through the embedding
# C_j -> zeta^j + zeta^-j (see embed)


class CyclotomicField:
    """Arithmetic context for one field: modulus, fold terms and value caches.

    The modulus is the 2N-th cyclotomic polynomial, built as a Moebius product
    of binomials.  Reduction folds each coefficient at x^k with k >= N onto
    x^(k-N) with its sign flipped, then each one above the degree through the
    nonzero lower terms of the modulus only, which are few (6 to 32 for the
    fields of degree 96 to 1152).  Root powers and conjugates reduce once
    each.

    The degree phi(2N) is checked against MAX_FIELD_DEGREE before anything is
    built.  As phi(n) >= sqrt(n/2), phi(2N) >= sqrt(N): an N past
    MAX_FIELD_DEGREE^2 fails without factoring, and below that, trial
    division up to sqrt(2N) is cheap.
    """

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("N must be positive")
        if N > MAX_FIELD_DEGREE**2 or _totient(2 * N) > MAX_FIELD_DEGREE:
            raise ValueError(f"field exceeds the {MAX_FIELD_DEGREE}-degree guard")
        self.N = N
        self.modulus = cyclotomic_polynomial(2 * N)
        self.degree = len(self.modulus) - 1
        d = self.degree
        # x^d = sum(c * x^t) mod the (monic) modulus over these nonzero terms;
        # all higher powers fold through them
        self._fold_terms = tuple((t, -c) for t, c in enumerate(self.modulus[:d]) if c)
        self._power_table: tuple[tuple[int, ...], ...] | None = None
        self._cos_first: tuple[int, ...] | None = None
        self._cos_cache: dict[int, tuple[int, ...]] = {}
        self._cos_pi_cache: dict[int, CyclotomicScalar] = {}
        zero_nums = (0,) * d
        self.zero = CyclotomicScalar(self, zero_nums, 1, real=True)
        one_nums = (1,) + (0,) * (d - 1)
        self.one = CyclotomicScalar(self, one_nums, 1, real=True)

    def __repr__(self) -> str:
        return f"CyclotomicField(N={self.N})"

    # -- construction ----------------------------------------------------

    def from_rational(self, q: int | Fraction) -> "CyclotomicScalar":
        if not isinstance(q, int):
            from fractions import Fraction

            q = Fraction(q)
        nums = (q.numerator,) + (0,) * (self.degree - 1)
        return CyclotomicScalar(self, nums, q.denominator, real=True)

    def from_coeffs(self, coeffs: Sequence[int | Fraction]) -> "CyclotomicScalar":
        """Scalar from rational coefficients of powers of the root, any length."""
        from fractions import Fraction

        den = 1
        for c in coeffs:
            den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
        nums = [int(Fraction(c) * den) for c in coeffs]
        return CyclotomicScalar(self, self.reduce(nums), den)

    def root_power(self, k: int) -> "CyclotomicScalar":
        """The exact value of the generator raised to the k-th power (any integer k)."""
        k %= 2 * self.N
        return CyclotomicScalar(self, self.reduce([0] * k + [1]), 1)

    # -- reduction machinery ----------------------------------------------

    def reduce(self, nums: Sequence[int]) -> tuple[int, ...]:
        """Reduce an integer coefficient vector of any length modulo the modulus."""
        d = self.degree
        if len(nums) <= d:
            return tuple(nums) + (0,) * (d - len(nums))
        work = list(nums)
        # x^N = -1 modulo the 2N-th cyclotomic polynomial, so everything at or
        # above x^N folds down by N first, leaving at most N coefficients
        n = self.N
        for k in range(len(work) - 1, n - 1, -1):
            if work[k]:
                work[k - n] -= work[k]
        del work[n:]
        terms = self._fold_terms
        for k in range(len(work) - 1, d - 1, -1):
            c = work[k]
            if c:
                off = k - d
                for t, b in terms:
                    work[off + t] += c * b
        return tuple(work[:d])

    def power_table(self) -> tuple[tuple[int, ...], ...]:
        # x^k mod modulus for k in [0, 2N); the tests' oracle for root_power
        # and conj, which the program does not call.
        if self._power_table is None:
            d = self.degree
            terms = self._fold_terms
            table = []
            cur = [1] + [0] * (d - 1)
            for _ in range(2 * self.N):
                table.append(tuple(cur))
                top = cur[d - 1]
                cur = [0] + cur[: d - 1]
                if top:
                    for t, b in terms:
                        cur[t] += top * b
            self._power_table = tuple(table)
        return self._power_table

    def cos_table(self) -> tuple[int, ...]:
        """The first sign rung's table: cos(j*pi/N) * 2^120 for j < degree,
        entry j within 8 * 120 * j units (see _cos_table); built once.

        It is kept apart from cos_enclosures, so that the calls of that one
        count the signs that get past the first rung."""
        if self._cos_first is None:
            self._cos_first = _cos_table(self.N, self.degree, _SIGN_LADDER[0])
        return self._cos_first

    def cos_enclosures(self, prec: int) -> tuple[int, ...]:
        """The table of a later sign rung: cos(j*pi/N) * 2^prec for j < degree,
        entry j within 8 * prec * j units; built once per precision."""
        cached = self._cos_cache.get(prec)
        if cached is None:
            cached = self._cos_cache[prec] = _cos_table(self.N, self.degree, prec)
        return cached


# One context per N keeps a command's scalars on the `ctx is` fast path
@lru_cache(maxsize=4)
def _cyclotomic_context_for(N: int) -> CyclotomicField:
    return CyclotomicField(N)


def cyclotomic_field_context(labels: Iterable[int]) -> CyclotomicField:
    """Context for the smallest field containing cos(pi/m) for every finite
    label; CyclotomicField refuses a degree past MAX_FIELD_DEGREE."""
    N = 1
    for m in labels:
        if not (isinstance(m, int) and m >= 2):
            raise ValueError(f"label {m!r} must be an integer >= 2")
        N = N * m // math.gcd(N, m)
    return _cyclotomic_context_for(N)


def cyclotomic_cos_pi_over(m: int | float, ctx: CyclotomicField) -> "CyclotomicScalar":
    """Exact cos(pi/m) for finite m dividing N, or m = 2; the rational 1 for an
    infinite label.

    The infinite-label value 1 makes -cos equal to -1, the standard Gram entry
    for a non-adjacent pair in the reflection representation.  Finite values
    are built once per context and shared: scalars are immutable, and their
    lazily cached sign and realness depend on the value alone.
    """
    if m == math.inf:
        return ctx.one
    if not (isinstance(m, int) and m >= 2):
        raise ValueError(f"label {m!r} must be an integer >= 2 or INF")
    if m == 2:
        return ctx.zero
    if ctx.N % m != 0:
        raise ValueError(f"label {m} does not divide the context order N={ctx.N}")
    cached = ctx._cos_pi_cache.get(m)
    if cached is None:
        k = ctx.N // m
        val = ctx.root_power(k) + ctx.root_power(2 * ctx.N - k)
        cached = CyclotomicScalar(ctx, val.nums, 2 * val.den, real=True)
        ctx._cos_pi_cache[m] = cached
    return cached


class CyclotomicScalar:
    """Immutable field element: integer coefficients over a positive denominator.

    The coefficient tuple always has length equal to the context degree and is
    reduced modulo the modulus, and the constructor divides out the gcd of the
    denominator and the numerators; so the representation is canonical and
    equality is structural within a field.  A rational scalar hashes as its
    value, which it equals as an int, a Fraction or a rational scalar of any
    field.
    """

    __slots__ = ("ctx", "nums", "den", "_real", "_sign", "_terms")

    def __init__(self, ctx: CyclotomicField, nums: tuple[int, ...], den: int, real=None):
        if den != 1:
            nums, den = _normalize(nums, den)
        self.ctx = ctx
        self.nums = nums
        self.den = den
        self._real = real
        self._sign = None
        self._terms = None

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def nonzero_terms(self) -> tuple[tuple[int, int], ...]:
        """(j, c) for each nonzero numerator c of x^j, in order; built once."""
        terms = self._terms
        if terms is None:
            nums = self.nums
            terms = self._terms = tuple(zip(compress(range(len(nums)), nums), filter(None, nums)))
        return terms

    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        if not self.is_rational():
            raise ValueError("scalar is not rational")
        return Fraction(self.nums[0], self.den)

    def conj(self) -> "CyclotomicScalar":
        """Image under the substitution x -> x^(2N-1), i.e. complex conjugation.

        A term c*x^j with 0 < j < N goes to c*x^(2N-j) = -c*x^(N-j), since
        x^N = -1; every image lies below x^N, so one reduction finishes."""
        ctx, N = self.ctx, self.ctx.N
        out = [0] * N
        for j, c in self.nonzero_terms():
            if j:
                out[N - j] = -c
            else:
                out[0] = c
        return CyclotomicScalar(ctx, ctx.reduce(out), self.den)

    @property
    def is_real(self) -> bool:
        if self._real is None:
            self._real = self.conj() == self
        return self._real

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "CyclotomicScalar") -> None:
        if self.ctx.N != other.ctx.N:
            raise ValueError("scalars from different field contexts")

    def __add__(self, other):
        if not isinstance(other, CyclotomicScalar):
            if not _rational_operand(other):
                return NotImplemented
            other = self.ctx.from_rational(other)
        if other.ctx is not self.ctx:
            self._check(other)
        a, b = self, other
        if not any(a.nums):
            return b
        if not any(b.nums):
            return a
        real = True if (a._real and b._real) else None
        if a.den == b.den:
            nums = tuple(map(add, a.nums, b.nums))
            den = a.den
        else:
            g = math.gcd(a.den, b.den)
            da, db = b.den // g, a.den // g
            nums = tuple(map(add, map(mul, a.nums, repeat(da)), map(mul, b.nums, repeat(db))))
            den = a.den * da
        return CyclotomicScalar(self.ctx, nums, den, real=real)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicScalar(self.ctx, tuple(map(neg, self.nums)), self.den, real=self._real)

    def __sub__(self, other):
        if isinstance(other, CyclotomicScalar) or _rational_operand(other):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, num: int, den: int) -> "CyclotomicScalar":
        """self * num/den, for a positive den."""
        if num == den == 1:
            return self
        nums = tuple(map(mul, self.nums, repeat(num)))
        return CyclotomicScalar(self.ctx, nums, den * self.den, real=self._real)

    def __mul__(self, other):
        if not isinstance(other, CyclotomicScalar):
            if _rational_operand(other):
                return self._scale(other.numerator, other.denominator)
            return NotImplemented
        if other.ctx is not self.ctx:
            self._check(other)
        # the nonzero terms alone: the operands are sparse (25 of 576 terms
        # is typical), and one term at x^0 is a rational
        a, b = self.nonzero_terms(), other.nonzero_terms()
        if not a or not b:
            return self.ctx.zero
        if len(a) == 1 and not a[0][0]:
            return other._scale(a[0][1], self.den)
        if len(b) == 1 and not b[0][0]:
            return self._scale(b[0][1], other.den)
        conv = [0] * (a[-1][0] + b[-1][0] + 1)
        for i, x in a:
            for j, y in b:
                conv[i + j] += x * y
        real = True if (self._real and other._real) else None
        return CyclotomicScalar(self.ctx, self.ctx.reduce(conv), self.den * other.den, real=real)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ctx.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CyclotomicScalar":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if not self:
            raise ZeroDivisionError("scalar is zero")
        from fractions import Fraction

        if self.is_rational():
            q = 1 / self.as_fraction()
            return self.ctx.from_rational(q)
        a = [Fraction(c, self.den) for c in self.nums]
        b = [Fraction(c) for c in self.ctx.modulus]
        s0, s1 = [Fraction(1)], [Fraction(0)]

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        while deg(b) > 0:
            da, db = deg(a), deg(b)
            if da < db:
                a, b, s0, s1 = b, a, s1, s0
                continue
            shift, factor = da - db, a[da] / b[db]
            for t in range(db + 1):
                a[t + shift] -= factor * b[t]
            if len(s0) < len(s1) + shift + 1:
                s0 = s0 + [Fraction(0)] * (len(s1) + shift + 1 - len(s0))
            for t in range(len(s1)):
                s0[t + shift] -= factor * s1[t]
        if deg(b) != 0:
            raise ArithmeticError("modulus is not coprime to the element")
        g = b[0]
        coeffs = [c / g for c in s1]
        result = self.ctx.from_coeffs(coeffs)
        result._real = self._real
        return result

    def __truediv__(self, other):
        from fractions import Fraction

        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self * other.inverse()

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CyclotomicScalar):
            if self.ctx.N == other.ctx.N:
                return self.nums == other.nums and self.den == other.den
            # rationals compare by value, as they hash, whatever their field
            return (
                self.is_rational()
                and other.is_rational()
                and (self.nums[0], self.den) == (other.nums[0], other.den)
            )
        if _rational_operand(other):
            ratio = (other.numerator, other.denominator)
            return self.is_rational() and (self.nums[0], self.den) == ratio
        return NotImplemented

    def __hash__(self):
        if not self.is_rational():
            return hash((self.ctx.N, self.nums, self.den))
        if self.den == 1:
            return hash(self.nums[0])
        from fractions import Fraction

        return hash(Fraction(self.nums[0], self.den))

    # -- sign and numeric views ------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a real element: -1, 0 or +1.

        Decided by the scalar's own memo, the zero test and the rational
        shortcut, in that order, and then by the fixed-point ladder.  Each
        rung takes the exact integer sum S = sum(c_j * t_j) against a table t
        of cos(j*pi/N) * 2^bits, whose entries lie within 8 * bits * degree
        units of their values, and keeps the sign of S once |S| exceeds
        sum(|c_j|) times that radius.  The first rung reads cos_table (120
        bits); the later ones cos_enclosures, from 256 to 4096 bits.
        """
        if self._sign is not None:
            return self._sign
        if not self:
            self._sign = 0
            return 0
        if self.is_rational():
            self._sign = 1 if self.nums[0] > 0 else -1
            return self._sign
        if not self.is_real:
            raise ValueError("sign is defined for real scalars only")
        ctx, nums = self.ctx, self.nums
        radius_per_bit = 8 * ctx.degree * sum(map(abs, nums))
        for bits in _SIGN_LADDER:
            table = ctx.cos_table() if bits == _SIGN_LADDER[0] else ctx.cos_enclosures(bits)
            total = sum(map(mul, nums, table))
            if abs(total) > radius_per_bit * bits:
                self._sign = 1 if total > 0 else -1
                return self._sign
        raise PrecisionExhaustedError(
            f"sign of nonzero scalar undecided at {_SIGN_LADDER[-1]} bits"
        )

    def __repr__(self) -> str:
        if self.is_rational():
            q = self.nums[0] if self.den == 1 else f"{self.nums[0]}/{self.den}"
            return f"Scalar({q})"
        terms = []
        for j, c in enumerate(self.nums):
            if c:
                terms.append(f"{c}*z^{j}" if j else str(c))
        body = " + ".join(terms).replace("+ -", "- ")
        if self.den != 1:
            return f"Scalar(({body})/{self.den}, N={self.ctx.N})"
        return f"Scalar({body}, N={self.ctx.N})"


def embed(x: Scalar) -> CyclotomicScalar:
    """The image of a real-field element in Q(zeta_2N): c_0 stays, each
    c_j * C_j becomes c_j * (zeta^j + zeta^(2N-j)), reduced once."""
    N = x.ctx.N
    ctx = _cyclotomic_context_for(N)
    out = [0] * (2 * N)
    for j, c in enumerate(x.nums):
        if j:
            out[j] += c
            out[2 * N - j] += c
        else:
            out[0] += c
    return CyclotomicScalar(ctx, ctx.reduce(out), x.den)


@lru_cache(maxsize=None)
def cyclotomic_by_division(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, low to high: x^n - 1 divided exactly,
    by dense long division, by the product of the cyclotomic polynomials of
    the proper divisors of n."""
    if n == 1:
        return (-1, 1)
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_by_division(d)
            out = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            den = out
    num = [-1] + [0] * (n - 1) + [1]
    quotient = [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        q = num[k + len(den) - 1]  # den is monic
        quotient[k] = q
        for t, b in enumerate(den):
            num[k + t] -= q * b
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(quotient)


def reduce_by_dense_fold(modulus: tuple[int, ...], nums: list[int]) -> tuple[int, ...]:
    """Remainder of an integer vector modulo a monic modulus, folding each
    high coefficient through all lower coefficients of the modulus."""
    d = len(modulus) - 1
    work = list(nums) + [0] * max(0, d - len(nums))
    for k in range(len(work) - 1, d - 1, -1):
        c = work.pop()
        if c:
            for t in range(d):
                work[k - d + t] -= c * modulus[t]
    return tuple(work)


def scalar_from_fractions(ctx: FieldContext | CyclotomicField, coeffs) -> Scalar | CyclotomicScalar:
    """The canonical scalar of d reduced Fraction coefficients, in either
    field: integer numerators over their least common denominator, divided
    by the gcd."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    nums = [int(c * den) for c in coeffs]
    g = math.gcd(den, *nums)
    return type(ctx.zero)(ctx, tuple(c // g for c in nums), den // g)


def mul_by_schoolbook(a: CyclotomicScalar, b: CyclotomicScalar) -> CyclotomicScalar:
    """a * b in Q(zeta_2N) by the full convolution over every coefficient of
    both operands, reduced by the dense fold: the cyclotomic product before
    it went sparse."""
    ctx = a.ctx
    d = ctx.degree
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a.nums):
        if x:
            for j, y in enumerate(b.nums):
                if y:
                    conv[i + j] += x * y
    nums = reduce_by_dense_fold(ctx.modulus, conv)
    return scalar_from_fractions(ctx, [Fraction(c, a.den * b.den) for c in nums])


def add_by_coefficients(a: Scalar, b: Scalar, sign: int = 1) -> Scalar:
    """a + sign * b, coefficient by coefficient in Fractions."""
    return scalar_from_fractions(
        a.ctx, [Fraction(x, a.den) + sign * Fraction(y, b.den) for x, y in zip(a.nums, b.nums)]
    )


def conj_by_power_table(value: CyclotomicScalar) -> CyclotomicScalar:
    """The image of x -> x^(2N-1): each coefficient of x^j times the reduced
    row of x^(2N-j) in the table of all 2N root powers."""
    ctx = value.ctx
    table = ctx.power_table()
    d = ctx.degree
    out = [0] * d
    twoN = 2 * ctx.N
    for j, c in enumerate(value.nums):
        if c:
            row = table[(twoN - j) % twoN]
            for t in range(d):
                out[t] += c * row[t]
    return scalar_from_fractions(ctx, [Fraction(c, value.den) for c in out])


INTERVAL_LADDER = (64, 128, 256, 512, 1024, 2048, 4096)


@lru_cache(maxsize=None)
def _cos_intervals(N: int, degree: int, prec: int) -> tuple:
    """Enclosures of the basis 1, C_1, ..., C_(degree-1), C_j = 2cos(j*pi/N)."""
    from mpmath import iv

    old = iv.prec
    try:
        iv.prec = prec
        return (iv.mpf(1),) + tuple(2 * iv.cos(iv.pi * j / N) for j in range(1, degree))
    finally:
        iv.prec = old


def sign_by_intervals(value: Scalar) -> int:
    """Sign of a nonzero field element (c_0 + sum(c_j * 2cos(j*pi/N))) / den
    from outward mpmath interval sums, doubling the precision from 64 bits
    until the enclosure excludes zero."""
    from mpmath import iv

    ctx = value.ctx
    for prec in INTERVAL_LADDER:
        cosines = _cos_intervals(ctx.N, ctx.degree, prec)
        old = iv.prec
        try:
            iv.prec = prec
            total = iv.mpf(0)
            for j, c in enumerate(value.nums):
                if c:
                    total += c * cosines[j]
        finally:
            iv.prec = old
        if total > 0:
            return 1
        if total < 0:
            return -1
    raise ArithmeticError(f"sign undecided at {INTERVAL_LADDER[-1]} bits")


def reference_induced(g: DefiningGraph, names) -> DefiningGraph:
    """The induced subgraph by a scan of every edge of g, each kept edge
    renumbered and the result validated by DefiningGraph's constructor."""
    keep = g.subset(names)
    pos = {v: k for k, v in enumerate(keep)}
    edges = tuple(
        (pos[g.vertices[i]], pos[g.vertices[j]], m)
        for i, j, m in g.edges
        if g.vertices[i] in pos and g.vertices[j] in pos
    )
    return DefiningGraph(keep, edges)


def fc_by_subsets(g: DefiningGraph) -> bool:
    """Every vertex subset that is a clique induces a spherical subgraph."""
    for size in range(2, len(g.vertices) + 1):
        for subset in combinations(g.vertices, size):
            if all(adjacent(g, u, v) for u, v in combinations(subset, 2)):
                if not spherical_by_minors(g.induced(subset)):
                    return False
    return True


def two_dimensional_by_triples(g: DefiningGraph) -> bool:
    """No three vertices induce a spherical subgraph, tested on every induced
    triple through the diagram classification."""
    for triple in combinations(g.vertices, 3):
        if is_spherical(g.induced(triple)):
            return False
    return True


def dihedral_rewrite_closure(m: int, letters: tuple[str, ...]) -> set[tuple[str, ...]]:
    """All positive words reachable from the given one by single applications
    of the length-m braid relation to contiguous segments."""
    side_s = tuple("st"[i % 2] for i in range(m))
    side_t = tuple("ts"[i % 2] for i in range(m))
    seen = {letters}
    queue = [letters]
    while queue:
        w = queue.pop()
        for i in range(len(w) - m + 1):
            seg = w[i : i + m]
            if seg == side_s:
                new = w[:i] + side_t + w[i + m :]
            elif seg == side_t:
                new = w[:i] + side_s + w[i + m :]
            else:
                continue
            if new not in seen:
                seen.add(new)
                queue.append(new)
    return seen


def positive_words_equal_oracle(m: int, a: ArtinWord, b: ArtinWord) -> bool:
    """Rewriting-search equality for positive rank-2 words (lengths <= 12)."""
    assert a.is_positive() and b.is_positive()
    la = tuple(v for v, _ in a.letters)
    lb = tuple(v for v, _ in b.letters)
    if len(la) != len(lb):
        return False
    return lb in dihedral_rewrite_closure(m, la)


# -- rank-2 normal forms by fixed-point combing ---------------------------------
# An oracle for garside_nf's one-pass normal form that knows nothing of runs:
# every letter becomes a simple factor (an inverse one delta^-1 times its left
# complement), delta powers are pushed to the front, and adjacent pairs are
# re-weighted until nothing moves, at a cost quadratic in the word length.

# A simple element: (start, k) with start in {0, 1} indexing the generator
# pair and 1 <= k <= m, or (None, 0) for the identity.  k == m is delta.
Simple = tuple[int | None, int]

_ID: Simple = (None, 0)


def _end(x: Simple) -> int:
    start, k = x
    return start if k % 2 == 1 else 1 - start


def _left_descents(x: Simple, m: int) -> tuple[int, ...]:
    start, k = x
    if k == 0:
        return ()
    if k == m:
        return (0, 1)
    return (start,)


def _right_descents(x: Simple, m: int) -> tuple[int, ...]:
    _, k = x
    if k == 0:
        return ()
    if k == m:
        return (0, 1)
    return (_end(x),)


def _canon(start: int, k: int, m: int) -> Simple:
    if k == 0:
        return _ID
    if k == m:
        return (0, m)
    return (start, k)


def _lmul(c: int, x: Simple, m: int) -> Simple:
    """Left-multiply a dihedral group element by a generator."""
    start, k = x
    if k == 0:
        return (c, 1)
    if k == m:
        # shorten: result has length m-1 and still ends like delta would
        # after removing c from the front; its first letter is the other one.
        return _canon(1 - c, m - 1, m)
    if c == start:
        return _canon(1 - start, k - 1, m)
    return _canon(c, k + 1, m)


def _rmul(x: Simple, c: int, m: int) -> Simple:
    start, k = x
    if k == 0:
        return (c, 1)
    if k == m:
        new_end = 1 - c
        new_start = new_end if (m - 1) % 2 == 1 else 1 - new_end
        return _canon(new_start, m - 1, m)
    if c == _end(x):
        return _canon(start, k - 1, m)
    return _canon(start, k + 1, m)


def _left_complement(x: Simple, m: int) -> Simple:
    """The simple y with y * x = delta in the monoid."""
    start, k = x
    if k == 0:
        return (0, m)
    if k == m:
        return _ID
    y_end = 1 - start
    y_start = y_end if (m - k) % 2 == 1 else 1 - y_end
    return _canon(y_start, m - k, m)


def _tau(x: Simple, m: int) -> Simple:
    """Conjugation by delta: identity for even m, generator swap for odd m."""
    if m % 2 == 0:
        return x
    start, k = x
    if k == 0 or k == m:
        return x
    return (1 - start, k)


def _renorm_pair(u: Simple, v: Simple, m: int) -> tuple[Simple, Simple]:
    """Make the pair left weighted by moving initial letters of v onto u."""
    while True:
        ru = _right_descents(u, m)
        moved = False
        for c in _left_descents(v, m):
            if c not in ru:
                u = _rmul(u, c, m)
                v = _lmul(c, v, m)
                moved = True
                break
        if not moved:
            return u, v


def _normalize_factors(factors: list[Simple], m: int) -> tuple[int, tuple[Simple, ...]]:
    """Comb a factor list into normal form; returns the delta power shifted out."""
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            u, v = _renorm_pair(factors[i], factors[i + 1], m)
            if (u, v) != (factors[i], factors[i + 1]):
                factors[i], factors[i + 1] = u, v
                changed = True
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo][1] == m:
        lo += 1
    while lo < hi and factors[hi - 1][1] == 0:
        hi -= 1
    return lo, tuple(factors[lo:hi])


def garside_nf_by_combing(
    m: int, word: ArtinWord, gens: tuple[str, str] = ("s", "t")
) -> tuple[int, tuple[Simple, ...]]:
    """(delta_power, factors) of the left normal form, by combing."""
    idx = {gens[0]: 0, gens[1]: 1}
    factors: list[Simple] = []
    delta_pows: list[int] = []
    for v, e in word.letters:
        if e == 1:
            factors.append((idx[v], 1))
            delta_pows.append(0)
        else:
            factors.append(_left_complement((idx[v], 1), m))
            delta_pows.append(-1)
    power = 0
    for i in range(len(factors) - 1, -1, -1):
        if power % 2 == 1:
            factors[i] = _tau(factors[i], m)
        power += delta_pows[i]
    shift, combed = _normalize_factors(factors, m)
    return power + shift, combed


def group_abelianization(sub: DefiningGraph, w: ArtinWord) -> dict[str, int]:
    """Exponent sums in the abelianized Artin group: generators joined by an
    odd label coincide there, so sums are taken per odd-label component."""
    comp = {v: v for v in sub.vertices}

    def find(v):
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for i, j, m in sub.edges:
        if m % 2 == 1:
            comp[find(sub.vertices[i])] = find(sub.vertices[j])
    sums: dict[str, int] = {find(v): 0 for v in sub.vertices}
    for v, k in abelianize(sub, w).items():
        sums[find(v)] += k
    return sums


def words_equal_in_subgroup(sub: DefiningGraph, a: ArtinWord, b: ArtinWord) -> bool:
    """Equality of two words in the Artin group of a subset graph.

    Exact for at most two vertices (abelianization in rank 1, the Garside or
    free-reduction oracle in rank 2); for larger subsets this is the pair of
    necessary conditions: equal Coxeter images and equal images in the
    abelianized group.
    """
    n = len(sub.vertices)
    if n == 0:
        return len(a) == 0 and len(b) == 0
    if n == 1:
        return sum(e for _, e in a) == sum(e for _, e in b)
    if n == 2:
        gens = (sub.vertices[0], sub.vertices[1])
        return dihedral_equal(sub.label(*gens), a, b, gens)
    return theta(sub, a) == theta(sub, b) and group_abelianization(
        sub, a
    ) == group_abelianization(sub, b)


# -- named Coxeter diagrams ------------------------------------------------------
# Built from the published diagrams (Humphreys, Reflection Groups and Coxeter
# Groups, 2.4 and 2.5), not from the classifier's shapes: vertices are indices,
# diagram edges carry their labels (INF for infinity), and every other pair is
# given label 2.


def _path(labels) -> dict[tuple[int, int], object]:
    return {(i, i + 1): m for i, m in enumerate(labels)}


def _branched(path_labels, attach: int, extra: int) -> dict[tuple[int, int], object]:
    """A path with the given labels and one more vertex, extra, joined to
    the vertex at attach by label 3."""
    d = _path(path_labels)
    d[(attach, extra)] = 3
    return d


def named_diagrams(max_vertices: int = 10) -> dict[str, tuple[int, dict, object, object, bool | None]]:
    """name -> (vertex count, diagram edges, kind, Coxeter number h or None,
    whether -1 lies in W or None) for every named spherical and Euclidean
    diagram with at most max_vertices vertices.  Kinds are "spherical" and
    "euclidean"."""
    out: dict[str, tuple[int, dict, object, object, bool | None]] = {}
    for n in range(1, max_vertices + 1):
        out[f"A{n}"] = (n, _path([3] * (n - 1)), "spherical", n + 1, n == 1)
    for n in range(3, max_vertices + 1):
        out[f"B{n}"] = (n, _path([3] * (n - 2) + [4]), "spherical", 2 * n, True)
    for n in range(4, max_vertices + 1):
        out[f"D{n}"] = (n, _branched([3] * (n - 2), n - 3, n - 1), "spherical", 2 * n - 2, n % 2 == 0)
    for n, h, minus_one in ((6, 12, False), (7, 18, True), (8, 30, True)):
        out[f"E{n}"] = (n, _branched([3] * (n - 2), 2, n - 1), "spherical", h, minus_one)
    out["F4"] = (4, _path([3, 4, 3]), "spherical", 12, True)
    out["H3"] = (3, _path([5, 3]), "spherical", 10, True)
    out["H4"] = (4, _path([5, 3, 3]), "spherical", 30, True)
    for m in range(2, 31):  # I2(2) is A1 x A1: the diagram has no edge
        out[f"I2_{m}"] = (2, {} if m == 2 else {(0, 1): m}, "spherical", m, m % 2 == 0)
    euclidean = {"At1": (2, {(0, 1): INF}), "Ft4": (5, _path([3, 3, 4, 3])), "Gt2": (3, _path([6, 3]))}
    for n in range(2, max_vertices):
        cycle = _path([3] * n)
        cycle[(0, n)] = 3
        euclidean[f"At{n}"] = (n + 1, cycle)
        euclidean[f"Ct{n}"] = (n + 1, _path([4] + [3] * (n - 2) + [4]))
    for n in range(3, max_vertices):
        d = _branched([3] * (n - 2) + [4], 1, n)  # fork {0, n} at vertex 1, label 4 at the far end
        euclidean[f"Bt{n}"] = (n + 1, d)
    for n in range(4, max_vertices):
        d = _branched([3] * (n - 2), 1, n - 1)  # forks {0, n-1} at 1 and {n-2, n} at n-3
        d[(n - 3, n)] = 3
        euclidean[f"Dt{n}"] = (n + 1, d)
    euclidean["Et6"] = (7, {(0, 1): 3, (1, 2): 3, (0, 3): 3, (3, 4): 3, (0, 5): 3, (5, 6): 3})
    euclidean["Et7"] = (8, _branched([3] * 6, 3, 7))
    euclidean["Et8"] = (9, _branched([3] * 7, 2, 8))
    for name, (n, d) in euclidean.items():
        if n <= max_vertices:
            out[name] = (n, d, "euclidean", None, None)
    return out


def diagram_graph(n: int, diagram: dict, rng: random.Random | None = None) -> DefiningGraph:
    """The graph of a diagram on n vertices, vertex order shuffled by rng."""
    names = list(_NAMES[:n])
    if rng is not None:
        rng.shuffle(names)
    edges = []
    for i, j in combinations(range(n), 2):
        m = diagram.get((i, j), diagram.get((j, i), 2))
        if m != INF:
            edges.append((names[i], names[j], m))
    return make_graph(sorted(names), edges)


# -- random generators ---------------------------------------------------------


_NAMES = "abcdefghijklmnop"


def all_graphs(n: int, labels: tuple) -> list[DefiningGraph]:
    """Every labelling of the pairs of n vertices by the given labels."""
    verts = list(_NAMES[:n])
    pairs = list(combinations(verts, 2))
    return [
        make_graph(verts, [(u, v, m) for (u, v), m in zip(pairs, ms) if m != INF])
        for ms in product(labels, repeat=len(pairs))
    ]


def small_graphs() -> list[DefiningGraph]:
    """The exhaustive sweep: every graph on at most 3 vertices with labels
    2..6 and inf, and on 4 vertices with labels 2, 3, 4 and inf."""
    graphs = [g for n in range(4) for g in all_graphs(n, (2, 3, 4, 5, 6, INF))]
    return graphs + all_graphs(4, (2, 3, 4, INF))


def random_graph(
    rng: random.Random,
    n: int,
    labels: tuple = (2, 3, INF),
) -> DefiningGraph:
    verts = list(_NAMES[:n])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            m = rng.choice(labels)
            if m != INF:
                edges.append((verts[i], verts[j], m))
    return make_graph(verts, edges)


def random_word(
    rng: random.Random, g: DefiningGraph, length: int, positive: bool = False
) -> ArtinWord:
    letters = tuple(
        (rng.choice(g.vertices), 1 if positive else rng.choice((1, -1)))
        for _ in range(length)
    )
    return ArtinWord(letters)


def random_pure_word(rng: random.Random, g: DefiningGraph, blocks: int) -> ArtinWord:
    """Product of conjugated generator squares; always maps to 1 in the
    Coxeter group."""
    out = ArtinWord()
    for _ in range(blocks):
        conj = random_word(rng, g, rng.randrange(0, 3))
        v = rng.choice(g.vertices)
        square = ArtinWord(((v, 1), (v, 1)))
        out = out + conj + square + conj.inverse()
    return out


def random_subset(rng: random.Random, g: DefiningGraph) -> tuple[str, ...]:
    return tuple(v for v in g.vertices if rng.random() < 0.5)


def random_single_cone_graph(rng: random.Random, n: int) -> DefiningGraph:
    """Graph with exactly one cone point (the first vertex).

    The cone vertex gets finite labels to everything; every other vertex is
    given at least one non-neighbor among the rest, so no second cone point
    can exist.  Needs n >= 3.
    """
    assert n >= 3
    verts = list(_NAMES[:n])
    cone = verts[0]
    edges = [(cone, v, rng.choice((2, 2, 3, 4))) for v in verts[1:]]
    others = verts[1:]
    forbidden: set[tuple[str, str]] = set()
    for u in others:
        partners = [v for v in others if v != u]
        v = rng.choice(partners)
        forbidden.add((min(u, v), max(u, v)))
    for i in range(len(others)):
        for j in range(i + 1, len(others)):
            u, v = others[i], others[j]
            if (min(u, v), max(u, v)) in forbidden:
                continue
            m = rng.choice((2, 3, INF))
            if m != INF:
                edges.append((u, v, m))
    g = make_graph(verts, edges)
    assert g.cone_points() == (cone,)
    return g


def layered_fc_graph_text(layers: int) -> str:
    """Graph file of an FC-type graph with 3^layers maximal cliques, the
    Moon-Moser extreme: three vertices per layer, no edge inside a layer,
    label 3 between neighbouring layers and 2 between the others.  A maximal
    clique takes one vertex per layer and spans the path diagram A_layers."""
    names = [f"v{k}_{i}" for k in range(layers) for i in range(3)]
    lines = ["vertices: " + " ".join(names)]
    for a, b in combinations(range(len(names)), 2):
        gap = b // 3 - a // 3
        if gap:
            lines.append(f"edge {names[a]} {names[b]} {3 if gap == 1 else 2}")
    return "\n".join(lines) + "\n"


def random_cone_free_graph(rng: random.Random, n: int) -> DefiningGraph:
    """Graph with no cone points: every vertex gets at least one non-neighbor."""
    assert n >= 2
    verts = list(_NAMES[:n])
    forbidden: set[tuple[str, str]] = set()
    for u in verts:
        partners = [v for v in verts if v != u]
        v = rng.choice(partners)
        forbidden.add((min(u, v), max(u, v)))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            u, v = verts[i], verts[j]
            if (min(u, v), max(u, v)) in forbidden:
                continue
            m = rng.choice((2, 3, 4, INF))
            if m != INF:
                edges.append((u, v, m))
    g = make_graph(verts, edges)
    assert g.cone_points() == ()
    return g


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's parser as written out by hand before its arguments became a
    table: the oracle for cli._build_parser and cli._match."""
    parser = argparse.ArgumentParser(
        prog="artincenter",
        description="Exact Artin/Coxeter computations and center certification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="certify the center of a graph's Artin group")
    p.add_argument("graph", nargs="?", help="graph file")
    p.add_argument("--dir", help="analyze every .graph file in a directory")
    p.set_defaults(func=cli.cmd_analyze)

    p = sub.add_parser("retract", help="retract a word onto a vertex subset")
    p.add_argument("graph")
    p.add_argument("subset", help="comma-separated vertex names")
    p.add_argument("word")
    p.add_argument("--trace", action="store_true", help="show the per-letter audit")
    p.set_defaults(func=cli.cmd_retract)

    p = sub.add_parser("reduce", help="canonical reduced word of the Coxeter image")
    p.add_argument("graph")
    p.add_argument("word")
    p.set_defaults(func=cli.cmd_reduce)

    p = sub.add_parser("coset", help="split the Coxeter image across a standard subgroup")
    p.add_argument("graph")
    p.add_argument("subset", help="comma-separated vertex names")
    p.add_argument("word")
    p.set_defaults(func=cli.cmd_coset)

    p = sub.add_parser("split", help="amalgam decomposition over a non-adjacent pair")
    p.add_argument("graph")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cli.cmd_split)

    p = sub.add_parser("word", help="positivity, support, abelianization, purity")
    p.add_argument("graph")
    p.add_argument("word")
    p.set_defaults(func=cli.cmd_word)

    p = sub.add_parser("dihedral", help="rank-2 normal form or equality")
    p.add_argument("graph", help="graph file with exactly two vertices")
    p.add_argument("word")
    p.add_argument("word2", nargs="?", help="second word for an equality test")
    p.set_defaults(func=cli.cmd_dihedral)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
    return parser


def reference_main(argv: list[str]) -> int:
    """cli.main with every argv parsed by reference_parser."""
    parser = reference_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and not args.dir and not args.graph:
        parser.error("analyze needs a graph file or --dir")
    if args.command == "analyze" and args.dir and args.graph:
        parser.error("analyze needs a graph file or --dir, not both")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_ERROR


# The grammar of vertex names and word tokens as regular expressions: the
# oracle for graph._is_name and words.parse_word.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?")


def reference_parse_word(text: str, g: DefiningGraph) -> ArtinWord:
    """parse_word by TOKEN_RE, with the same checks and messages in the same
    order."""
    letters: list[tuple[str, int]] = []
    for token in text.split():
        match = TOKEN_RE.fullmatch(token)
        if not match:
            raise WordSyntaxError(f"malformed token {token!r}")
        v, exp_text = match.group(1), match.group(2)
        if v not in g:
            raise WordSyntaxError(f"unknown generator {v!r}")
        exp = 1
        if exp_text is not None:
            digits = exp_text.lstrip("-")
            magnitude = digits[next((i for i, c in enumerate(digits) if int(c)), len(digits)):] or "0"
            if len(magnitude) > len(str(MAX_LETTERS)):
                raise WordSyntaxError(f"word exceeds the {MAX_LETTERS}-letter guard")
            exp = -int(magnitude) if exp_text.startswith("-") else int(magnitude)
        if exp == 0:
            raise WordSyntaxError(f"zero exponent in {token!r}")
        if len(letters) + abs(exp) > MAX_LETTERS:
            raise WordSyntaxError(f"word exceeds the {MAX_LETTERS}-letter guard")
        letters.extend([(v, 1 if exp > 0 else -1)] * abs(exp))
    return ArtinWord(tuple(letters))
