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
retraction by explicit conjugation of each letter's generator, cyclotomic
polynomials by the product recursion with dense division, reduction by a
dense fold through every lower coefficient of the modulus, field products
by the schoolbook convolution over every coefficient of both operands, sums
by Fraction coefficients, conjugation through the table of all 2N root
powers, signs of real field elements by outward-rounded mpmath interval
sums, rank-2 Garside normal forms by fixed-point combing of a
simple-factor list, the command line by the hand-written argparse parser,
vertex names and word tokens by regular expressions, and JSON output by
json.dumps.
"""

from __future__ import annotations

import argparse
import math
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

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
from artincenter.dihedral import dihedral_equal
from artincenter.retraction import retract, retract_trace
from artincenter.graph import INF, DefiningGraph, make_graph
from artincenter.scalar import FieldContext, Scalar, cos_pi_over
from artincenter.words import MAX_LETTERS, ArtinWord, WordSyntaxError, abelianize


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


def scalar_from_fractions(ctx: FieldContext, coeffs) -> Scalar:
    """The canonical scalar of d reduced Fraction coefficients: integer
    numerators over their least common denominator, divided by the gcd."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    nums = [int(c * den) for c in coeffs]
    g = math.gcd(den, *nums)
    return Scalar(ctx, tuple(c // g for c in nums), den // g)


def mul_by_schoolbook(a: Scalar, b: Scalar) -> Scalar:
    """a * b by the full convolution over every coefficient of both operands,
    reduced by the dense fold: the field product before it went sparse."""
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


def conj_by_power_table(value: Scalar) -> Scalar:
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
    from mpmath import iv

    old = iv.prec
    try:
        iv.prec = prec
        return tuple(iv.cos(iv.pi * j / N) for j in range(degree))
    finally:
        iv.prec = old


def sign_by_intervals(value: Scalar) -> int:
    """Sign of a nonzero real field element sum(c_j * cos(j*pi/N)) / den from
    outward mpmath interval sums, doubling the precision from 64 bits until
    the enclosure excludes zero."""
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
            if all(g.adjacent(u, v) for u, v in combinations(subset, 2)):
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
