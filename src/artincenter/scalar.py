"""Exact arithmetic in the cyclotomic field generated by exp(i*pi/N).

Elements are residues of rational polynomials modulo the 2N-th cyclotomic
polynomial, stored as integer coefficient vectors over a common positive
denominator.  This gives a decidable zero test (the reduced polynomial is
zero) and therefore exact equality.  The sign of a real element is its
value sum(c_j * cos(j*pi/N)), decided in this order: the scalar's own memo,
the zero test, the rational shortcut, then a ladder of fixed-point sums.
Each rung sums the numerators exactly, in integers, against a table of
cos(j*pi/N) * 2^bits built in integer arithmetic with a proven radius, and
keeps the sign of the sum once it clears the numerators' weight times that
radius; the first rung reads a 120-bit table, the later ones double the
bits from 256.  Nonzero algebraic numbers are bounded away from zero, so the
ladder terminates; the 4096-bit cap is a loud guard against bugs, not a
domain error.

The modulus is the Moebius product prod_{d | 2N} (x^d - 1)^mu(2N/d),
multiplied and divided one binomial at a time in linear passes.  For an n
that is not squarefree, Phi_n(x) = Phi_r(x^(n/r)) with r the radical of n
(the product of its distinct primes), so the passes run only over the
binomials of Phi_r: Phi_2520, of degree 576, is Phi_210, of degree 48, in
x^12.  Reduction first folds with x^N = -1 (the modulus divides x^N + 1),
then through the nonzero terms of the modulus below its degree only, so
field set-up and each reduction cost in proportion to the modulus's
sparsity rather than its degree.

Products run over the nonzero terms of each operand only: the operands of
the reflection representation are sparse (a median of 25 nonzero
coefficients at degree 144 and 576), so the convolution costs the product
of the term counts, not degree squared.  Each scalar finds its terms in one
pass and keeps them, since the Cartan coefficients enter every generator
update; an empty list is the zero test and one term at x^0 the rational
shortcut.  Sums, negation and scaling map operator functions over the
numerator tuples.

All values used by the reflection representation are real; realness is a
flag propagated through arithmetic and checked against conjugation (the
substitution x -> x^(2N-1)) only when a value is built from raw coefficients.
Conjugation sends each term c*x^j to -c*x^(N-j), as x^N = -1, and reduces
once; the table of all 2N root powers (power_table) is left to the tests as
the oracle of root powers and conjugation.

Arithmetic with int or Scalar operands works on integer numerators and
denominators alone; fractions is imported only where a Fraction is given or
returned (from_rational given a non-int, from_coeffs, as_fraction, inverse,
division, Fraction operands and the hash of a non-integer rational), since
loading it adds 3 ms or more to a process's start-up.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, compress, repeat
from operator import add, mul, neg
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

# Largest field degree phi(2N) a context is built for.  Labels 101 and 103
# give degree 10200, where `reduce` on a five-letter word takes about 7 s; a
# graph's field stays there with a label 2 beside them, because
# `coxeter.field_of` leaves label 2 out of N (cos(pi/2) = 0).  At degree 32760
# (labels 127, 131 and 2 given to field_context) it takes about 15 s.  Labels
# such as 10^9 would need gigabytes for the modulus alone.
MAX_FIELD_DEGREE = 2**15

# Fractional bits of the cosine tables behind the sign rungs: the first rung
# reads the field's own table, the others come from cos_enclosures.
_SIGN_LADDER = (120, 256, 512, 1024, 2048, 4096)


def _atan_inverse(x: int, bits: int) -> int:
    # arctan(1/x) * 2^bits by its alternating series; the nested floor
    # divisions give each power floor(2^bits / x^(2k+1)) exactly, so each term
    # is off by less than 2 units and the tail omitted is below 1 unit
    power, x2 = (1 << bits) // x, x * x
    total, k = 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x2
        k += 1
    return total


def _cos_table(N: int, degree: int, bits: int) -> tuple[int, ...]:
    """cos(j*pi/N) * 2^bits for j < degree, each entry within 8 * bits * j
    units of its value, for every bits >= 120.

    Integer arithmetic only, in fixed point at u = 2^-b with b = bits:
    - pi comes from Machin's formula 16 atan(1/5) - 4 atan(1/239).  The
      series of atan(1/x) runs K <= (b / log2(x) + 1) / 2 terms, each within
      2 u, and omits a tail below u, so it is within b / log2(x) + 2 units,
      and pi within 16 (b/2.32 + 2) + 4 (b/7.9 + 2) < 7.41 b + 40 < 8 b.
    - theta = pi/N, floor-divided, is within 8 b / N + 1 <= 4 b + 1 units
      for N >= 2.  (N = 1 has degree 1 and uses only the exact entry j = 0.)
    - exp(i theta) comes from the Taylor series with floor-rounded terms
      theta^k / k!.  As theta <= pi/2, each term is within e^theta < 5 u
      (the previous term's error times theta/k, plus one rounding).  The
      exact terms drop below u once k >= b/2 (k! >= (k/e)^k), so there are
      at most b/2 + 1 terms, and the omitted tail starts below 5 u and
      shrinks by theta/(k+1) <= 0.79: under 24 u.  So w, the computed
      exp(i theta), is within 4b + 1 + 5 (b/2 + 1) + 24 < 7 b units of
      exp(i pi/N), and |w| <= 1 + 7 b u.
    - The powers come from complex products with both parts floor-rounded,
      each adding under sqrt(2) units, so the error of power j obeys
      E(j+1) <= E(j) |w| + 7 b + sqrt(2), giving
      E(j) <= j (7 b + sqrt(2)) (1 + 7 b u)^j < 8 b j units: the last factor
      is below 1 + 2^-40 for any table that fits in memory (j < 2^60).
    Entry j is the real part of power j, so within 8 b j units of
    cos(j*pi/N) * 2^b.
    """
    one = 1 << bits
    theta = (16 * _atan_inverse(5, bits) - 4 * _atan_inverse(239, bits)) // N
    re = im = 0
    term, k = one, 0
    while term:  # term = theta^k / k!
        if k % 4 == 0:
            re += term
        elif k % 4 == 1:
            im += term
        elif k % 4 == 2:
            re -= term
        else:
            im -= term
        k += 1
        term = term * theta // (k << bits)
    table, a, b = [], one, 0
    for _ in range(degree):
        table.append(a)
        a, b = (a * re - b * im) >> bits, (a * im + b * re) >> bits
    return tuple(table)


class PrecisionExhaustedError(ArithmeticError):
    """Sign determination hit the precision cap; indicates a bug."""


def _prime_factors(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _totient(n: int) -> int:
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


def _divide_by_binomial(p: list[int], d: int) -> list[int]:
    # Exact quotient of p by x^d - 1: q[k] = q[k-d] - p[k], then the top d
    # coefficients of p must equal those of q * x^d.
    n = len(p) - d
    if n < 1:
        raise ArithmeticError("non-exact polynomial division")
    q = [0] * n
    for k in range(n):
        q[k] = (q[k - d] if k >= d else 0) - p[k]
    for k in range(n, len(p)):
        if p[k] != (q[k - d] if k >= d else 0):
            raise ArithmeticError("non-exact polynomial division")
    return q


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    Computed as the Moebius product prod_{d | n} (x^d - 1)^mu(n/d): only
    squarefree n/d contribute.  The binomials with mu = +1 are multiplied in
    first, one shift-and-subtract pass each, and those with mu = -1 are then
    divided out exactly, so the cost is linear in the degree per binomial.
    An n that is not squarefree gives Phi_r(x^(n/r)), r its radical.
    """
    if n < 1:
        raise ValueError("n must be positive")
    primes = _prime_factors(n)
    radical = math.prod(primes)
    if radical != n:
        base = cyclotomic_polynomial(radical)
        poly = [0] * ((len(base) - 1) * (n // radical) + 1)
        poly[:: n // radical] = base
        return tuple(poly)
    times, over = [], []
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            (over if r % 2 else times).append(n // math.prod(subset))
    poly = [1]
    for d in times:
        shifted = [0] * d + poly
        for k, c in enumerate(poly):
            shifted[k] -= c
        poly = shifted
    for d in over:
        poly = _divide_by_binomial(poly, d)
    return tuple(poly)


class FieldContext:
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
        self._cos_pi_cache: dict[int, Scalar] = {}
        zero_nums = (0,) * d
        self.zero = Scalar(self, zero_nums, 1, real=True)
        one_nums = (1,) + (0,) * (d - 1)
        self.one = Scalar(self, one_nums, 1, real=True)

    def __repr__(self) -> str:
        return f"FieldContext(N={self.N})"

    # -- construction ----------------------------------------------------

    def from_rational(self, q: int | Fraction) -> "Scalar":
        if not isinstance(q, int):
            from fractions import Fraction

            q = Fraction(q)
        nums = (q.numerator,) + (0,) * (self.degree - 1)
        return Scalar(self, nums, q.denominator, real=True)

    def from_coeffs(self, coeffs: Sequence[int | Fraction]) -> "Scalar":
        """Scalar from rational coefficients of powers of the root, any length."""
        from fractions import Fraction

        den = 1
        for c in coeffs:
            den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
        nums = [int(Fraction(c) * den) for c in coeffs]
        return Scalar(self, self.reduce(nums), den)

    def root_power(self, k: int) -> "Scalar":
        """The exact value of the generator raised to the k-th power (any integer k)."""
        k %= 2 * self.N
        return Scalar(self, self.reduce([0] * k + [1]), 1)

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
def _context_for(N: int) -> FieldContext:
    return FieldContext(N)


def field_context(labels: Iterable[int]) -> FieldContext:
    """Context for the smallest field containing cos(pi/m) for every finite
    label; FieldContext refuses a degree past MAX_FIELD_DEGREE."""
    N = 1
    for m in labels:
        if not (isinstance(m, int) and m >= 2):
            raise ValueError(f"label {m!r} must be an integer >= 2")
        N = N * m // math.gcd(N, m)
    return _context_for(N)


def cos_pi_over(m: int | float, ctx: FieldContext) -> "Scalar":
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
        cached = Scalar(ctx, val.nums, 2 * val.den, real=True)
        ctx._cos_pi_cache[m] = cached
    return cached


def _rational_operand(q) -> bool:
    """An int or a Fraction; fractions is imported for other operands only."""
    if isinstance(q, int):
        return True
    from fractions import Fraction

    return isinstance(q, Fraction)


def _normalize(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    # divide out the gcd of a positive denominator and the numerators
    g = den
    for c in nums:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                break
    if g > 1:
        nums = [c // g for c in nums]
        den //= g
    return tuple(nums), den


class Scalar:
    """Immutable field element: integer coefficients over a positive denominator.

    The coefficient tuple always has length equal to the context degree and is
    reduced modulo the modulus, and the constructor divides out the gcd of the
    denominator and the numerators; so the representation is canonical and
    equality is structural within a field.  A rational scalar hashes as its
    value, which it equals as an int, a Fraction or a rational scalar of any
    field.
    """

    __slots__ = ("ctx", "nums", "den", "_real", "_sign", "_terms")

    def __init__(self, ctx: FieldContext, nums: tuple[int, ...], den: int, real=None):
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

    def conj(self) -> "Scalar":
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
        return Scalar(ctx, ctx.reduce(out), self.den)

    @property
    def is_real(self) -> bool:
        if self._real is None:
            self._real = self.conj() == self
        return self._real

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Scalar") -> None:
        if self.ctx.N != other.ctx.N:
            raise ValueError("scalars from different field contexts")

    def __add__(self, other):
        if not isinstance(other, Scalar):
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
        return Scalar(self.ctx, nums, den, real=real)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, tuple(map(neg, self.nums)), self.den, real=self._real)

    def __sub__(self, other):
        if isinstance(other, Scalar) or _rational_operand(other):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, num: int, den: int) -> "Scalar":
        """self * num/den, for a positive den."""
        if num == den == 1:
            return self
        nums = tuple(map(mul, self.nums, repeat(num)))
        return Scalar(self.ctx, nums, den * self.den, real=self._real)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
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
        return Scalar(self.ctx, self.ctx.reduce(conv), self.den * other.den, real=real)

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

    def inverse(self) -> "Scalar":
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
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
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
