"""Exact arithmetic in the real cyclotomic field Q(cos(pi/N)).

Every value the reflection representation builds is real: its entries are
polynomials in 2cos(pi/m).  So elements live in the real subfield of
Q(exp(i*pi/N)), of degree D = phi(2N)/2 (D = 1 for N <= 2), stored as
integer coefficients of the basis 1, C_1, ..., C_(D-1) with
C_j = 2cos(j*pi/N), over a common positive denominator.  The representation
is canonical, which gives a decidable zero test (every coefficient is zero)
and therefore exact equality.

Products use C_i * C_j = C_(i+j) + C_|i-j|, with C_0 = 2.  Indices come back
below N/2 through C_(2N-k) = C_k, C_N = -2 and C_(N-k) = -C_k (so
C_(N/2) = 0), and those from D up fold through the relation read off the
palindromic 2N-th cyclotomic polynomial Phi of degree 2D: with
x = exp(i*pi/N), x^-D * Phi(x) = p_D + sum_(k>=1) p_(D+k) * C_k = 0.  So
C_D = -p_D - sum_(k<D) p_(D+k) * C_k, and C_k = C_(k-D) * C_D - C_|k-2D| for
k > D, which only the nonzero p_(D+k) enter.  Phi is the Moebius product
prod_(d | 2N) (x^d - 1)^mu(2N/d), multiplied and divided one binomial at a
time in linear passes; for an n that is not squarefree,
Phi_n(x) = Phi_r(x^(n/r)) with r the radical of n, so the passes run only
over the binomials of Phi_r.

Products run over the nonzero terms of each operand only.  A Cartan
coefficient 2cos(pi/m) is the single term C_(N/m) when N/m < D, so a
generator update costs about twice the term count of the entry it scales.
Each scalar finds its terms in one pass and keeps them; an empty list is the
zero test and one term at index 0 the rational shortcut.  Sums, negation and
scaling map operator functions over the numerator tuples.

The sign of an element is decided in this order: the scalar's own memo, the
zero test, the rational shortcut, then a ladder of fixed-point sums.  Each
rung sums the numerators exactly, in integers, against a table of
cos(j*pi/N) * 2^bits built in integer arithmetic with a proven radius, and
keeps the sign of the sum once it clears the numerators' weight times that
radius; the first rung reads a 120-bit table, the later ones double the bits
from 256.  Nonzero algebraic numbers are bounded away from zero, so the
ladder terminates; the 4096-bit cap is a loud guard against bugs, not a
domain error.

Arithmetic with int or Scalar operands works on integer numerators and
denominators alone; fractions is imported only where a Fraction is given or
returned (from_rational given a non-int, from_coeffs, as_fraction, division,
Fraction operands and the hash of a non-integer rational), since loading it
adds 3 ms or more to a process's start-up.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, compress, repeat
from operator import add, mul, neg
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

# Largest degree phi(2N) of the cyclotomic field whose real subfield, of half
# that degree, a context is built for.  Labels 101 and 103 give 10200, where
# `reduce` on a five-letter word computes for about 0.05 s (2 s in Q(zeta_2N)
# itself); a graph's field stays there with a label 2 beside them, because
# `coxeter.field_of` leaves label 2 out of N (cos(pi/2) = 0).  Labels 127 and
# 131 give 16380, where a 16-letter `reduce` computes for about 0.1 s.  Labels
# such as 10^9 would need gigabytes for Phi alone.
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
    """Arithmetic context for one field Q(cos(pi/N)): its degree D, the fold
    relation of C_D and value caches.

    The degree phi(2N) of the cyclotomic field is checked against
    MAX_FIELD_DEGREE before anything is built.  As phi(n) >= sqrt(n/2),
    phi(2N) >= sqrt(N): an N past MAX_FIELD_DEGREE^2 fails without factoring,
    and below that, trial division up to sqrt(2N) is cheap.
    """

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("N must be positive")
        if N > MAX_FIELD_DEGREE**2 or _totient(2 * N) > MAX_FIELD_DEGREE:
            raise ValueError(f"field exceeds the {MAX_FIELD_DEGREE}-degree guard")
        self.N = N
        poly = cyclotomic_polynomial(2 * N)
        d = self.degree = max(1, (len(poly) - 1) // 2)
        # C_D = const + sum(b * C_t) over these nonzero terms, 0 < t < D
        self._fold_const = -poly[d]
        self._fold_terms = tuple((t, -c) for t, c in enumerate(poly[d + 1 : 2 * d], 1) if c)
        self._cos_first: tuple[int, ...] | None = None
        self._cos_cache: dict[int, tuple[int, ...]] = {}
        self._cos_pi_cache: dict[int, Scalar] = {}
        self.zero = Scalar(self, (0,) * d, 1)
        self.one = Scalar(self, (1,) + (0,) * (d - 1), 1)

    def __repr__(self) -> str:
        return f"FieldContext(N={self.N})"

    # -- construction ----------------------------------------------------

    def from_rational(self, q: int | Fraction) -> "Scalar":
        if not isinstance(q, int):
            from fractions import Fraction

            q = Fraction(q)
        nums = (q.numerator,) + (0,) * (self.degree - 1)
        return Scalar(self, nums, q.denominator)

    def from_coeffs(self, coeffs: Sequence[int | Fraction]) -> "Scalar":
        """Scalar from rational coefficients of 1, C_1, C_2, ..., any length."""
        from fractions import Fraction

        den = 1
        for c in coeffs:
            den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
        nums = [int(Fraction(c) * den) for c in coeffs]
        return Scalar(self, self.reduce(nums), den)

    # -- reduction machinery ----------------------------------------------

    def reduce(self, nums: Sequence[int]) -> tuple[int, ...]:
        """Reduce integer coefficients of 1, C_1, C_2, ... (any length) to the
        basis 1, C_1, ..., C_(D-1)."""
        d, N = self.degree, self.N
        if len(nums) <= d:
            return tuple(nums) + (0,) * (d - len(nums))
        work = list(nums)
        half = N // 2
        # C_(2N-k) = C_k, C_N = -2 and C_(N-k) = -C_k: every index past N/2
        # comes down, and C_(N/2) = 0
        if len(work) > half:
            for k in range(len(work) - 1, half, -1):
                c = work[k]
                if c:
                    r = k % (2 * N)
                    if r > N:
                        r = 2 * N - r
                    if r == N:
                        work[0] -= 2 * c
                    elif not r:
                        work[0] += 2 * c
                    elif 2 * r > N:
                        work[N - r] -= c
                    elif 2 * r < N:
                        work[r] += c
            del work[half + 1 :]
            if not N % 2:
                work[half] = 0
        const, terms = self._fold_const, self._fold_terms
        # C_0 = 2 lands in slot 0 and counts double at the end; the constant
        # the relation itself adds at k = D goes to `unit`
        c0, work[0], unit = work[0], 0, 0
        for k in range(len(work) - 1, d - 1, -1):
            c = work.pop()
            if not c:
                continue
            i = k - d
            if i:  # C_k = C_i * C_D - C_|k-2D|
                work[i] += c * const
                for t, b in terms:
                    cb = c * b
                    work[i + t] += cb
                    work[i - t if i > t else t - i] += cb
                work[k - 2 * d if k > 2 * d else 2 * d - k] -= c
            else:
                unit += c * const
                for t, b in terms:
                    work[t] += c * b
        work[0] = c0 + unit + 2 * work[0]
        return tuple(work)

    def power_table(self) -> tuple[tuple[int, ...], ...]:
        """C_k reduced, for 0 <= k < 2N: the tests' view of index reduction
        and the fold, which the program does not call.  (The name is that of
        the cyclotomic table of root powers, which bench/shim.py wraps.)"""
        return tuple(self.reduce([0] * k + [1] if k else [2]) for k in range(2 * self.N))

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
    """Context for the smallest field Q(cos(pi/N)) containing cos(pi/m) for
    every finite label; FieldContext refuses a phi(2N) past MAX_FIELD_DEGREE."""
    N = 1
    for m in labels:
        if not (isinstance(m, int) and m >= 2):
            raise ValueError(f"label {m!r} must be an integer >= 2")
        N = N * m // math.gcd(N, m)
    return _context_for(N)


def cos_pi_over(m: int | float, ctx: FieldContext) -> "Scalar":
    """Exact cos(pi/m) = C_(N/m) / 2 for finite m dividing N, or m = 2; the
    rational 1 for an infinite label.

    The infinite-label value 1 makes -cos equal to -1, the standard Gram entry
    for a non-adjacent pair in the reflection representation.  Finite values
    are built once per context and shared: scalars are immutable, and their
    lazily cached sign depends on the value alone.
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
        nums = ctx.reduce([0] * (ctx.N // m) + [1])
        cached = ctx._cos_pi_cache[m] = Scalar(ctx, nums, 2)
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
    """Immutable field element: integer coefficients of 1, C_1, ..., C_(D-1)
    over a positive denominator.

    The coefficient tuple always has length equal to the context degree, and
    the constructor divides out the gcd of the denominator and the
    numerators; so the representation is canonical and equality is
    structural within a field.  A rational scalar hashes as its value, which
    it equals as an int, a Fraction or a rational scalar of any field.
    """

    __slots__ = ("ctx", "nums", "den", "_sign", "_terms")

    def __init__(self, ctx: FieldContext, nums: tuple[int, ...], den: int):
        if den != 1:
            nums, den = _normalize(nums, den)
        self.ctx = ctx
        self.nums = nums
        self.den = den
        self._sign = None
        self._terms = None

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def nonzero_terms(self) -> tuple[tuple[int, int], ...]:
        """(j, c) for each nonzero numerator c of C_j (j = 0: of 1), in
        order; built once."""
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
        """The complex conjugate: every element of a real field is its own.
        Kept because bench/shim.py wraps it by name."""
        return self

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
        if a.den == b.den:
            nums = tuple(map(add, a.nums, b.nums))
            den = a.den
        else:
            g = math.gcd(a.den, b.den)
            da, db = b.den // g, a.den // g
            nums = tuple(map(add, map(mul, a.nums, repeat(da)), map(mul, b.nums, repeat(db))))
            den = a.den * da
        return Scalar(self.ctx, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, tuple(map(neg, self.nums)), self.den)

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
        return Scalar(self.ctx, nums, den * self.den)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if _rational_operand(other):
                return self._scale(other.numerator, other.denominator)
            return NotImplemented
        if other.ctx is not self.ctx:
            self._check(other)
        # the nonzero terms alone: a Cartan coefficient is one or two terms,
        # and one term at index 0 is a rational
        a, b = self.nonzero_terms(), other.nonzero_terms()
        if not a or not b:
            return self.ctx.zero
        if len(a) == 1 and not a[0][0]:
            return other._scale(a[0][1], self.den)
        if len(b) == 1 and not b[0][0]:
            return self._scale(b[0][1], other.den)
        a0, b0 = (a[0][1] if not a[0][0] else 0), (b[0][1] if not b[0][0] else 0)
        b_rest = b[1:] if b0 else b
        conv = [0] * (a[-1][0] + b[-1][0] + 1)
        for i, x in a[1:] if a0 else a:
            if b0:
                conv[i] += x * b0
            for j, y in b_rest:  # C_i * C_j = C_(i+j) + C_|i-j|
                p = x * y
                conv[i + j] += p
                conv[i - j if i > j else j - i] += p
        conv[0] *= 2  # what landed there is C_0 = 2
        if a0:
            for j, y in b:
                conv[j] += a0 * y
        return Scalar(self.ctx, self.ctx.reduce(conv), self.den * other.den)

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
        """Multiplicative inverse: the product of the other Galois conjugates,
        C_j -> C_(a*j) for a unit a of Z/2N up to sign, over the norm."""
        if not self:
            raise ZeroDivisionError("scalar is zero")
        ctx, N = self.ctx, self.ctx.N
        others = ctx.one
        for a in range(2, N):
            if math.gcd(a, 2 * N) == 1:
                image = [0] * (2 * N)
                for j, c in self.nonzero_terms():
                    image[a * j % (2 * N) if j else 0] += c
                others = others * Scalar(ctx, ctx.reduce(image), self.den)
        norm = self * others
        num, den = norm.den, norm.nums[0]
        return others._scale(num, den) if den > 0 else others._scale(-num, -den)

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

    # -- sign ------------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1.

        Decided by the scalar's own memo, the zero test and the rational
        shortcut, in that order, and then by the fixed-point ladder.  Each
        rung takes the exact integer sum S = c_0 * 2^bits + sum(c_j * 2t_j)
        against a table t of cos(j*pi/N) * 2^bits, whose doubled entries lie
        within 16 * bits * degree units of C_j * 2^bits, and keeps the sign of
        S once |S| exceeds sum(|c_j|) times that radius.  The first rung
        reads cos_table (120 bits); the later ones cos_enclosures, from 256
        to 4096 bits.
        """
        if self._sign is not None:
            return self._sign
        if not self:
            self._sign = 0
            return 0
        if self.is_rational():
            self._sign = 1 if self.nums[0] > 0 else -1
            return self._sign
        ctx, nums = self.ctx, self.nums
        radius_per_bit = 16 * ctx.degree * sum(map(abs, nums))
        for bits in _SIGN_LADDER:
            table = ctx.cos_table() if bits == _SIGN_LADDER[0] else ctx.cos_enclosures(bits)
            # table[0] = 2^bits is exact, and 1 is not doubled
            total = 2 * sum(map(mul, nums, table)) - (nums[0] << bits)
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
                terms.append(f"{c}*C{j}" if j else str(c))
        body = " + ".join(terms).replace("+ -", "- ")
        if self.den != 1:
            return f"Scalar(({body})/{self.den}, N={self.ctx.N})"
        return f"Scalar({body}, N={self.ctx.N})"
