import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from artincenter.graph import INF
from artincenter.scalar import (
    MAX_FIELD_DEGREE,
    FieldContext,
    Scalar,
    _sign_by_intervals,
    _sign_in_doubles,
    cos_pi_over,
    cyclotomic_polynomial,
    field_context,
)
from helpers import cyclotomic_by_division, reduce_by_dense_fold

# N with field degrees from 1 to 1152; 2520 is the field of labels 5, 7, 8, 9.
ORACLE_ORDERS = list(range(1, 31)) + [180, 420, 630, 2520]


def test_cyclotomic_against_sympy():
    x = sympy.Symbol("x")
    for n in list(range(1, 40)) + [48, 60, 90, 360, 840, 1260, 5040]:
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs], n


def test_cyclotomic_matches_division_oracle():
    for n in list(range(1, 601)) + [840, 1260, 5040]:
        assert cyclotomic_polynomial(n) == cyclotomic_by_division(n), n


@pytest.mark.parametrize("N", ORACLE_ORDERS + [101, 303])
def test_reduce_matches_dense_fold(N):
    rng = random.Random(N)
    ctx = FieldContext(N)
    d = ctx.degree
    lengths = [0, 1, d - 1, d, d + 1, 2 * d - 1] + [rng.randrange(2 * d) for _ in range(4)]
    for length in lengths:
        nums = [rng.randrange(-50, 51) for _ in range(length)]
        assert ctx.reduce(nums) == reduce_by_dense_fold(ctx.modulus, nums), (N, length)


@pytest.mark.parametrize("N", ORACLE_ORDERS)
def test_root_powers_match_power_table(N):
    ctx = FieldContext(N)
    table = ctx.power_table()
    assert len(table) == 2 * N
    for k in range(2 * N):
        assert ctx.root_power(k).nums == table[k], (N, k)
    assert ctx.root_power(-1).nums == table[2 * N - 1]


def test_cos_pi_over_is_built_once_per_field():
    ctx = FieldContext(2520)
    for m in (5, 7, 8, 9, 2520):
        first = cos_pi_over(m, ctx)
        assert cos_pi_over(m, ctx) is first
        assert abs(float(first) - math.cos(math.pi / m)) < 1e-12


def test_field_context_examples():
    ctx = field_context([3])
    assert ctx.N == 3
    assert ctx.modulus == (1, -1, 1)  # x^2 - x + 1
    ctx1 = field_context([])
    assert ctx1.N == 1
    assert ctx1.modulus == (1, 1)  # x + 1
    assert field_context([2, 3, 4]).N == 12


def test_field_context_label_validation():
    with pytest.raises(ValueError):
        field_context([1])


def test_field_degree_guard():
    # labels 101 and 103 give degree 10200, and a label 2 doubles N; the
    # guard admits both
    assert field_context([101, 103]).degree == 10200
    assert field_context([101, 103, 2]).degree == 20400
    # phi(2N) of 1000003 and of 127 * 131 * 137 is factored out; N = 10^9 is
    # refused on its size alone
    for labels in ([1000003], [127, 131, 137], [10**9], [2**200]):
        with pytest.raises(ValueError, match=f"{MAX_FIELD_DEGREE}-degree guard"):
            field_context(labels)


def test_cos_values():
    ctx = field_context([2, 3])
    assert cos_pi_over(2, ctx).is_zero()
    assert cos_pi_over(3, ctx).as_fraction() == Fraction(1, 2)
    assert cos_pi_over(INF, ctx) == ctx.one
    ctx4 = field_context([4])
    c4 = cos_pi_over(4, ctx4)
    assert abs(float(c4) - math.cos(math.pi / 4)) < 1e-15
    with pytest.raises(ValueError):
        cos_pi_over(5, ctx4)  # 5 does not divide 4


def test_cos_minimal_polynomial_from_conjugates():
    # 2cos(pi/m) must be a root of the polynomial built numerically from its
    # algebraic conjugates 2cos(k*pi/m), gcd(k, 2m) = 1.
    for m in range(2, 9):
        ctx = field_context([m])
        val = 2 * cos_pi_over(m, ctx)
        roots = [
            2 * math.cos(k * math.pi / m)
            for k in range(1, m + 1)
            if math.gcd(k, 2 * m) == 1
        ]
        poly = np.poly(roots)
        assert abs(np.polyval(poly, float(val))) < 1e-12, m


def _random_scalar(rng: random.Random, ctx: FieldContext) -> Scalar:
    coeffs = [
        Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3)))
        for _ in range(ctx.degree)
    ]
    return ctx.from_coeffs(coeffs)


@pytest.mark.parametrize("N", [1, 2, 3, 6, 12])
def test_field_axioms_random(N):
    rng = random.Random(N)
    ctx = field_context([N] if N >= 2 else [])
    for _ in range(40):
        a, b, c = (_random_scalar(rng, ctx) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        assert a + ctx.zero == a and a * ctx.one == a
        assert a - a == ctx.zero
        if not a.is_zero():
            assert a * a.inverse() == ctx.one
            assert (a / a) == ctx.one


def test_conjugation_is_multiplicative():
    rng = random.Random(5)
    ctx = field_context([12])
    for _ in range(25):
        a, b = _random_scalar(rng, ctx), _random_scalar(rng, ctx)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_real_closure():
    rng = random.Random(9)
    ctx = field_context([5])
    reals = [cos_pi_over(5, ctx), ctx.from_rational(Fraction(3, 7)), ctx.one]
    for _ in range(10):
        a, b = rng.choice(reals), rng.choice(reals)
        assert (a + b).is_real and (a * b).is_real
        reals.append(a * b - a)


def test_realness_flag_matches_conjugation():
    ctx = field_context([4])
    root = ctx.root_power(1)  # primitive 8th root: not real
    assert not root.is_real
    assert (root + root.conj()).is_real


def test_sign_properties():
    rng = random.Random(3)
    ctx = field_context([5])
    assert ctx.zero.sign() == 0
    assert (cos_pi_over(3, field_context([3])) - Fraction(1, 2)).sign() == 0
    golden = 2 * cos_pi_over(5, ctx) - 1
    assert golden.sign() == 1
    for _ in range(30):
        a = _random_scalar(rng, ctx)
        a = a + a.conj()  # symmetrize to a real value
        assert a.is_real
        assert a.sign() == -((-a).sign())
        sq = a * a
        assert sq.sign() >= 0
        assert (sq.sign() == 0) == a.is_zero()


def test_sign_requires_real():
    ctx = field_context([4])
    with pytest.raises(ValueError):
        ctx.root_power(1).sign()


def test_sign_distinguishes_close_values():
    # cos(pi/7) vs a nearby rational: the gap is ~1e-3, but equality-level
    # traps must come out exact.
    ctx = field_context([7])
    c = cos_pi_over(7, ctx)
    approx = Fraction(9009, 10000)
    assert (c - approx).sign() == 1 or (c - approx).sign() == -1
    assert (c - c).sign() == 0


def test_numeric_views():
    ctx = field_context([5])
    c = cos_pi_over(5, ctx)
    assert abs(float(c) - math.cos(math.pi / 5)) < 1e-14
    z = ctx.root_power(1)
    expected = complex(math.cos(math.pi / 5), math.sin(math.pi / 5))
    assert abs(z.complex_value() - expected) < 1e-14


def test_cross_context_operations_rejected():
    a = field_context([3]).one
    b = field_context([4]).one
    with pytest.raises(ValueError):
        _ = a + b


# -- the 53-bit sign rung -----------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 7, 12, 105, 2520, 101 * 103])
def test_cos_doubles_match_mpmath_within_two_to_minus_52(N):
    mpmath = pytest.importorskip("mpmath")
    ctx = FieldContext(N)
    table = ctx.cos_doubles()
    assert len(table) == ctx.degree and ctx.cos_doubles() is table
    with mpmath.workprec(256):
        bound = mpmath.mpf(2) ** -52
        angle = mpmath.pi / N
        for j, value in enumerate(table):
            assert abs(mpmath.mpf(value) - mpmath.cos(j * angle)) <= bound, (N, j)


def _real_polynomial(rng, ctx, terms):
    # a random integer polynomial in cos(pi/N), which generates the real field
    c = cos_pi_over(ctx.N, ctx)
    out, power = ctx.zero, ctx.one
    for _ in range(terms):
        out = out + power * rng.randint(-9, 9)
        power = power * c
    return out


@pytest.mark.parametrize("N", [5, 7, 9, 12, 30, 105])
def test_double_rung_agrees_with_interval_ladder(N):
    rng = random.Random(N)
    ctx = FieldContext(N)
    cosines = ctx.cos_doubles()
    decided = undecided = 0
    for _ in range(60):
        a = _real_polynomial(rng, ctx, rng.randint(2, 6))
        # a close rational shift makes values the doubles cannot sign
        shift = Fraction(round(float(a) * 2**48), 2**48) if rng.random() < 0.3 else 0
        a = a - shift
        if a.is_zero() or a.is_rational():
            continue
        fast = _sign_in_doubles(a.nums, cosines)
        slow = _sign_by_intervals(a.nums, ctx)
        assert fast in (0, slow), (N, a)
        assert a.sign() == slow
        decided += fast != 0
        undecided += fast == 0
    assert decided > 20 and undecided > 0


def test_pell_near_zeros_and_huge_numerators_reach_the_ladder():
    # p - q*sqrt(2) with p^2 - 2q^2 = +-1 is about 1/(2p): past p ~ 2^23 the
    # doubles cannot sign it against the weight p + 2q of its numerators
    ctx = FieldContext(4)
    sqrt2 = 2 * cos_pi_over(4, ctx)
    p, q, reached = 1, 1, 0
    while p.bit_length() < 200:
        value = p - q * sqrt2
        if _sign_in_doubles(value.nums, ctx.cos_doubles()) == 0:
            reached += 1
            assert value.sign() == (1 if p * p > 2 * q * q else -1)
        p, q = p + 2 * q, p + q
    assert reached > 100
    for scale in (2**1024 + 1, -(3**700)):
        golden = (2 * cos_pi_over(5, field_context([5])) - 1) * scale  # (sqrt5 - 1)/2 > 0
        assert _sign_in_doubles(golden.nums, golden.ctx.cos_doubles()) == 0
        assert golden.sign() == (1 if scale > 0 else -1)
