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
    cos_pi_over,
    cyclotomic_polynomial,
    field_context,
)
from helpers import (
    add_by_coefficients,
    complex_value,
    conj_by_power_table,
    cyclotomic_by_division,
    float_value,
    mul_by_schoolbook,
    reduce_by_dense_fold,
    scalar_from_fractions,
    sign_by_intervals,
)

# N with field degrees from 1 to 1152; 2520 is the field of labels 5, 7, 8, 9.
ORACLE_ORDERS = list(range(1, 31)) + [180, 420, 630, 2520]


def test_cyclotomic_against_sympy():
    x = sympy.Symbol("x")
    # 630 and 2520: the modulus of the benchmark's fields of degree 144 and 576
    for n in list(range(1, 40)) + [48, 60, 90, 360, 630, 840, 1260, 2520, 5040]:
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
        assert abs(float_value(first) - math.cos(math.pi / m)) < 1e-12


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
    # the guard sits in FieldContext itself: 10^9 would otherwise start an
    # 8 * 10^8-coefficient modulus, and phi(2 * 65537) = 65536
    for N in (10**9, 65537):
        with pytest.raises(ValueError, match=f"{MAX_FIELD_DEGREE}-degree guard"):
            FieldContext(N)


def test_cos_values():
    ctx = field_context([2, 3])
    assert not cos_pi_over(2, ctx)
    assert cos_pi_over(3, ctx).as_fraction() == Fraction(1, 2)
    assert cos_pi_over(INF, ctx) == ctx.one
    ctx4 = field_context([4])
    c4 = cos_pi_over(4, ctx4)
    assert abs(float_value(c4) - math.cos(math.pi / 4)) < 1e-15
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
        assert abs(np.polyval(poly, float_value(val))) < 1e-12, m


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
        if a:
            assert a * a.inverse() == ctx.one
            assert (a / a) == ctx.one


@pytest.mark.parametrize("N", [1, 6, 12])
def test_int_operands_match_the_rational_path(N):
    # Scalar * int and int * Scalar scale the numerators directly; they must
    # give the canonical scalar that the embedded rational gives, keep
    # realness and compare as before
    rng = random.Random(N)
    ctx = field_context([N] if N >= 2 else [])
    values = [_random_scalar(rng, ctx) for _ in range(30)] + [ctx.zero, ctx.one]
    for a in values:
        for k in (-3, -1, 0, 1, 2, 4):
            q = ctx.from_rational(k)
            for got in (a * k, k * a):
                assert (got.nums, got.den) == ((a * q).nums, (a * q).den), (a, k)
                assert got._real == a._real
    assert not ctx.zero and bool(ctx.one) and bool(ctx.from_rational(Fraction(-1, 3)))
    assert all(bool(a) == any(a.nums) for a in values)


@pytest.mark.parametrize("N", [1, 6, 45])
def test_rational_operands_match_coefficient_arithmetic(N):
    # + - * == with int and Fraction operands, and the rational shortcut of
    # Scalar * Scalar, work on integer numerators and denominators; each must
    # give the scalar built from the Fraction coefficients of the result
    rng = random.Random(N)
    ctx = field_context([N] if N >= 2 else [])
    values = [_random_scalar(rng, ctx) for _ in range(12)] + [ctx.zero, ctx.one]
    values += [ctx.from_rational(Fraction(-3, 4))] + ([cos_pi_over(N, ctx)] if N >= 2 else [])
    operands = [0, 1, -1, 3, Fraction(1), Fraction(-2, 3), Fraction(5, 6)]
    for a in values:
        coeffs = [Fraction(c, a.den) for c in a.nums]
        for q in operands:
            times = ctx.from_coeffs([c * q for c in coeffs])
            plus = ctx.from_coeffs([coeffs[0] + q] + coeffs[1:])
            minus = ctx.from_coeffs([coeffs[0] - q] + coeffs[1:])
            for got, want in (
                (a * q, times), (q * a, times), (a * ctx.from_rational(q), times),
                (ctx.from_rational(q) * a, times), (a + q, plus), (q + a, plus),
                (a - q, minus), (q - a, -minus),
            ):
                assert (got.nums, got.den) == (want.nums, want.den), (a, q)
            assert (a == q) == (a.is_rational() and coeffs[0] == q), (a, q)
    assert repr(ctx.from_rational(Fraction(-2, 3))) == "Scalar(-2/3)"
    assert repr(ctx.from_rational(5)) == "Scalar(5)"
    for other in (0.5, "1", None):
        with pytest.raises(TypeError):
            _ = ctx.one * other
        with pytest.raises(TypeError):
            _ = ctx.one + other
        assert ctx.one != other


def test_rational_scalars_hash_as_their_values():
    # a scalar equal to an int or Fraction hashes like it, so sets and dict
    # keys agree with ==; a non-rational scalar hashes its representation
    ctx = field_context([5])
    c = cos_pi_over(5, ctx)
    for q in (0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 4), Fraction(4, 2)):
        for a in (ctx.from_rational(q), c - c + q, (c + q) - c):
            assert a == q and hash(a) == hash(q), (a, q)
            assert len({a, q}) == 1
    assert {ctx.zero: 1}.get(0) == 1
    assert {0: "zero"}[ctx.zero] == "zero"
    assert ctx.one in {1, 2} and Fraction(1, 2) in {ctx.from_rational(Fraction(1, 2))}
    assert hash(c) == hash(Scalar(ctx, c.nums, c.den)) and c not in {Fraction(1, 2)}


def test_rational_scalars_compare_by_value_across_fields():
    # equality agrees with the value hash: rationals are equal whatever the
    # field, and other elements only within one field
    three, five = field_context([3]), field_context([5])
    assert three.N != five.N
    for q in (0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3)):
        a, b = three.from_rational(q), five.from_rational(q)
        assert a == b and b == a and a == q == b
        assert len({a, q, b}) == 1
    assert three.from_rational(3) != five.from_rational(Fraction(3, 2))
    c = cos_pi_over(5, five)
    assert c != three.from_rational(Fraction(1, 2)) and three.from_rational(Fraction(1, 2)) != c
    assert c != cos_pi_over(5, field_context([5, 3]))  # the same number in Q(zeta_15)


def test_repr_of_a_field_element():
    assert repr(cos_pi_over(5, field_context([5]))) == "Scalar((1 + 1*z^2 - 1*z^3)/2, N=5)"


# Every N up to 30, and the benchmark's fields of degree 24, 144 and 576
SPARSE_ORDERS = list(range(1, 31)) + [45, 315, 1260]


def _operands(rng: random.Random, ctx: FieldContext) -> list[Scalar]:
    """Zero, rationals, single terms (the top one included), sparse, dense
    and all-negative elements, some over a denominator other than 1."""
    d = ctx.degree

    def build(terms, den=1):
        coeffs = [Fraction(0)] * d
        for j, c in terms:
            coeffs[j] = Fraction(c, den)
        return scalar_from_fractions(ctx, coeffs)

    def coefficient():
        return rng.choice((-1, 1)) * rng.choice((1, 2, 3, 7, 12, 10**20 + 1))

    values = [ctx.zero, ctx.one, build([(0, -1)]), build([(0, 3)], 4), build([(0, -5)], 6)]
    for j in {d - 1, rng.randrange(d)}:
        values.append(build([(j, coefficient())], rng.choice((1, 2, 9))))
    for k in (2, 5, 25):
        if k < d:
            values.append(build([(j, coefficient()) for j in rng.sample(range(d), k)], rng.choice((1, 6))))
    values.append(build([(j, coefficient()) for j in range(d)]))
    values.append(build([(j, coefficient()) for j in range(d)], 10))
    values.append(build([(j, -rng.randrange(1, 9)) for j in range(d)]))
    values.append(build([(j, -rng.randrange(1, 9)) for j in rng.sample(range(d), min(d, 4))], 3))
    return values


@pytest.mark.parametrize("N", SPARSE_ORDERS)
def test_sparse_arithmetic_matches_schoolbook(N):
    # products over the nonzero terms, and sums, differences and negation
    # mapped over the numerators, give the canonical scalar of the schoolbook
    # product and of Fraction coefficient arithmetic
    rng = random.Random(f"sparse:{N}")
    ctx = FieldContext(N)
    values = _operands(rng, ctx)
    pairs = [(a, b) for a in values for b in values]
    if ctx.degree > 24:
        # the dense-fold oracle walks the whole convolution: sample the pairs
        pairs = rng.sample(pairs, 60 if ctx.degree <= 144 else 25)
    for a, b in pairs:
        assert a * b == mul_by_schoolbook(a, b), (a, b)
        assert a + b == add_by_coefficients(a, b), (a, b)
        assert a - b == add_by_coefficients(a, b, -1), (a, b)
    for a in values:
        assert -a == add_by_coefficients(ctx.zero, a, -1), a
        assert a.nonzero_terms() == tuple((j, c) for j, c in enumerate(a.nums) if c)
        for q in (0, 1, -1, 3, Fraction(-2, 3), Fraction(5, 6)):
            q_scalar = scalar_from_fractions(ctx, [Fraction(q)] + [Fraction(0)] * (ctx.degree - 1))
            times = mul_by_schoolbook(a, q_scalar)
            assert a * q == times and q * a == times, (a, q)
            plus, minus = add_by_coefficients(a, q_scalar), add_by_coefficients(a, q_scalar, -1)
            assert a + q == plus and q + a == plus and a - q == minus and q - a == -minus, (a, q)


def test_schoolbook_oracle_flags_a_product_missing_its_last_term(monkeypatch):
    # a product that drops each operand's last nonzero term differs from the
    # oracle on every pair of nonzero operands
    rng = random.Random(7)
    ctx = FieldContext(45)
    values = _operands(rng, ctx)
    pairs = [(a, b) for a in values for b in values if a and b]
    full = Scalar.nonzero_terms
    monkeypatch.setattr(Scalar, "nonzero_terms", lambda self: full(self)[:-1])
    assert all(a * b != mul_by_schoolbook(a, b) for a, b in pairs)


@pytest.mark.parametrize("N", SPARSE_ORDERS)
def test_conjugation_matches_power_table(N):
    # mirroring the terms below x^N and reducing once gives the canonical
    # conjugate, and decides realness, as the table of all 2N root powers does
    rng = random.Random(f"conj:{N}")
    ctx = FieldContext(N)
    values = _operands(rng, ctx)
    values += [a + conj_by_power_table(a) for a in values if not a.is_rational()]
    for a in values:
        image = conj_by_power_table(a)
        assert a.conj() == image, a
        assert Scalar(ctx, a.nums, a.den).is_real == (image == a), a


def test_conjugation_oracle_flags_a_conjugate_negating_its_constant_term(monkeypatch):
    rng = random.Random(7)
    ctx = FieldContext(45)
    values = _operands(rng, ctx)
    full = Scalar.conj

    def mutant(self):  # maps c*x^0 to -c*x^0
        return full(self) - Fraction(2 * self.nums[0], self.den)

    monkeypatch.setattr(Scalar, "conj", mutant)
    flagged = [a.conj() != conj_by_power_table(a) for a in values]
    assert flagged == [bool(a.nums[0]) for a in values] and any(flagged)


def test_realness_of_a_root_builds_no_power_table():
    # degree 10200: the table of all 2N root powers would hold 2 * 10^8 entries
    ctx = FieldContext(101 * 103)
    assert not ctx.root_power(1).is_real
    assert ctx._power_table is None


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
        assert (sq.sign() == 0) == (not a)


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
    assert abs(float_value(c) - math.cos(math.pi / 5)) < 1e-14
    z = ctx.root_power(1)
    expected = complex(math.cos(math.pi / 5), math.sin(math.pi / 5))
    assert abs(complex_value(z) - expected) < 1e-14


def test_cross_context_operations_rejected():
    a = field_context([3]).one
    b = field_context([4]).one
    with pytest.raises(ValueError):
        _ = a + b


# -- the fixed-point sign ladder ---------------------------------------------

LADDER_BITS = (256, 512, 1024, 2048, 4096)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 12, 105, 2520])
def test_cos_tables_match_mpmath_within_their_radius(N):
    # every table on the ladder, entry j within 8 * bits * j units of
    # cos(j*pi/N) * 2^bits, as _cos_table proves
    mpmath = pytest.importorskip("mpmath")
    ctx = FieldContext(N)
    assert ctx.cos_table() is ctx.cos_table()
    tables = {120: ctx.cos_table()}
    for bits in LADDER_BITS:
        tables[bits] = ctx.cos_enclosures(bits)
        assert ctx.cos_enclosures(bits) is tables[bits]
    for bits, table in tables.items():
        assert len(table) == ctx.degree and table[0] == 1 << bits
        with mpmath.workprec(bits + 64):
            angle = mpmath.pi / N
            scale = mpmath.mpf(2) ** bits
            for j in range(1, ctx.degree):
                error = abs(table[j] - mpmath.cos(j * angle) * scale)
                assert error <= 8 * bits * j, (N, bits, j)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 12, 105, 2520, 101 * 103])
def test_cos_doubles_match_mpmath_within_two_to_minus_52(N):
    # the first rung's table read as doubles, over degrees up to 10200
    mpmath = pytest.importorskip("mpmath")
    ctx = FieldContext(N)
    doubles = [entry / 2**120 for entry in ctx.cos_table()]
    with mpmath.workprec(256):
        bound = mpmath.mpf(2) ** -52
        angle = mpmath.pi / N
        for j, value in enumerate(doubles):
            assert abs(mpmath.mpf(value) - mpmath.cos(j * angle)) <= bound, (N, j)


def _real_polynomial(rng, ctx, terms):
    # a random integer polynomial in cos(pi/N), which generates the real field
    c = cos_pi_over(ctx.N, ctx)
    out, power = ctx.zero, ctx.one
    for _ in range(terms):
        out = out + power * rng.randint(-9, 9)
        power = power * c
    return out


def _near_rational(value, bits):
    # the dyadic rational with denominator 2^bits nearest to a real scalar
    import mpmath

    with mpmath.workprec(bits + 64):
        angle = mpmath.pi / value.ctx.N
        total = mpmath.fsum(c * mpmath.cos(j * angle) for j, c in enumerate(value.nums) if c)
        return Fraction(int(mpmath.nint(total / value.den * mpmath.mpf(2) ** bits)), 2**bits)


def _count_later_rungs(monkeypatch):
    # records the precision of every call of cos_enclosures, i.e. of every
    # rung past the first
    calls = []
    build = FieldContext.cos_enclosures
    monkeypatch.setattr(
        FieldContext, "cos_enclosures", lambda ctx, prec: calls.append(prec) or build(ctx, prec)
    )
    return calls


@pytest.mark.parametrize("N", [5, 7, 9, 12, 30, 105])
def test_double_rung_agrees_with_interval_ladder(N, monkeypatch):
    # the 120-bit first rung against the interval oracle: values within
    # 2^-116 of a rational are below its radius, so they climb to the later
    # rungs
    pytest.importorskip("mpmath")
    rng = random.Random(N)
    ctx = FieldContext(N)
    later = _count_later_rungs(monkeypatch)
    decided = undecided = 0
    seen = set()
    for _ in range(60):
        a = _real_polynomial(rng, ctx, rng.randint(2, 6))
        if rng.random() < 0.3:
            a = a - _near_rational(a, 116)
        if not a or a.is_rational() or a.nums in seen:
            continue
        seen.add(a.nums)
        before = len(later)
        assert a.sign() == sign_by_intervals(a), (N, a)
        decided += len(later) == before
        undecided += len(later) > before
    assert decided > 20 and undecided > 0


@pytest.mark.parametrize("N", ORACLE_ORDERS)
def test_signs_agree_with_interval_oracle(N):
    # random integer sums of cosines cos(k*pi/N) = (z^k + z^-k) / 2, real by
    # construction, some shifted by a rational to within 2^-116 of zero
    pytest.importorskip("mpmath")
    rng = random.Random(1000 + N)
    ctx = FieldContext(N)
    for _ in range(12):
        a = ctx.zero
        for _ in range(rng.randint(1, 5)):
            k = rng.randrange(2 * N)
            a = a + (ctx.root_power(k) + ctx.root_power(-k)) * rng.randint(-9, 9)
        a = Scalar(ctx, a.nums, a.den, real=True)
        if rng.random() < 0.5 and not a.is_rational():
            a = a - _near_rational(a, 116)
        if a.is_rational():
            assert a.sign() == (a.as_fraction() > 0) - (a.as_fraction() < 0)
        else:
            assert a.sign() == sign_by_intervals(a), (N, a)


def test_pell_near_zeros_and_huge_numerators_reach_the_ladder(monkeypatch):
    # p - q*sqrt(2) with p^2 - 2q^2 = +-1 is about 1/(2p): past p ~ 2^54 the
    # 120-bit rung cannot sign it against the weight p + 2q of its numerators
    pytest.importorskip("mpmath")
    ctx = FieldContext(4)
    later = _count_later_rungs(monkeypatch)
    sqrt2 = 2 * cos_pi_over(4, ctx)
    p, q, reached = 1, 1, 0
    while p.bit_length() < 256:
        value = p - q * sqrt2
        before = len(later)
        assert value.sign() == (1 if p * p > 2 * q * q else -1) == sign_by_intervals(value)
        reached += len(later) > before
        p, q = p + 2 * q, p + q
    assert reached > 100
    # huge numerators: the integer sums cannot overflow, so the first rung
    # signs these without the later rungs
    for scale in (2**1024 + 1, -(3**700)):
        golden = (2 * cos_pi_over(5, field_context([5])) - 1) * scale  # (sqrt5 - 1)/2 > 0
        before = len(later)
        assert golden.sign() == (1 if scale > 0 else -1) == sign_by_intervals(golden)
        assert len(later) == before
