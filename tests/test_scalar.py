import math
import random
from fractions import Fraction
from itertools import combinations

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
    CyclotomicField,
    CyclotomicScalar,
    add_by_coefficients,
    complex_value,
    conj_by_power_table,
    cyclotomic_by_division,
    cyclotomic_cos_pi_over,
    cyclotomic_field_context,
    embed,
    float_value,
    mul_by_schoolbook,
    reduce_by_dense_fold,
    scalar_from_fractions,
    sign_by_intervals,
)

# N with cyclotomic degrees from 1 to 1152; 2520 is the field of labels 5, 7,
# 8, 9.  The tests of cyclotomic behaviour (modulus, root powers, power table,
# conjugation, realness, repr) run on the oracle in helpers, Q(zeta_2N).
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
    ctx = CyclotomicField(N)
    d = ctx.degree
    lengths = [0, 1, d - 1, d, d + 1, 2 * d - 1] + [rng.randrange(2 * d) for _ in range(4)]
    for length in lengths:
        nums = [rng.randrange(-50, 51) for _ in range(length)]
        assert ctx.reduce(nums) == reduce_by_dense_fold(ctx.modulus, nums), (N, length)


@pytest.mark.parametrize("N", ORACLE_ORDERS)
def test_root_powers_match_power_table(N):
    ctx = CyclotomicField(N)
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
    ctx = cyclotomic_field_context([3])
    assert ctx.N == 3
    assert ctx.modulus == (1, -1, 1)  # x^2 - x + 1
    ctx1 = cyclotomic_field_context([])
    assert ctx1.N == 1
    assert ctx1.modulus == (1, 1)  # x + 1
    assert cyclotomic_field_context([2, 3, 4]).N == 12
    # the program's real field of the same labels
    assert field_context([3]).N == 3 and field_context([]).N == 1
    assert field_context([2, 3, 4]).N == 12


def test_field_context_label_validation():
    with pytest.raises(ValueError):
        field_context([1])


def test_field_degree_guard():
    # labels 101 and 103 give degree 5100 (phi(2N) = 10200), and a label 2
    # doubles N; the guard admits both
    assert field_context([101, 103]).degree == 5100
    assert field_context([101, 103, 2]).degree == 10200
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
    # realness and compare as before (on the oracle, which has a realness
    # flag; the program's int operands are in the embedding sweep)
    rng = random.Random(N)
    ctx = cyclotomic_field_context([N] if N >= 2 else [])
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
    assert c != cos_pi_over(5, field_context([5, 3]))  # the same number in Q(cos(pi/15))


def test_repr_of_a_field_element():
    assert repr(cyclotomic_cos_pi_over(5, cyclotomic_field_context([5]))) == "Scalar((1 + 1*z^2 - 1*z^3)/2, N=5)"
    # the program's real field: C_1 / 2
    assert repr(cos_pi_over(5, field_context([5]))) == "Scalar((1*C1)/2, N=5)"


# Every N up to 30, and the benchmark's fields of degree 12, 72 and 288
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
    # mapped over the numerators, give the canonical scalar of Fraction
    # coefficient arithmetic, and products embed as the schoolbook product
    # of the embedded operands in Q(zeta_2N)
    rng = random.Random(f"sparse:{N}")
    ctx = FieldContext(N)
    values = _operands(rng, ctx)
    pairs = [(a, b) for a in values for b in values]
    if ctx.degree > 12:
        # the dense-fold oracle walks the whole convolution: sample the pairs
        pairs = rng.sample(pairs, 60 if ctx.degree <= 72 else 25)
    for a, b in pairs:
        assert embed(a * b) == mul_by_schoolbook(embed(a), embed(b)), (a, b)
        assert a + b == add_by_coefficients(a, b), (a, b)
        assert a - b == add_by_coefficients(a, b, -1), (a, b)
    for a in values:
        assert -a == add_by_coefficients(ctx.zero, a, -1), a
        assert a.nonzero_terms() == tuple((j, c) for j, c in enumerate(a.nums) if c)
        for q in (0, 1, -1, 3, Fraction(-2, 3), Fraction(5, 6)):
            q_scalar = scalar_from_fractions(ctx, [Fraction(q)] + [Fraction(0)] * (ctx.degree - 1))
            times = mul_by_schoolbook(embed(a), embed(q_scalar))
            assert embed(a * q) == times and embed(q * a) == times, (a, q)
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
    assert all(embed(a * b) != mul_by_schoolbook(embed(a), embed(b)) for a, b in pairs)


# Every N up to 60, the benchmark's fields of degree 72 and 288 (N = 315 and
# 1260), the field of labels 3, 5, 7, 11 (N = 1155, where N/3 = 385 passes
# the degree 240 and C_385 folds) and that of labels 101 and 103
EMBEDDING_ORDERS = list(range(1, 61)) + [315, 1155, 1260, 101 * 103]


def _sparse_values(rng: random.Random, ctx: FieldContext, count: int) -> list[Scalar]:
    """Rationals and elements of up to six terms at random indices, some over
    a denominator other than 1, and for small degrees dense ones."""
    d = ctx.degree
    values = [ctx.from_rational(Fraction(-3, 4))]
    for _ in range(count):
        coeffs = [0] * d
        for j in rng.sample(range(d), min(d, rng.randint(1, 6))):
            coeffs[j] = rng.choice((-1, 1)) * rng.choice((1, 2, 5, 12, 10**20 + 1))
        values.append(Scalar(ctx, tuple(coeffs), rng.choice((1, 1, 2, 9))))
    if d <= 30:
        values.append(Scalar(ctx, tuple(rng.randint(-9, 9) for _ in range(d)), 4))
    return values


@pytest.mark.parametrize("N", EMBEDDING_ORDERS)
def test_real_field_matches_cyclotomic_embedding(N):
    # sums, products, negation, int and Fraction operands, equality, hashing,
    # cos_pi_over, the reduced C_k and signs of Q(cos(pi/N)) against the
    # cyclotomic oracle Q(zeta_2N), through C_j -> zeta^j + zeta^-j
    rng = random.Random(f"embed:{N}")
    ctx, oracle = FieldContext(N), CyclotomicField(N)
    big = ctx.degree > 200  # the oracle's dense moduli of N = 1155 and 10403
    values = _sparse_values(rng, ctx, 2 if big else 6)
    images = [embed(a) for a in values]
    for (a, ea), (b, eb) in combinations(zip(values, images), 2):
        assert embed(a + b) == ea + eb and embed(a - b) == ea - eb, (a, b)
        assert embed(a * b) == ea * eb, (a, b)
        assert (a == b) == (ea == eb), (a, b)
    for a, ea in zip(values, images):
        assert embed(-a) == -ea, a
        for q in (0, 1, -3, Fraction(-2, 3), Fraction(5, 6)):
            assert embed(a * q) == ea * q and embed(q * a) == ea * q, (a, q)
            assert embed(a + q) == ea + q and embed(q - a) == q - ea, (a, q)
            assert (a == q) == (ea == q), (a, q)
        same = (a + values[-1]) - values[-1]
        assert same == a and hash(same) == hash(a), a
        assert a.sign() == ea.sign() == -(-a).sign(), a
    for m in range(2, N + 1):
        if N % m == 0:
            assert embed(cos_pi_over(m, ctx)) == cyclotomic_cos_pi_over(m, oracle), m
    ks = range(2 * N) if N <= 60 else rng.sample(range(2 * N), 4 if big else 40)
    for k in ks:
        c_k = Scalar(ctx, ctx.reduce([0] * k + [1] if k else [2]), 1)
        assert embed(c_k) == oracle.root_power(k) + oracle.root_power(-k), k


def test_field_relation_against_sympy_minimal_polynomial():
    # 2cos(pi/N) = C_1 has degree D over Q, and its minimal polynomial
    # vanishes at C_1 in the program's arithmetic, products and fold included
    x = sympy.Symbol("x")
    for N in range(1, 61):
        ctx = FieldContext(N)
        poly = sympy.Poly(sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / N), x), x)
        assert poly.degree() == ctx.degree, N
        c1 = 2 * cos_pi_over(N, ctx) if N > 1 else ctx.from_rational(-2)
        value = ctx.zero
        for c in poly.all_coeffs():
            value = value * c1 + int(c)
        assert not value, N


@pytest.mark.parametrize("N", SPARSE_ORDERS)
def test_conjugation_matches_power_table(N):
    # mirroring the terms below x^N and reducing once gives the canonical
    # conjugate, and decides realness, as the table of all 2N root powers does
    rng = random.Random(f"conj:{N}")
    ctx = CyclotomicField(N)
    values = _operands(rng, ctx)
    values += [a + conj_by_power_table(a) for a in values if not a.is_rational()]
    for a in values:
        image = conj_by_power_table(a)
        assert a.conj() == image, a
        assert CyclotomicScalar(ctx, a.nums, a.den).is_real == (image == a), a


def test_conjugation_oracle_flags_a_conjugate_negating_its_constant_term(monkeypatch):
    rng = random.Random(7)
    ctx = CyclotomicField(45)
    values = _operands(rng, ctx)
    full = CyclotomicScalar.conj

    def mutant(self):  # maps c*x^0 to -c*x^0
        return full(self) - Fraction(2 * self.nums[0], self.den)

    monkeypatch.setattr(CyclotomicScalar, "conj", mutant)
    flagged = [a.conj() != conj_by_power_table(a) for a in values]
    assert flagged == [bool(a.nums[0]) for a in values] and any(flagged)


def test_realness_of_a_root_builds_no_power_table():
    # degree 10200: the table of all 2N root powers would hold 2 * 10^8 entries
    ctx = CyclotomicField(101 * 103)
    assert not ctx.root_power(1).is_real
    assert ctx._power_table is None


def test_conjugation_is_multiplicative():
    rng = random.Random(5)
    ctx = cyclotomic_field_context([12])
    for _ in range(25):
        a, b = _random_scalar(rng, ctx), _random_scalar(rng, ctx)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_real_closure():
    rng = random.Random(9)
    ctx = cyclotomic_field_context([5])
    reals = [cyclotomic_cos_pi_over(5, ctx), ctx.from_rational(Fraction(3, 7)), ctx.one]
    for _ in range(10):
        a, b = rng.choice(reals), rng.choice(reals)
        assert (a + b).is_real and (a * b).is_real
        reals.append(a * b - a)


def test_realness_flag_matches_conjugation():
    ctx = cyclotomic_field_context([4])
    root = ctx.root_power(1)  # primitive 8th root: not real
    assert not root.is_real
    assert (root + root.conj()).is_real


def test_sign_properties():
    rng = random.Random(3)
    ctx = cyclotomic_field_context([5])
    assert ctx.zero.sign() == 0
    assert (cyclotomic_cos_pi_over(3, cyclotomic_field_context([3])) - Fraction(1, 2)).sign() == 0
    golden = 2 * cyclotomic_cos_pi_over(5, ctx) - 1
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
    ctx = cyclotomic_field_context([4])
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
    ctx = cyclotomic_field_context([5])
    c = cyclotomic_cos_pi_over(5, ctx)
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
        total = value.nums[0] + mpmath.fsum(
            2 * c * mpmath.cos(j * angle) for j, c in enumerate(value.nums) if c and j
        )
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
    # random integer sums of cosines cos(k*pi/N) = C_k / 2, any k < 2N, some
    # shifted by a rational to within 2^-116 of zero
    pytest.importorskip("mpmath")
    rng = random.Random(1000 + N)
    ctx = FieldContext(N)
    for _ in range(12):
        a = ctx.zero
        for _ in range(rng.randint(1, 5)):
            k = rng.randrange(2 * N)
            a = a + Scalar(ctx, ctx.reduce([0] * k + [1] if k else [2]), 2) * rng.randint(-9, 9)
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
