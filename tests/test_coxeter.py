import math
import pathlib
import random
from itertools import combinations, product

import pytest

from artincenter.analyzer import spherical_center_generator
from artincenter.coxeter import (
    CoxeterElement,
    _generator_times,
    _neighbours,
    _times_generator,
    coset_decompose,
    coxeter_number,
    field_of,
    gram_field,
    gram_matrix,
    identity,
    is_affine,
    is_minus_identity,
    is_spherical,
    longest_element,
    simple_reflection,
    theta,
)
from artincenter.graph import INF, make_graph, parse_graph
from artincenter.scalar import _context_for, cos_pi_over
from artincenter.words import ArtinWord

from helpers import (
    SymmetricKernel,
    affine_by_deletion,
    affine_by_minors,
    all_graphs,
    assert_matches_symmetric_kernel,
    bfs_enumerate,
    center_exponent_by_matrices,
    diagram_graph,
    expected_finite_order,
    float_value,
    is_reduced_for,
    named_diagrams,
    random_graph,
    random_word,
    small_graphs,
    spherical_by_minors,
)

EDGE3 = make_graph(["s", "t"], [("s", "t", 3)])
EDGE4 = make_graph(["s", "t"], [("s", "t", 4)])
EDGEINF = make_graph(["s", "t"], [])
TRI233 = make_graph(["r", "s", "t"], [("r", "s", 2), ("r", "t", 3), ("s", "t", 3)])
PATH33 = make_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 3)])
PATH58 = make_graph(["a", "b", "c"], [("a", "b", 5), ("b", "c", 8)])
DATA = pathlib.Path(__file__).parent / "data"


def _sign(x):
    # matrix entries are ints over the int ring and Scalars over a field
    return (x > 0) - (x < 0) if type(x) is int else x.sign()


def test_reflections_are_involutions():
    for g in (EDGE3, EDGEINF, TRI233):
        for v in g.vertices:
            refl = simple_reflection(g, v)
            assert (refl * refl).is_identity()
            assert refl.length() == 1
            assert refl.left_descents() == (v,)


def test_commuting_and_braid_orders():
    g2 = make_graph(["s", "t"], [("s", "t", 2)])
    s, t = simple_reflection(g2, "s"), simple_reflection(g2, "t")
    assert s * t == t * s
    s, t = simple_reflection(EDGE3, "s"), simple_reflection(EDGE3, "t")
    st = s * t
    assert not st.is_identity()
    assert not (st * st).is_identity()
    assert (st * st * st).is_identity()


def test_theta_examples():
    assert theta(EDGE3, ArtinWord()).is_identity()
    assert theta(EDGE3, ArtinWord((("s", 1), ("s", -1)))).is_identity()
    w = ArtinWord((("s", 1), ("t", 1)))
    assert (theta(EDGE3, w) ** 3).is_identity()


def test_length_and_reduced_word_examples():
    assert identity(EDGE3).length() == 0
    assert identity(EDGE3).reduced_word() == ()
    sts = theta(EDGE3, ArtinWord((("s", 1), ("t", 1), ("s", 1))))
    assert sts.length() == 3
    assert sts.reduced_word() == ("s", "t", "s")  # greedy tie-break starts at s
    # (st)^2 = ts when m = 3
    stst = theta(EDGE3, ArtinWord((("s", 1), ("t", 1))) ** 2)
    assert stst.length() == 2
    assert stst.reduced_word() == ("t", "s")


def test_left_descents_via_bfs():
    dist = bfs_enumerate(TRI233)
    for w in dist:
        for v in TRI233.vertices:
            longer = (simple_reflection(TRI233, v) * w).length()
            assert (longer < w.length()) == w.has_left_descent(v)
            assert abs(longer - w.length()) == 1


def test_bfs_oracle_all_small_spherical_graphs():
    labels = (2, 3, 4, INF)
    # rank 2
    for m in labels:
        g = make_graph(["s", "t"], [] if m == INF else [("s", "t", m)])
        if not is_spherical(g):
            continue
        dist = bfs_enumerate(g)
        assert len(dist) == expected_finite_order(g)
        for w, d in dist.items():
            assert w.length() == d
    # rank 3
    count = 0
    for p, q, r in product(labels, repeat=3):
        edges = [
            (u, v, m)
            for (u, v), m in zip([("a", "b"), ("a", "c"), ("b", "c")], (p, q, r))
            if m != INF
        ]
        g = make_graph(["a", "b", "c"], edges)
        if not is_spherical(g):
            continue
        count += 1
        dist = bfs_enumerate(g)
        assert len(dist) == expected_finite_order(g)
        for w, d in dist.items():
            assert w.length() == d
    assert count == 16  # permutations of (2,2,2) (2,2,3) (2,2,4) (2,3,3) (2,3,4)


def test_reduced_word_multiplies_back():
    rng = random.Random(11)
    for g in (TRI233, PATH33, EDGEINF):
        for _ in range(40):
            w = theta(g, random_word(rng, g, rng.randrange(0, 9)))
            word = w.reduced_word()
            assert theta(g, ArtinWord(tuple((v, 1) for v in word))) == w


def test_one_sign_root_property():
    rng = random.Random(13)
    for g in (TRI233, PATH33, PATH58):
        for _ in range(30):
            w = theta(g, random_word(rng, g, rng.randrange(0, 8)))
            for v in g.vertices:
                idx = g.index(v)
                signs = {_sign(row[idx]) for row in w.inv}
                assert not ({1, -1} <= signs), "mixed-sign root coordinates"


def test_is_reduced_for_examples():
    assert is_reduced_for(identity(EDGE3), ("s", "t"))
    s = simple_reflection(EDGE3, "s")
    assert not is_reduced_for(s, ("s",))
    ts = simple_reflection(EDGE3, "t") * s
    assert is_reduced_for(ts, ("s",))


def test_coset_decompose_examples_and_uniqueness():
    s, t = simple_reflection(EDGE3, "s"), simple_reflection(EDGE3, "t")
    dec = coset_decompose(s * t, ("s",))
    assert dec.subgroup_part == s and dec.reduced_part == t
    # u already in W_X
    dec = coset_decompose(s, ("s",))
    assert dec.subgroup_part == s and dec.reduced_part.is_identity()
    # u already reduced
    dec = coset_decompose(t, ("s",))
    assert dec.subgroup_part.is_identity() and dec.reduced_part == t

    rng = random.Random(17)
    for g in (TRI233, PATH33):
        for _ in range(40):
            u = theta(g, random_word(rng, g, rng.randrange(0, 8)))
            x_set = tuple(v for v in g.vertices if rng.random() < 0.5)
            dec = coset_decompose(u, x_set)
            assert dec.subgroup_part * dec.reduced_part == u
            assert set(dec.subgroup_part.reduced_word()) <= set(x_set)
            # the word the split stores is the canonical one a fresh copy computes
            fresh = dec.subgroup_part * identity(g)
            assert dec.subgroup_part.reduced_word() == fresh.reduced_word()
            assert is_reduced_for(dec.reduced_part, x_set)
            # invariance under left multiplication from the subgroup
            noise = theta(
                g,
                ArtinWord(tuple((rng.choice(x_set), 1) for _ in range(3)))
                if x_set
                else ArtinWord(),
            )
            dec2 = coset_decompose(noise * u, x_set)
            assert dec2.reduced_part == dec.reduced_part


def test_lemma_equivalence_random():
    rng = random.Random(19)
    for g in (TRI233, EDGE4):
        for _ in range(40):
            w = theta(g, random_word(rng, g, rng.randrange(0, 7)))
            x_set = tuple(v for v in g.vertices if rng.random() < 0.6)
            reduced = is_reduced_for(w, x_set)
            harder = all(
                (simple_reflection(g, v) * w).length() > w.length() for v in x_set
            )
            assert reduced == harder
            if reduced and x_set:
                for _ in range(3):
                    v_word = ArtinWord(
                        tuple((rng.choice(x_set), 1) for _ in range(rng.randrange(0, 4)))
                    )
                    v = theta(g, v_word)
                    assert (v * w).length() == v.length() + w.length()


def test_is_spherical_examples():
    assert is_spherical(EDGE3)
    assert not is_spherical(EDGEINF)
    assert not is_spherical(make_graph("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]))
    assert is_spherical(TRI233)
    assert is_spherical(make_graph([], []))


def test_is_affine_examples():
    assert is_affine(EDGEINF)
    assert is_affine(make_graph("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]))
    assert not is_affine(EDGE3)
    # C2 tilde: labels (4, 4, 2)
    assert is_affine(make_graph("abc", [("a", "b", 4), ("b", "c", 4), ("a", "c", 2)]))
    # indefinite examples are neither
    bad = make_graph("abc", [("a", "b", 3), ("b", "c", 3)])
    assert not is_spherical(bad) and not is_affine(bad)


def test_is_affine_matches_minor_oracle():
    for g in small_graphs():
        assert is_affine(g) == affine_by_minors(g), g


def test_coxeter_numbers():
    for m in range(2, 9):
        g = make_graph(["s", "t"], [("s", "t", m)])
        assert coxeter_number(g) == m
    assert coxeter_number(TRI233) == 4  # A3
    assert coxeter_number(make_graph(["s"], [])) == 2
    with pytest.raises(ValueError):
        coxeter_number(EDGEINF)


def test_longest_element():
    g1 = make_graph(["s"], [])
    w0 = longest_element(g1)
    assert w0 == simple_reflection(g1, "s")
    assert is_minus_identity(w0)

    g2 = make_graph(["s", "t"], [("s", "t", 2)])
    w0 = longest_element(g2)
    assert w0.length() == 2
    assert w0 == theta(g2, ArtinWord((("s", 1), ("t", 1))))

    w0 = longest_element(EDGE3)
    assert w0.length() == 3
    assert not is_minus_identity(w0)

    with pytest.raises(ValueError):
        longest_element(EDGEINF)
    # w0 maximizes length over the whole group
    dist = bfs_enumerate(TRI233)
    assert longest_element(TRI233).length() == max(dist.values())


def test_match_simple_reflection():
    sr = simple_reflection(TRI233, "r")
    ss = simple_reflection(TRI233, "s")
    assert ss.match_simple_reflection(("s", "t")) == "s"
    assert sr.match_simple_reflection(("s", "t")) is None
    conj = sr * simple_reflection(TRI233, "t") * sr
    assert conj.match_simple_reflection(("s", "t")) is None


def test_det_and_rank_against_independent_oracles():
    import sympy
    from fractions import Fraction

    from artincenter.coxeter import _det, _rank, field_of
    from artincenter.scalar import field_context

    ctx = field_context([])  # rational field, N = 1

    def cofactor_det(rows):
        n = len(rows)
        if n == 0:
            return Fraction(1)
        if n == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = rows[0][j] * cofactor_det(minor)
            total += term if j % 2 == 0 else -term
        return total

    rng = random.Random(37)
    for _ in range(40):
        n = rng.randrange(0, 6)
        rational = [[Fraction(rng.randrange(-3, 4), rng.choice((1, 2))) for _ in range(n)] for _ in range(n)]
        scalars = [[ctx.from_rational(q) for q in row] for row in rational]
        ours = _det(scalars, ctx)
        assert ours.as_fraction() == cofactor_det(rational)
        expected_rank = sympy.Matrix(n, n, [sympy.Rational(q.numerator, q.denominator) for row in rational for q in row]).rank() if n else 0
        assert _rank(scalars, ctx) == expected_rank


def test_graph_field_leaves_out_label_2():
    # cos(pi/2) = 0, so a commuting pair does not double the field: labels 101
    # and 103 keep degree 5100 (N = 10403, odd) beside a label 2
    g = make_graph(["a", "b", "c"], [("a", "b", 101), ("b", "c", 103), ("a", "c", 2)])
    assert field_of(g).degree == 5100
    gram = gram_matrix(g)
    assert not gram[0][2] and not gram[2][0]
    assert gram[0][1]


# -- diagram classification against the Gram-minor and matrix-order oracles ---


def _generator_by_matrices(g):
    """c^(h/2) or c^h, with h and w0 = -1 found by matrix products."""
    h, minus_one = center_exponent_by_matrices(g)
    return ArtinWord(tuple((v, 1) for v in g.vertices)) ** (h // 2 if minus_one else h)


def test_diagram_classifier_matches_oracles_on_small_graphs():
    graphs = [g for n in range(4) for g in all_graphs(n, (2, 3, 4, 5, 6, 7, INF))]
    assert len(graphs) == 1 + 1 + 7 + 7**3
    for g in graphs:
        spherical = spherical_by_minors(g)
        assert is_spherical(g) == spherical, g
        assert is_affine(g) == affine_by_minors(g), g
        if spherical:
            assert spherical_center_generator(g) == _generator_by_matrices(g), g


def test_diagram_classifier_names_every_family():
    rng = random.Random(11)
    for name, (n, diagram, kind, h, minus_one) in named_diagrams(10).items():
        g = diagram_graph(n, diagram, rng)
        spherical, euclidean = kind == "spherical", kind == "euclidean"
        assert (is_spherical(g), is_affine(g)) == (spherical, euclidean), name
        assert spherical_by_minors(g) == spherical, name
        assert affine_by_deletion(g) == euclidean, name
        if spherical:
            assert center_exponent_by_matrices(g) == (h, minus_one), name
            assert spherical_center_generator(g) == _generator_by_matrices(g), name


def test_diagram_classifier_matches_oracles_on_random_trees_and_cycles():
    rng = random.Random(5)
    labels = (3, 3, 3, 3, 4, 4, 5, 6)
    for trial in range(120):
        n = rng.randrange(5, 8)
        diagram = {(rng.randrange(i), i): rng.choice(labels) for i in range(1, n)}
        if trial % 3 == 0:  # close one cycle
            i, j = sorted(rng.sample(range(n), 2))
            diagram.setdefault((i, j), rng.choice(labels))
        g = diagram_graph(n, diagram, rng)
        spherical = spherical_by_minors(g)
        assert is_spherical(g) == spherical, g
        assert is_affine(g) == affine_by_deletion(g), g
        if spherical:
            assert spherical_center_generator(g) == _generator_by_matrices(g), g


# -- generator updates against the dense products they replace -----------------


# 4cos^2(pi/m) for the labels whose Cartan coefficients are ints
SQUARED_COS = {3: 1, 4: 2, 6: 3, INF: 4}


def _cartan_by_definition(g, u, v):
    """k(u, v): 1 towards a later vertex for labels 3, 4, 6, inf and even m,
    4cos^2(pi/m) towards an earlier one, 2cos(pi/m) both ways for odd m."""
    ring = field_of(g)
    one = 1 if ring is int else ring.one
    m, earlier = g.label(u, v), g.index(u) < g.index(v)
    if m == 2:
        return 0 * one
    if m in SQUARED_COS:
        return one if earlier else SQUARED_COS[m] * one
    if m % 2:
        return 2 * cos_pi_over(m, ring)
    return one if earlier else 2 * one + 2 * cos_pi_over(m // 2, ring)


def _reflection_by_definition(g, v):
    ring = field_of(g)
    zero, one = (0, 1) if ring is int else (ring.zero, ring.one)
    n, s = len(g.vertices), g.index(v)
    rows = [tuple(one if r == c else zero for c in range(n)) for r in range(n)]
    rows[s] = tuple(-one if c == s else _cartan_by_definition(g, v, u) for c, u in enumerate(g.vertices))
    return CoxeterElement(g, tuple(rows), tuple(rows))


def test_cartan_coefficients_realize_the_labels():
    # k(s, c) * k(c, s) = 4cos^2(pi/m) (4 for inf), both positive, 0 for label 2
    for m in list(range(2, 31)) + [INF]:
        g = make_graph(["s", "t"], [] if m == INF else [("s", "t", m)])
        k_st, k_ts = _cartan_by_definition(g, "s", "t"), _cartan_by_definition(g, "t", "s")
        expected = 4.0 if m == INF else 4 * math.cos(math.pi / m) ** 2
        assert abs(float_value(k_st) * float_value(k_ts) - expected) < 1e-12, m
        assert (float_value(k_st) > 0 and float_value(k_ts) > 0) == (m != 2), m
        assert (type(k_st) is int) == (m in (2, 3, 4, 6, INF)), m


def test_cartan_ring_is_int_or_the_smallest_cyclotomic_field():
    # the benchmark's graphs whose Gram fields have degree 96, 192, 144 and
    # 1152 (labels other than 2) get Cartan rings of degree 12, 12, 72, 288:
    # real subfields, of half the cyclotomic degree
    for name, degree in (("highdeg96", 12), ("highdeg1152", 288)):
        g = parse_graph((DATA / f"{name}.graph").read_text())
        assert field_of(g).degree == degree, name
    for labels, degree in (((3, 4, 5, 7), 12), ((2, 5, 7, 9), 72), ((8,), 2), ((10, 5), 2)):
        names = "abcde"[: len(labels) + 1]
        g = make_graph(names, [(names[i], names[i + 1], m) for i, m in enumerate(labels)])
        assert field_of(g).degree == degree, labels
    # crystallographic labels only, cycles and infinity included: plain ints
    for labels in ((2, 3, 2, 3, INF, 2, 3, 4, 6, INF), (6, 4, INF)):
        g = make_graph("abcde", [(u, v, m) for (u, v), m in zip(combinations("abcde", 2), labels) if m != INF])
        assert field_of(g) is int
        assert {type(x) for row in theta(g, [(v, 1) for v in "abcdeedcba"]).mat for x in row} == {int}


def test_one_field_context_per_n():
    # field_of keeps no cache of its own; scalar's one context per N keeps
    # the kernel's scalars on Scalar's `ctx is` fast path
    by_n = {
        5: [make_graph("ab", [("a", "b", 5)]), make_graph("abc", [("a", "b", 10), ("b", "c", 3)])],
        35: [make_graph("abc", [("a", "b", 5), ("b", "c", 7)]), make_graph("ab", [("a", "b", 35)])],
    }
    for n, graphs in by_n.items():
        contexts = [field_of(g) for g in graphs] + [field_of(graphs[0])]
        assert all(ctx is contexts[0] for ctx in contexts) and contexts[0].N == n
        # odd non-crystallographic labels alone: the Gram form's N is the same
        assert gram_field(graphs[0]) is contexts[0]
        assert _neighbours(graphs[0])[0][0][1].ctx is contexts[0]


def test_kernel_caches_stay_bounded_over_many_graphs():
    # a command uses one entry of each kernel cache, and analyze --dir reuses
    # a few dozen is_spherical answers; a library loop over 1,000 graphs, and
    # over fields of 74 orders N, keeps each cache at its bound
    rng = random.Random(41)
    for k in range(1000):
        names = [f"v{k}_{i}" for i in range(3)]
        m = rng.choice(range(5, 153, 2))
        g = make_graph(names, [(names[0], names[1], m), (names[1], names[2], 3)])
        _neighbours(g)
        is_spherical(g)
    for cache, bound in ((_neighbours, 8), (_context_for, 8), (is_spherical, 64)):
        info = cache.cache_info()
        assert info.maxsize is not None and info.maxsize <= bound
        assert info.currsize <= info.maxsize


def _check_generator_updates(w, reflections):
    g = w.graph
    for s, refl in enumerate(reflections):
        nbrs = _neighbours(g)[s]
        right, left = w * refl, refl * w
        assert _times_generator(w.mat, s, nbrs) == right.mat
        assert _generator_times(w.inv, s, nbrs) == right.inv
        assert _generator_times(w.mat, s, nbrs) == left.mat
        assert _times_generator(w.inv, s, nbrs) == left.inv
        assert w.times_generator(g.vertices[s]) == right


def test_generator_updates_match_dense_products_on_small_graphs():
    # Every element of at most 4 letters on every graph with n <= 3 and labels
    # 2..6 and inf, reached by dense products alone.  The set is closed under
    # inverses and s * w = (w^-1 * s)^-1, so checking w * s on both matrices
    # checks both updates on both matrices.
    for n in range(4):
        for g in all_graphs(n, (2, 3, 4, 5, 6, INF)):
            reflections = [_reflection_by_definition(g, v) for v in g.vertices]
            assert [simple_reflection(g, v) for v in g.vertices] == reflections
            layer = seen = {identity(g)}
            for _ in range(5):
                products = set()
                for w in layer:
                    for s, refl in enumerate(reflections):
                        right = w * refl
                        nbrs = _neighbours(g)[s]
                        assert _times_generator(w.mat, s, nbrs) == right.mat
                        assert _generator_times(w.inv, s, nbrs) == right.inv
                        products.add(right)
                layer = products - seen
                seen = seen | layer


def test_generator_updates_match_dense_products_on_random_words():
    rng = random.Random(41)
    for n in (4, 5, 6):
        for _ in range(6):
            g = random_graph(rng, n, (2, 3, 4, 5, 6, INF))
            reflections = [_reflection_by_definition(g, v) for v in g.vertices]
            w = identity(g)
            for v, _ in random_word(rng, g, 10).letters:
                _check_generator_updates(w, reflections)
                w = w * reflections[g.index(v)]


# -- the Cartan kernel against the symmetric one it replaced --------------------


def _subsets(g):
    return [c for r in range(len(g.vertices) + 1) for c in combinations(g.vertices, r)]


def test_cartan_kernel_matches_symmetric_kernel_on_small_graphs():
    # a seeded sample of the graphs with n <= 3 and labels 2..12 and inf:
    # every word of at most 4 letters for reduced words, descents and coset
    # splits on every subset, and every 4-letter word for plain and traced
    # retraction on one seeded subset
    labels = tuple(range(2, 13)) + (INF,)
    graphs = [g for n in range(4) for g in all_graphs(n, labels)]
    rng = random.Random(23)
    for g in rng.sample(graphs, 10) + [EDGEINF, PATH58]:
        words = [
            ArtinWord(tuple((v, rng.choice((1, -1))) for v in w))
            for length in range(5)
            for w in product(g.vertices, repeat=length)
        ]
        kernel = SymmetricKernel(g)
        subsets = _subsets(g)
        assert_matches_symmetric_kernel(g, words, subsets, kernel, retracts=False)
        for w in words:
            if len(w) == 4:
                assert_matches_symmetric_kernel(g, [w], [rng.choice(subsets)], kernel)


def _cycle_graph(rng, n):
    """A cycle on n vertices labelled 4, 6, 8, 10, 12 or inf, with each chord
    labelled 2, 3 or inf."""
    names = "abcdefg"[:n]
    edges = []
    for i, j in combinations(range(n), 2):
        cycle_edge = j == i + 1 or (i, j) == (0, n - 1)
        m = rng.choice((4, 6, 8, 10, 12, INF) if cycle_edge else (2, 2, 3, INF))
        if m != INF:
            edges.append((names[i], names[j], m))
    return make_graph(names, edges)


def test_cartan_kernel_matches_symmetric_kernel_on_long_words():
    rng = random.Random(29)
    for n in (4, 5, 6, 7):
        g = _cycle_graph(rng, n)
        kernel = SymmetricKernel(g)
        words = [random_word(rng, g, rng.randrange(12, 21)) for _ in range(3)]
        subsets = [tuple(v for v in g.vertices if rng.random() < 0.5) for _ in range(2)]
        assert_matches_symmetric_kernel(g, words, subsets, kernel)
