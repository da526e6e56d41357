"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Budgets are wall-clock upper bounds; every randomized suite uses a fixed seed.
"""

import itertools
import random
import time

from artincenter.analyzer import establish, spherical_center_generator
from artincenter.coxeter import (
    coset_decompose,
    coxeter_number,
    identity,
    is_affine,
    is_spherical,
    simple_reflection,
    theta,
)
from artincenter.dihedral import dihedral_equal
from artincenter.graph import INF, make_graph
from artincenter.retraction import retract, retract_trace
from artincenter.words import ArtinWord, parse_word

from helpers import (
    bfs_enumerate,
    dihedral_center_generator,
    expected_finite_order,
    is_reduced_for,
    random_cone_free_graph,
    random_pure_word,
    random_single_cone_graph,
    random_subset,
    random_word,
    words_equal_in_subgroup,
)

EDGE3 = make_graph(["s", "t"], [("s", "t", 3)])
EDGE4 = make_graph(["s", "t"], [("s", "t", 4)])
PATH33 = make_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 3)])
TRI233 = make_graph(["r", "s", "t"], [("r", "s", 2), ("r", "t", 3), ("s", "t", 3)])
CHAIN4 = make_graph(["a", "b", "c", "d"], [("a", "b", 3), ("b", "c", 2), ("c", "d", 3)])

LEMMA_FIXTURES = (EDGE3, EDGE4, PATH33, TRI233, CHAIN4)


def _finish(num: int, failures: list, started: float, budget: float, detail: str):
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert not failures, f"criterion {num}: {failures[:5]}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def test_criterion_1_coxeter_engine_oracle():
    started = time.monotonic()
    failures = []
    labels = (2, 3, 4, INF)
    graphs = [make_graph(["a"], [])]
    for m in labels:
        graphs.append(make_graph(["a", "b"], [] if m == INF else [("a", "b", m)]))
    pair_names = [("a", "b"), ("a", "c"), ("b", "c")]
    for combo in itertools.product(labels, repeat=3):
        edges = [(u, v, m) for (u, v), m in zip(pair_names, combo) if m != INF]
        graphs.append(make_graph(["a", "b", "c"], edges))

    checked = 0
    for g in graphs:
        if not is_spherical(g):
            continue
        checked += 1
        dist = bfs_enumerate(g)
        if len(dist) != expected_finite_order(g):
            failures.append((g, "order", len(dist)))
        for w, d in dist.items():
            if w.length() != d:
                failures.append((g, "length", d))
            word = ArtinWord(tuple((v, 1) for v in w.reduced_word()))
            if theta(g, word) != w:
                failures.append((g, "roundtrip"))
    assert checked >= 20
    _finish(1, failures, started, 30.0, f"{checked} positive-definite graphs, BFS oracle")


def test_criterion_2_coset_lemma_suite():
    started = time.monotonic()
    failures = []
    rng = random.Random(20240)
    trials_per_fixture = 200
    for g in LEMMA_FIXTURES:
        for _ in range(trials_per_fixture):
            w = theta(g, random_word(rng, g, rng.randrange(0, 7)))
            x_set = random_subset(rng, g)
            reduced = is_reduced_for(w, x_set)
            longer = all(
                (simple_reflection(g, v) * w).length() > w.length() for v in x_set
            )
            samples = [identity(g)]
            samples += [simple_reflection(g, v) for v in x_set]
            for _ in range(2):
                word = ArtinWord(
                    tuple((rng.choice(x_set), 1) for _ in range(rng.randrange(0, 4)))
                    if x_set
                    else ()
                )
                samples.append(theta(g, word))
            additive = all(
                (v * w).length() == v.length() + w.length() for v in samples
            )
            if not (reduced == longer == additive):
                failures.append((g.vertices, x_set, w.reduced_word()))

            u = theta(g, random_word(rng, g, rng.randrange(0, 7)))
            dec = coset_decompose(u, x_set)
            if dec.subgroup_part * dec.reduced_part != u:
                failures.append(("product", g.vertices))
            if not is_reduced_for(dec.reduced_part, x_set):
                failures.append(("reduced", g.vertices))
            noise = theta(
                g,
                ArtinWord(
                    tuple((rng.choice(x_set), 1) for _ in range(rng.randrange(0, 4)))
                    if x_set
                    else ()
                ),
            )
            if coset_decompose(noise * u, x_set).reduced_part != dec.reduced_part:
                failures.append(("invariance", g.vertices))
    total = trials_per_fixture * len(LEMMA_FIXTURES)
    _finish(2, failures, started, 60.0, f"{total} (word, subset) pairs on 5 fixtures")


def test_criterion_3_retraction_properties():
    started = time.monotonic()
    failures = []
    rng = random.Random(30303)
    fixtures = (TRI233, CHAIN4)

    def nonempty_subset(g):
        while True:
            x_set = random_subset(rng, g)
            if x_set:
                return x_set

    for i in range(1000):  # identity on words over X
        g = fixtures[i % 2]
        x_set = nonempty_subset(g)
        w = ArtinWord(
            tuple((rng.choice(x_set), rng.choice((1, -1))) for _ in range(rng.randrange(0, 7)))
        )
        if retract(g, x_set, w) != w:
            failures.append(("identity", x_set, w))

    for i in range(1000):  # positivity preservation
        g = fixtures[i % 2]
        x_set = random_subset(rng, g)
        w = random_word(rng, g, rng.randrange(0, 7), positive=True)
        if not retract(g, x_set, w).is_positive():
            failures.append(("positivity", x_set, w))

    for i in range(1000):  # support restriction
        g = fixtures[i % 2]
        x_set = random_subset(rng, g)
        y_set = nonempty_subset(g)
        w = ArtinWord(
            tuple((rng.choice(y_set), rng.choice((1, -1))) for _ in range(rng.randrange(0, 7)))
        )
        if not retract(g, x_set, w).support() <= set(x_set) & set(y_set):
            failures.append(("support", x_set, y_set, w))

    for i in range(1000):  # word-level prefix absorption
        g = fixtures[i % 2]
        x_set = nonempty_subset(g)
        prefix = ArtinWord(
            tuple((rng.choice(x_set), rng.choice((1, -1))) for _ in range(rng.randrange(0, 4)))
        )
        w = random_word(rng, g, rng.randrange(0, 6))
        if retract(g, x_set, prefix + w) != prefix + retract(g, x_set, w):
            failures.append(("prefix", x_set, prefix, w))

    for i in range(500):  # set-map well-definedness
        g = fixtures[i % 2]
        x_set = random_subset(rng, g)
        sub = g.induced(x_set)
        prefix = random_word(rng, g, rng.randrange(0, 4))
        suffix = random_word(rng, g, rng.randrange(0, 4))
        if rng.random() < 0.5:
            i_, j_, m = rng.choice(g.edges)
            u, v = g.vertices[i_], g.vertices[j_]
            side_a = ArtinWord(tuple(((u, v)[k % 2], 1) for k in range(m)))
            side_b = ArtinWord(tuple(((v, u)[k % 2], 1) for k in range(m)))
            a, b = prefix + side_a + suffix, prefix + side_b + suffix
        else:
            x = rng.choice(g.vertices)
            e = rng.choice((1, -1))
            a = prefix + ArtinWord(((x, e), (x, -e))) + suffix
            b = prefix + suffix
        if not words_equal_in_subgroup(sub, retract(g, x_set, a), retract(g, x_set, b)):
            failures.append(("setmap", x_set, a, b))

    for i in range(500):  # homomorphism on pure words
        g = fixtures[i % 2]
        x_set = random_subset(rng, g)
        sub = g.induced(x_set)
        a = random_pure_word(rng, g, rng.randrange(1, 3))
        b = random_pure_word(rng, g, rng.randrange(1, 3))
        lhs = retract(g, x_set, a + b)
        rhs = retract(g, x_set, a) + retract(g, x_set, b)
        if not words_equal_in_subgroup(sub, lhs, rhs):
            failures.append(("hom", x_set, a, b))

    _finish(3, failures, started, 120.0, "4x1000 + 2x500 randomized retraction trials")


def test_criterion_4_hand_traced_retraction():
    started = time.monotonic()
    failures = []
    x_set = ("s", "t")
    if retract(TRI233, x_set, parse_word("r", TRI233)) != ArtinWord():
        failures.append("single letter not dropped")
    out = retract(TRI233, x_set, parse_word("r s r^-1", TRI233))
    if out != ArtinWord((("s", 1),)):
        failures.append(f"conjugate image {out}")
    trace = retract_trace(TRI233, x_set, parse_word("r s r^-1", TRI233))
    expected = [
        simple_reflection(TRI233, "r"),
        simple_reflection(TRI233, "s"),
        simple_reflection(TRI233, "r"),
    ]
    if len(trace.steps) != 3 or [s.reflection for s in trace.steps] != expected:
        failures.append("trace reflections differ")
    _finish(4, failures, started, 10.0, "exact 3-row hand trace")


def test_criterion_5_dihedral_centers():
    started = time.monotonic()
    failures = []
    for m in range(2, 9):
        z = dihedral_center_generator(m)
        for gen in ("s", "t"):
            gw = ArtinWord(((gen, 1),))
            if not dihedral_equal(m, z + gw, gw + z):
                failures.append(("center", m, gen))
        if m % 2 == 1:
            delta = ArtinWord(tuple(("st"[i % 2], 1) for i in range(m)))
            sw = ArtinWord((("s", 1),))
            if dihedral_equal(m, delta + sw, sw + delta):
                failures.append(("delta central", m))
    for m in range(3, 9):
        for k in range(1, 5):
            tk = ArtinWord((("t", 1),)) ** k
            sw = ArtinWord((("s", 1),))
            if dihedral_equal(m, tk + sw, sw + tk):
                failures.append(("t-power central", m, k))
    _finish(5, failures, started, 30.0, "centers and non-centers for m=2..8")


def test_criterion_6_recognizers_and_generators():
    started = time.monotonic()
    failures = []
    if not is_spherical(EDGE3):
        failures.append("edge m=3 not spherical")
    edge_inf = make_graph(["s", "t"], [])
    if not is_affine(edge_inf) or is_spherical(edge_inf):
        failures.append("edge inf misclassified")
    tri = make_graph("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    if not is_affine(tri) or is_spherical(tri):
        failures.append("triangle(3,3,3) misclassified")
    for n in range(1, 6):
        verts = [f"v{i}" for i in range(n)]
        kn = make_graph(verts, [(a, b, 2) for a, b in itertools.combinations(verts, 2)])
        if not is_spherical(kn):
            failures.append(f"K{n} all-2 not spherical")
        for factor in kn.join_factors():
            if not is_spherical(factor):
                failures.append(f"K{n} factor not spherical")
    for m in range(2, 9):
        g = make_graph(["s", "t"], [("s", "t", m)])
        if not dihedral_equal(m, spherical_center_generator(g), dihedral_center_generator(m)):
            failures.append(("generator mismatch", m))
    _finish(6, failures, started, 30.0, "exact minors and center generators")


def test_criterion_7_raag_center_formula():
    started = time.monotonic()
    failures = []
    rng = random.Random(70707)
    for _ in range(200):
        n = rng.randrange(1, 9)
        verts = [f"v{i}" for i in range(n)]
        edges = [
            (a, b, 2) for a, b in itertools.combinations(verts, 2) if rng.random() < 0.5
        ]
        g = make_graph(verts, edges)
        report = establish(g)
        expected = sum(
            1 for v in verts if all(g.label(v, u) == 2 for u in verts if u != v)
        )
        if not report.established or report.center_rank != expected:
            failures.append((g.vertices, g.edges, report.center_rank, expected))
    _finish(7, failures, started, 60.0, "200 random right-angled graphs, n <= 8")


def test_criterion_8_cone_corollaries():
    started = time.monotonic()
    failures = []
    rng = random.Random(80808)
    for _ in range(50):
        g = random_single_cone_graph(rng, rng.randrange(3, 7))
        cone = g.cone_points()[0]
        report = establish(g)
        some_label_big = any(g.label(cone, v) != 2 for v in g.vertices if v != cone)
        if not report.established:
            failures.append(("unestablished", g.edges))
        elif (report.center_rank == 0) != some_label_big:
            failures.append(("single-cone mismatch", g.edges))
    for _ in range(50):
        g = random_cone_free_graph(rng, rng.randrange(2, 7))
        report = establish(g)
        if not report.established or report.center_rank != 0:
            failures.append(("cone-free mismatch", g.edges))
    _finish(8, failures, started, 60.0, "50 single-cone + 50 cone-free graphs")


def test_criterion_9_coxeter_numbers():
    started = time.monotonic()
    failures = []
    for m in range(2, 9):
        g = make_graph(["s", "t"], [("s", "t", m)])
        if coxeter_number(g) != m:
            failures.append(("edge", m))
    if coxeter_number(TRI233) != 4:
        failures.append("A3 path")
    _finish(9, failures, started, 30.0, "matrix-order Coxeter numbers")
