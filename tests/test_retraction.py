import random

from artincenter import coxeter, retraction
from artincenter.coxeter import (
    coset_decompose,
    identity,
    longest_element,
    simple_reflection,
    theta,
)
from artincenter.graph import INF, make_graph
from artincenter.retraction import retract, retract_trace
from artincenter.words import ArtinWord, parse_word

from helpers import (
    is_reduced_for,
    random_graph,
    random_pure_word,
    random_subset,
    random_word,
    retract_by_conjugation,
    words_equal_in_subgroup,
)

TRI = make_graph(["r", "s", "t"], [("r", "s", 2), ("r", "t", 3), ("s", "t", 3)])
CHAIN = make_graph(["a", "b", "c", "d"], [("a", "b", 3), ("b", "c", 2), ("c", "d", 3)])
X_ST = ("s", "t")
SWEEP_CASES = 220


def test_hand_trace():
    assert retract(TRI, X_ST, parse_word("r", TRI)) == ArtinWord()
    out = retract(TRI, X_ST, parse_word("r s r^-1", TRI))
    assert out == ArtinWord((("s", 1),))

    trace = retract_trace(TRI, X_ST, parse_word("r s r^-1", TRI))
    sr = simple_reflection(TRI, "r")
    ss = simple_reflection(TRI, "s")
    assert [step.reflection for step in trace.steps] == [sr, ss, sr]
    assert [step.emitted for step in trace.steps] == [None, ("s", 1), None]


def test_trace_reads_each_letter_off_the_split(monkeypatch):
    # with retract's column test disabled, retract drops every letter, while
    # the trace still emits the letters its coset splits name
    word = parse_word("r s r^-1 t r s", TRI)
    monkeypatch.setattr(retraction, "_survivor", lambda *args: None)
    assert retract(TRI, X_ST, word) == ArtinWord()
    assert retract_trace(TRI, X_ST, word).output == parse_word("s t s", TRI)


def test_trace_trivial_cases():
    assert retract_trace(TRI, X_ST, ArtinWord()).steps == ()
    trace = retract_trace(TRI, X_ST, parse_word("s", TRI))
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.reflection == simple_reflection(TRI, "s")
    assert step.emitted == ("s", 1)
    assert step.reduced_part.is_identity()


def test_identity_on_subgroup_words():
    rng = random.Random(61)
    for _ in range(60):
        w = ArtinWord(
            tuple((rng.choice(X_ST), rng.choice((1, -1))) for _ in range(rng.randrange(0, 8)))
        )
        assert retract(TRI, X_ST, w) == w


def test_positivity_preservation():
    rng = random.Random(67)
    for g in (TRI, CHAIN):
        for _ in range(40):
            x_set = random_subset(rng, g)
            w = random_word(rng, g, rng.randrange(0, 8), positive=True)
            assert retract(g, x_set, w).is_positive()


def test_support_restriction():
    rng = random.Random(71)
    for g in (TRI, CHAIN):
        for _ in range(40):
            x_set = random_subset(rng, g)
            y_set = random_subset(rng, g)
            if not y_set:
                continue
            w = ArtinWord(
                tuple(
                    (rng.choice(y_set), rng.choice((1, -1)))
                    for _ in range(rng.randrange(0, 8))
                )
            )
            out = retract(g, x_set, w)
            assert out.support() <= (set(x_set) & set(y_set))


def test_prefix_absorption_letterwise():
    rng = random.Random(73)
    for g in (TRI, CHAIN):
        for _ in range(40):
            x_set = random_subset(rng, g)
            if not x_set:
                continue
            prefix = ArtinWord(
                tuple(
                    (rng.choice(x_set), rng.choice((1, -1)))
                    for _ in range(rng.randrange(0, 5))
                )
            )
            w = random_word(rng, g, rng.randrange(0, 7))
            assert retract(g, x_set, prefix + w) == prefix + retract(g, x_set, w)


def _braid_variant(rng: random.Random, g, base_len: int) -> tuple[ArtinWord, ArtinWord]:
    """Two words equal in the Artin group, differing by one braid relation or
    one free cancellation."""
    prefix = random_word(rng, g, rng.randrange(0, base_len))
    suffix = random_word(rng, g, rng.randrange(0, base_len))
    finite_edges = [
        (g.vertices[i], g.vertices[j], m) for i, j, m in g.edges
    ]
    if finite_edges and rng.random() < 0.5:
        u, v, m = rng.choice(finite_edges)
        side_a = ArtinWord(tuple(((u, v)[i % 2], 1) for i in range(m)))
        side_b = ArtinWord(tuple(((v, u)[i % 2], 1) for i in range(m)))
        return prefix + side_a + suffix, prefix + side_b + suffix
    x = rng.choice(g.vertices)
    e = rng.choice((1, -1))
    cancel = ArtinWord(((x, e), (x, -e)))
    return prefix + cancel + suffix, prefix + suffix


def test_set_map_well_defined():
    rng = random.Random(79)
    for g in (TRI, CHAIN):
        for _ in range(40):
            x_set = random_subset(rng, g)
            a, b = _braid_variant(rng, g, 4)
            sub = g.induced(x_set)
            assert words_equal_in_subgroup(sub, retract(g, x_set, a), retract(g, x_set, b))


def test_homomorphism_on_pure_words():
    rng = random.Random(83)
    for g in (TRI, CHAIN):
        for _ in range(30):
            x_set = random_subset(rng, g)
            a = random_pure_word(rng, g, rng.randrange(1, 3))
            b = random_pure_word(rng, g, rng.randrange(1, 3))
            sub = g.induced(x_set)
            lhs = retract(g, x_set, a + b)
            rhs = retract(g, x_set, a) + retract(g, x_set, b)
            assert words_equal_in_subgroup(sub, lhs, rhs)


def test_trace_internal_consistency():
    rng = random.Random(89)
    for g in (TRI, CHAIN):
        for _ in range(25):
            x_set = random_subset(rng, g)
            w = random_word(rng, g, rng.randrange(0, 7))
            trace = retract_trace(g, x_set, w)
            prev_prefix = identity(g)
            prev_reduced = identity(g)
            for step, (v, e) in zip(trace.steps, w.letters):
                refl = simple_reflection(g, v)
                assert step.vertex == v and step.exponent == e
                prefix = prev_prefix * refl
                # decomposition agrees with a from-scratch coset split
                dec = coset_decompose(prefix, x_set)
                assert step.subgroup_part == dec.subgroup_part
                assert step.reduced_part == dec.reduced_part
                assert step.subgroup_part * step.reduced_part == prefix
                assert set(step.subgroup_part.reduced_word()) <= set(x_set)
                assert is_reduced_for(step.reduced_part, x_set)
                conj = prev_reduced if e == 1 else step.reduced_part
                assert step.reflection == conj * refl * conj.inverse()
                witness = step.reflection.match_simple_reflection(x_set)
                if witness is None:
                    assert step.emitted is None
                else:
                    assert step.emitted == (witness, e)
                prev_prefix = prefix
                prev_reduced = step.reduced_part
            emitted = tuple(s.emitted for s in trace.steps if s.emitted is not None)
            assert trace.output == ArtinWord(emitted)
            assert trace.output == retract(g, x_set, w)


def test_coset_split_matches_conjugation_oracle():
    rng = random.Random(101)
    for _ in range(SWEEP_CASES):
        g = random_graph(rng, rng.randrange(2, 6), (2, 3, 4, 5, 6, INF))
        x_set = random_subset(rng, g)
        w = random_word(rng, g, rng.randrange(0, 13))
        expected = retract_by_conjugation(g, x_set, w)
        trace = retract_trace(g, x_set, w)
        got = [(s.subgroup_part, s.reduced_part, s.reflection, s.emitted) for s in trace.steps]
        assert got == expected, (g, x_set, w)
        oracle_output = ArtinWord(tuple(e for *_, e in expected if e is not None))
        assert trace.output == oracle_output
        assert retract(g, x_set, w) == oracle_output


def test_retract_builds_no_audit(monkeypatch):
    def audit(*args):
        raise AssertionError("audit built by retract")

    monkeypatch.setattr(retraction, "_conjugated_reflection", audit)
    assert retract(TRI, X_ST, parse_word("r s r^-1 t^-1 r", TRI)) == parse_word("s t^-1", TRI)
    rng = random.Random(103)
    for _ in range(20):
        retract(CHAIN, random_subset(rng, CHAIN), random_word(rng, CHAIN, 10))


def test_one_generator_paths_make_no_dense_product(monkeypatch):
    def dense(*args):
        raise AssertionError("dense matrix product on a one-generator path")

    monkeypatch.setattr(coxeter, "_mat_mul", dense)
    rng = random.Random(107)
    for g in (CHAIN, TRI):
        for _ in range(20):
            x_set, w = random_subset(rng, g), random_word(rng, g, rng.randrange(0, 16))
            retract(g, x_set, w)
            image = theta(g, w)
            image.reduced_word()
            image.right_descents()
            image.inverse().is_identity()
            dec = coset_decompose(image, x_set)
            dec.subgroup_part.reduced_word()
            dec.reduced_part.reduced_word()
    longest_element(TRI).reduced_word()


def test_unknown_vertices_rejected():
    import pytest

    with pytest.raises(ValueError):
        retract(TRI, ("s", "q"), ArtinWord())
    with pytest.raises(ValueError):
        retract(TRI, X_ST, ArtinWord((("z", 1),)))
