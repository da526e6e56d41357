import random
import time
from itertools import product

import pytest

from artincenter.coxeter import theta
from artincenter.dihedral import (
    GarsideNormalForm,
    dihedral_equal,
    free_reduce,
    garside_nf,
)
from artincenter.graph import INF, make_graph
from artincenter.words import MAX_LETTERS, ArtinWord, abelianize, parse_word

from helpers import (
    dihedral_center_generator,
    garside_nf_by_combing,
    nf_is_trivial,
    nf_to_word,
    positive_words_equal_oracle,
)

ST = make_graph(["s", "t"], [("s", "t", 3)])


def W(text: str) -> ArtinWord:
    return parse_word(text, ST)


def random_st_word(rng: random.Random, length: int, positive=False) -> ArtinWord:
    return ArtinWord(
        tuple(
            (rng.choice("st"), 1 if positive else rng.choice((1, -1)))
            for _ in range(length)
        )
    )


def test_braid_relation_collapses():
    nf1 = garside_nf(3, W("s t s"))
    nf2 = garside_nf(3, W("t s t"))
    assert nf1 == nf2
    assert nf1.delta_power == 1 and nf1.factors == ()


def test_identity_normal_form():
    assert nf_is_trivial(garside_nf(3, W("s s^-1")))
    assert nf_is_trivial(garside_nf(3, W("")))


def test_full_twist():
    nf = garside_nf(3, W("s t") ** 3)
    assert nf.delta_power == 2 and nf.factors == ()


def test_equality_examples():
    assert dihedral_equal(3, W("s t s"), W("t s t"))
    assert not dihedral_equal(INF, W("s t"), W("t s"))
    # m=4: delta = (st)^2 is central, so (st)^2 s = s (ts)^2
    lhs = W("s t") ** 2 + W("s")
    rhs = W("s") + W("t s") ** 2
    assert dihedral_equal(4, lhs, rhs)


def test_nf_against_rewriting_oracle():
    rng = random.Random(41)
    for m in (2, 3, 4, 5):
        for _ in range(60):
            a = random_st_word(rng, rng.randrange(0, 11), positive=True)
            b = random_st_word(rng, len(a), positive=True)
            assert dihedral_equal(m, a, b) == positive_words_equal_oracle(m, a, b), (m, a, b)


def test_nf_idempotent():
    rng = random.Random(43)
    for m in (2, 3, 4, 6):
        for _ in range(40):
            w = random_st_word(rng, rng.randrange(0, 12))
            nf = garside_nf(m, w)
            assert garside_nf(m, nf_to_word(nf)) == nf


def test_equality_is_congruence():
    rng = random.Random(47)
    for m in (3, 4):
        for _ in range(30):
            a = random_st_word(rng, rng.randrange(0, 8))
            c = random_st_word(rng, rng.randrange(0, 8))
            # build b equal to a by inserting a cancelling pair; d likewise
            v = rng.choice("st")
            pos = rng.randrange(0, len(a) + 1)
            b = ArtinWord(a.letters[:pos] + ((v, 1), (v, -1)) + a.letters[pos:])
            d = c + W("s t s") + W("s t s").inverse()
            assert dihedral_equal(m, a, b)
            assert dihedral_equal(m, c, d)
            assert dihedral_equal(m, a + c, b + d)


def test_theta_and_abelianization_compatibility():
    rng = random.Random(53)
    g4 = make_graph(["s", "t"], [("s", "t", 4)])
    for _ in range(40):
        a = random_st_word(rng, rng.randrange(0, 9))
        b = random_st_word(rng, rng.randrange(0, 9))
        if dihedral_equal(4, a, b):
            assert theta(g4, a) == theta(g4, b)
            assert abelianize(g4, a) == abelianize(g4, b)


def test_center_generators():
    assert dihedral_center_generator(2).to_text() == "s t"
    assert dihedral_center_generator(4) == W("s t") ** 2
    assert dihedral_center_generator(3) == W("s t") ** 3
    with pytest.raises(ValueError):
        dihedral_center_generator(INF)
    with pytest.raises(ValueError, match="letter guard"):
        dihedral_center_generator(10**9)

    for m in range(2, 9):
        z = dihedral_center_generator(m)
        for gen in ("s", "t"):
            gw = ArtinWord(((gen, 1),))
            assert dihedral_equal(m, z + gw, gw + z)
        # delta itself is central only for even m
        delta = ArtinWord(tuple(("st"[i % 2], 1) for i in range(m)))
        sw = ArtinWord((("s", 1),))
        assert dihedral_equal(m, delta + sw, sw + delta) == (m % 2 == 0)


def test_no_generator_power_is_central():
    for m in range(3, 9):
        for k in range(1, 5):
            tk = ArtinWord((("t", 1),)) ** k
            sw = ArtinWord((("s", 1),))
            assert not dihedral_equal(m, tk + sw, sw + tk)


def test_free_reduce():
    assert free_reduce(W("s s^-1")) == ArtinWord()
    assert free_reduce(W("s t t^-1 s")).to_text() == "s^2"
    reduced = W("s t s^-1")
    assert free_reduce(reduced) == reduced
    # reduction is canonical: w w^-1 always collapses
    rng = random.Random(59)
    for _ in range(30):
        w = random_st_word(rng, rng.randrange(0, 10))
        assert free_reduce(w + w.inverse()) == ArtinWord()


def test_word_validation():
    g = make_graph(["a", "b", "c"], [("a", "b", 3)])
    w = parse_word("a c", g)
    with pytest.raises(ValueError):
        garside_nf(3, w, ("a", "b"))
    with pytest.raises(ValueError):
        garside_nf(INF, W("s"), ("s", "t"))  # infinite label needs free_reduce


def _nf_pair(m: int, w: ArtinWord) -> tuple:
    nf = garside_nf(m, w)
    return nf.delta_power, nf.factors


def test_one_pass_matches_combing_on_all_short_words():
    alphabet = [("s", 1), ("t", 1), ("s", -1), ("t", -1)]
    words = [ArtinWord(letters) for n in range(7) for letters in product(alphabet, repeat=n)]
    for m in range(2, 9):
        for w in words:
            assert _nf_pair(m, w) == garside_nf_by_combing(m, w), (m, w)


def test_one_pass_matches_combing_on_long_words():
    rng = random.Random(61)
    for m in range(2, 13):
        for _ in range(40):
            w = random_st_word(rng, rng.randrange(60, 121))
            assert _nf_pair(m, w) == garside_nf_by_combing(m, w), (m, w)


def test_one_pass_cost_does_not_grow_with_the_label():
    # A complement of m-1 letters is appended as one block, so a label of
    # 10**9 costs no more than a small one.
    m = 10**9
    for text in ("s", "s^-1", "s^-1 t^-1"):
        assert _nf_pair(m, W(text)) == garside_nf_by_combing(m, W(text)), text
    # s t s^-1 = delta^-1 . st . (t s ... t, m-1 letters); the combing moves
    # one letter at a time here, so the form is written out.
    assert _nf_pair(m, W("s t s^-1")) == (-1, ((0, 2), (1, m - 1)))
    # s s^-2 = delta^-2 . (s t ... t, m letters) . (t s ... t, m-1 letters)
    assert _nf_pair(m, W("s s^-2")) == (-1, ((1, m - 1),))


def test_to_word_checks_the_letter_guard_before_spelling():
    # s t^-1 s has a factor of m - 1 letters: 10^9 of them here
    nf = garside_nf(10**9, W("s t^-1 s"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"{MAX_LETTERS}-letter guard"):
        nf_to_word(nf)
    assert time.perf_counter() - start < 1.0
    # the guard counts |k| * m letters of delta^k and the factors' letters
    at_guard = GarsideNormalForm(1000, ("s", "t"), -999, ((0, 999), (1, 1)))
    assert len(nf_to_word(at_guard)) == MAX_LETTERS
    with pytest.raises(ValueError, match="letter guard"):
        nf_to_word(GarsideNormalForm(1000, ("s", "t"), -1000, ((0, 1),)))


def _lengths_from_label(n: int, m: int, pair: tuple) -> tuple:
    """Factor lengths of an n-letter word's form written as k or k - m."""
    power, factors = pair
    return power, tuple((a, k if k <= n else k - m) for a, k in factors)


def test_one_pass_on_a_huge_label_matches_combing_on_a_small_one():
    # For m > 2n an n-letter word's form depends on m only through its
    # parity: every factor has at most n letters or at least m - n.
    alphabet = [("s", 1), ("t", 1), ("s", -1), ("t", -1)]
    for big, small in ((10**9, 12), (10**9 + 1, 13)):
        for n in range(5):
            for letters in product(alphabet, repeat=n):
                w = ArtinWord(letters)
                assert _lengths_from_label(n, big, _nf_pair(big, w)) == _lengths_from_label(
                    n, small, garside_nf_by_combing(small, w)
                ), (big, w)
