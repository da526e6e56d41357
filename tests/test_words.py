import copy
import pickle
import random
import re

import pytest

from artincenter import words
from artincenter.coxeter import theta
from artincenter.graph import make_graph
from artincenter.words import ArtinWord, WordSyntaxError, abelianize, is_pure, parse_word

from helpers import random_word, reference_parse_word, rotated

G = make_graph(["s", "t", "u"], [("s", "t", 3), ("t", "u", 2)])


def test_parse_examples():
    assert parse_word("s t^-1", G).letters == (("s", 1), ("t", -1))
    assert parse_word("s^3", G).letters == (("s", 1),) * 3
    assert parse_word("", G) == ArtinWord()
    assert parse_word("t^-2 s", G).letters == (("t", -1), ("t", -1), ("s", 1))


@pytest.mark.parametrize("bad", ["q", "s^0", "s^", "s^x", "s^1.5", "1s"])
def test_parse_errors(bad):
    with pytest.raises(WordSyntaxError):
        parse_word(bad, G)


@pytest.mark.parametrize("text", ["s^9223372036854775808", "t s^-9223372036854775808"])
def test_huge_exponent_fails_the_length_guard(text):
    with pytest.raises(WordSyntaxError, match="letter guard"):
        parse_word(text, G)


@pytest.mark.parametrize(
    "exp",
    ["9" * 5000, "-" + "9" * 5000, "1" + "0" * 7, "0" * 5000 + "1" * 8],
    ids=["5000-nines", "minus-5000-nines", "8-digits", "zero-padded-8-digits"],
)
def test_exponent_too_long_for_int_fails_the_length_guard(exp):
    with pytest.raises(WordSyntaxError, match="1000000-letter guard"):
        parse_word(f"s^{exp}", G)


def test_leading_zeros_do_not_count_toward_the_exponent_guard():
    assert len(parse_word("s^" + "0" * 5000 + "3", G)) == 3
    assert parse_word("t^-007", G).letters == (("t", -1),) * 7
    with pytest.raises(WordSyntaxError, match="zero exponent"):
        parse_word("s^" + "0" * 5000, G)


def test_any_decimal_zero_leads_an_exponent():
    # \d takes every Unicode decimal digit; U+0660-U+0669 are Arabic-Indic 0-9
    assert parse_word("s^\u0660\u0660\u0660\u0660\u0660\u0660\u0660\u0661", G).letters == (("s", 1),)
    with pytest.raises(WordSyntaxError, match="zero exponent"):
        parse_word("s^" + "\u0660" * 8, G)
    for zero, one in (("0", "1"), ("\u0660", "\u0661")):
        at_guard = f"{zero * 5000}{one}{zero * 6}"
        assert len(parse_word(f"s^{at_guard}", G)) == words.MAX_LETTERS
        with pytest.raises(WordSyntaxError, match="1000000-letter guard"):
            parse_word(f"s^{at_guard} t", G)


def test_decimal_digits_are_what_backslash_d_matches():
    # the exponent's digits are checked by str.isdecimal(), the regex's by \d
    digit = re.compile(r"\d")
    for c in map(chr, range(0x110000)):
        assert c.isdecimal() == bool(digit.fullmatch(c)), hex(ord(c))


# Pieces of fuzzed tokens: vertices and a name that is not one, the grammar's
# signs, ASCII and Unicode decimal digits (Arabic-Indic, fullwidth,
# mathematical), a digit and letters that are not decimal or not ASCII, and a
# no-break space, which str.split() also splits at
WORD_PIECES = ["s", "t", "u", "st", "_", "^", "^-", "-", "0", "1", "7", "\u0660", "\u0669", "\uff19",
               "\U0001d7ce", "\u00b2", "\u00e9", "\u0131", "+", ".", " ", "\u00a0"]


def _parse_outcome(parse, text):
    try:
        return parse(text, G).letters
    except WordSyntaxError as exc:
        return str(exc)


def test_parse_word_matches_the_regex_oracle():
    # acceptance, the letters and every error message agree with the regex on
    # fuzzed texts, on each vertex with each piece appended, and on texts
    # that repeat themselves
    rng = random.Random(21)
    texts = ["".join(rng.choices(WORD_PIECES, k=rng.randint(1, 5))) for _ in range(20000)]
    texts += [f"{v}{c}" for v in G.vertices for c in WORD_PIECES]
    texts += [f"{v}^{sign}{c}" for v in G.vertices for sign in ("", "-") for c in WORD_PIECES]
    texts += [f"{text} {text}" for text in texts[:2000]]  # a token parsed before
    outcomes = set()
    for text in texts:
        expected = _parse_outcome(reference_parse_word, text)
        assert _parse_outcome(parse_word, text) == expected, repr(text)
        outcomes.add(expected.split(" ")[0] if isinstance(expected, str) else "accepted")
    assert outcomes == {"accepted", "malformed", "unknown", "zero"}


def test_length_guard_counts_exponents_before_expanding(monkeypatch):
    monkeypatch.setattr(words, "MAX_LETTERS", 10)
    assert len(parse_word("s^4 t^-6", G)) == 10
    for text in ("s^11", "s^4 t^-7", "s^10 u"):
        with pytest.raises(WordSyntaxError, match="10-letter guard"):
            parse_word(text, G)


def test_letter_exponent_validation():
    with pytest.raises(ValueError):
        ArtinWord((("s", 2),))


def test_word_is_hashable_and_immutable():
    w = parse_word("s t^-2 s", G)
    for v in (
        ArtinWord((("s", 1), ("t", -1), ("t", -1), ("s", 1))),
        pickle.loads(pickle.dumps(w)),
        copy.deepcopy(w),
        copy.copy(w),
    ):
        assert w == v and hash(w) == hash(v)
        assert {w, v} == {w}
    assert w != w.inverse() and w != w.letters
    for name in ("letters", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, ())
    with pytest.raises(AttributeError):
        del w.letters
    assert repr(w) == "ArtinWord(s t^-2 s)" and repr(ArtinWord()) == "ArtinWord(1)"


def test_serialize_compresses_runs():
    w = parse_word("s s s t^-1 t^-1 s", G)
    assert w.to_text() == "s^3 t^-2 s"
    assert parse_word(w.to_text(), G) == w
    assert ArtinWord().to_text() == ""


def test_positive_support_abelianize():
    assert ArtinWord().is_positive()
    assert parse_word("s t s", G).is_positive()
    assert not parse_word("s t^-1", G).is_positive()

    assert parse_word("s t^-1 s", G).support() == {"s", "t"}
    assert parse_word("s^4", G).support() == {"s"}
    assert ArtinWord().support() == frozenset()

    assert abelianize(G, parse_word("s t s", G)) == {"s": 2, "t": 1, "u": 0}
    assert abelianize(G, parse_word("s s^-1", G)) == {"s": 0, "t": 0, "u": 0}
    assert abelianize(G, parse_word("t^-3", G)) == {"s": 0, "t": -3, "u": 0}


def test_is_pure_examples():
    assert is_pure(G, parse_word("s^2", G))
    assert not is_pure(G, parse_word("s", G))
    # s t s t^-1 s^-1 t^-1 has Coxeter image (st)^3 = 1 when m_st = 3
    assert is_pure(G, parse_word("s t s t^-1 s^-1 t^-1", G))


def test_rotation():
    w = parse_word("s t u", G)
    assert rotated(w, 1).to_text() == "t u s"
    assert rotated(w, 0) == w
    assert rotated(w, 3) == w
    assert rotated(ArtinWord(), 0) == ArtinWord()
    with pytest.raises(IndexError):
        rotated(w, 4)
    with pytest.raises(IndexError):
        rotated(w, -1)


def test_concatenation_properties():
    rng = random.Random(23)
    for _ in range(40):
        a = random_word(rng, G, rng.randrange(0, 6))
        b = random_word(rng, G, rng.randrange(0, 6))
        ab = a + b
        assert theta(G, ab) == theta(G, a) * theta(G, b)
        ab_sums = abelianize(G, ab)
        for v in G.vertices:
            assert ab_sums[v] == abelianize(G, a)[v] + abelianize(G, b)[v]
        assert ab.is_positive() == (a.is_positive() and b.is_positive())


def test_rotation_conjugacy():
    # the Coxeter image of a rotation is conjugate to the original by the
    # image of the rotating prefix
    rng = random.Random(29)
    for _ in range(30):
        w = random_word(rng, G, rng.randrange(1, 7))
        k = rng.randrange(0, len(w) + 1)
        prefix = ArtinWord(w.letters[:k])
        conj = theta(G, prefix)
        assert theta(G, rotated(w, k)) == conj.inverse() * theta(G, w) * conj
        assert is_pure(G, w) == is_pure(G, rotated(w, k))


def test_inverse_is_pure_square():
    rng = random.Random(31)
    for _ in range(20):
        w = random_word(rng, G, rng.randrange(0, 6))
        assert is_pure(G, w + w.inverse())


def test_power_guard_checks_before_repeating_the_letters():
    w = ArtinWord((("s", 1), ("t", 1)))
    assert len(w ** 500000) == 10**6
    # 10**9 pairs would need gigabytes if the tuple were built first
    for k in (500001, 5 * 10**8, -(5 * 10**8)):
        with pytest.raises(ValueError, match="1000000-letter guard"):
            w ** k
