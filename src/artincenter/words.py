"""Words over the Artin generators and their formal inverses.

Words are elements of the free monoid: fully expanded letter sequences with
exponents +1 or -1, no implicit cancellation.  The retraction map consumes
words letter by letter, which is why the expansion is kept literal.
"""

from __future__ import annotations

from .graph import DefiningGraph, _is_name

MAX_LETTERS = 10**6


class WordSyntaxError(ValueError):
    """Raised when word text does not parse."""


class ArtinWord:
    """A sequence of (generator, exponent) letters with exponents +1 or -1.

    A slotted value class: equal letters make equal, equally hashed words.
    """

    __slots__ = ("letters",)

    letters: tuple[tuple[str, int], ...]

    def __init__(self, letters: tuple[tuple[str, int], ...] = ()) -> None:
        if len(letters) > MAX_LETTERS:
            raise ValueError(f"word exceeds the {MAX_LETTERS}-letter guard")
        for v, e in letters:
            if e not in (1, -1):
                raise ValueError(f"letter exponent {e} must be +1 or -1")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ArtinWord, (self.letters,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.letters,))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other: "ArtinWord") -> "ArtinWord":
        return ArtinWord(self.letters + other.letters)

    def __pow__(self, k: int) -> "ArtinWord":
        if k < 0:
            return self.inverse() ** (-k)
        # checked before the letters are repeated, so a huge power fails fast
        if len(self.letters) * k > MAX_LETTERS:
            raise ValueError(f"word exceeds the {MAX_LETTERS}-letter guard")
        return ArtinWord(self.letters * k)

    def inverse(self) -> "ArtinWord":
        return ArtinWord(tuple((v, -e) for v, e in reversed(self.letters)))

    def is_positive(self) -> bool:
        return all(e == 1 for _, e in self.letters)

    def support(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.letters)

    def to_text(self) -> str:
        """Serialize, re-compressing runs of one letter into v^k form."""
        parts: list[str] = []
        i = 0
        letters = self.letters
        while i < len(letters):
            v, e = letters[i]
            j = i
            while j < len(letters) and letters[j] == (v, e):
                j += 1
            k = (j - i) * e
            parts.append(v if k == 1 else f"{v}^{k}")
            i = j
        return " ".join(parts)

    def __repr__(self):
        return f"ArtinWord({self.to_text() or '1'})"


def _parse_token(token: str, g: DefiningGraph) -> tuple[tuple[str, int], int]:
    """The letter a token ``v``, ``v^k`` or ``v^-k`` spells and how many
    times it repeats."""
    v, caret, exp_text = token.partition("^")
    # the exponent is -?\d+, and \d is every Unicode decimal digit, which is
    # what str.isdecimal() accepts
    negative = exp_text.startswith("-")
    digits = exp_text[1:] if negative else exp_text
    if not (_is_name(v) and (not caret or digits.isdecimal())):
        raise WordSyntaxError(f"malformed token {token!r}")
    if v not in g:
        raise WordSyntaxError(f"unknown generator {v!r}")
    if not caret:
        return (v, 1), 1
    # An exponent with more significant digits than the guard exceeds it;
    # checked before int(), which refuses over 4300 digits.  Any Unicode zero
    # may lead.
    magnitude = digits[next((i for i, c in enumerate(digits) if int(c)), len(digits)):] or "0"
    if len(magnitude) > len(str(MAX_LETTERS)):
        raise WordSyntaxError(f"word exceeds the {MAX_LETTERS}-letter guard")
    if magnitude == "0":
        raise WordSyntaxError(f"zero exponent in {token!r}")
    return (v, -1 if negative else 1), int(magnitude)


def parse_word(text: str, g: DefiningGraph) -> ArtinWord:
    """Parse whitespace-separated tokens ``v``, ``v^k`` or ``v^-k`` over the
    graph's vertices; exponents expand into repeated single letters.  A word
    repeats a few distinct tokens, so each is parsed once."""
    letters: list[tuple[str, int]] = []
    parsed: dict[str, tuple[tuple[str, int], int]] = {}
    for token in text.split():
        hit = parsed.get(token)
        if hit is None:
            hit = parsed[token] = _parse_token(token, g)
        letter, count = hit
        if len(letters) + count > MAX_LETTERS:
            raise WordSyntaxError(f"word exceeds the {MAX_LETTERS}-letter guard")
        if count == 1:  # most tokens; a list per token costs a third of the parse
            letters.append(letter)
        else:
            letters.extend([letter] * count)
    return ArtinWord(tuple(letters))


def abelianize(g: DefiningGraph, w: ArtinWord) -> dict[str, int]:
    """Exponent sum per generator, indexed by every vertex of the graph."""
    sums = {v: 0 for v in g.vertices}
    for v, e in w.letters:
        if v not in sums:
            raise ValueError(f"unknown generator {v!r}")
        sums[v] += e
    return sums


def is_pure(g: DefiningGraph, w: ArtinWord) -> bool:
    """True iff the word maps to the identity of the Coxeter group."""
    # imported here, so that loading words loads no field arithmetic
    from .coxeter import theta

    return theta(g, w).is_identity()
