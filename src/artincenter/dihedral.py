"""Normal forms and exact equality in rank-2 Artin groups.

For a finite label m the group is spherical and carries a Garside structure:
every element is uniquely delta^k f_1 ... f_p where delta is the alternating
product of m letters starting with the first generator, each factor f_i is a
proper alternating word (length strictly between 0 and m), and adjacent
factors are left weighted.  Normal forms decide equality completely.  For an
infinite label the group is free of rank 2 and free reduction decides
equality.

In rank 2, f_i is left weighted before f_(i+1) exactly when f_(i+1) starts
with the letter f_i ends with.  So the normal form is delta^k followed by a
positive word whose maximal alternating runs are all shorter than m, and its
factors are exactly those runs, stored as (first_letter_index, length)
pairs.  One left-to-right pass builds it.  A positive letter extends the
last run or starts a new one.  A run that reaches m letters is delta: it
moves to the front, raising k by one and conjugating the runs before it by
delta, and its letters past the m-th are appended again.  An inverse letter
c^-1 is delta^-1 times the m-1 alternating letters that end with the other
generator, which are appended as one block.  Each delta taken out removes a
run, so the pass costs O(1) per letter amortized, whatever m is.
Conjugation by delta swaps the generators for odd m and fixes them for even
m, so it is kept as one twist bit: a run's stored first letter xor the
current twist is its true first letter.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .words import ArtinWord

# A simple element: (start, k), the alternating word of k letters beginning
# with the generator indexed by start in {0, 1}.  Factors have 1 <= k < m.
Simple = tuple[int, int]


def _validate(m, gens, word: ArtinWord | None = None) -> None:
    if not (isinstance(m, int) and m >= 2):
        raise ValueError(f"label {m!r} must be a finite integer >= 2")
    if len(gens) != 2 or gens[0] == gens[1]:
        raise ValueError("need two distinct generators")
    if word is not None and not word.support() <= set(gens):
        raise ValueError(f"word uses letters outside {gens}")


def _normalize_factors(
    letters: Iterable[tuple[int, int]], m: int
) -> tuple[int, tuple[Simple, ...]]:
    """The normal form of (generator index, exponent) letters, in one pass:
    the delta power and the maximal alternating runs after it."""
    swap = m % 2  # conjugation by delta swaps the generators for odd m
    power = twist = 0
    runs: list[Simple] = []  # (first letter xor twist, length)
    for c, e in letters:
        if e == 1:
            a, n = c, 1
        else:  # c^-1 = delta^-1 * (the m-1 alternating letters ending with 1-c)
            power -= 1
            twist ^= swap
            a, n = c ^ 1 ^ swap, m - 1
        # append the block of n alternating letters from a
        a ^= twist
        while n and runs and a == runs[-1][0] ^ runs[-1][1] % 2:  # it continues the last run
            a, k = runs.pop()
            n += k
            if n >= m:  # the first m letters are delta; the rest start with a again
                n -= m
                power += 1
                twist ^= swap
        if n:
            runs.append((a, n))
    return power, tuple((a ^ twist, k) for a, k in runs)


class GarsideNormalForm(NamedTuple):
    """delta^delta_power followed by left-weighted proper simple factors."""

    m: int
    gens: tuple[str, str]
    delta_power: int
    factors: tuple[Simple, ...]

    def __repr__(self):
        names = ["".join(self.gens[(s + i) % 2] for i in range(k)) for s, k in self.factors]
        return f"GarsideNormalForm(delta^{self.delta_power}; {' . '.join(names) or '1'})"


def garside_nf(m: int, word: ArtinWord, gens: tuple[str, str] = ("s", "t")) -> GarsideNormalForm:
    """Left greedy normal form of a word in the rank-2 Artin group, built in
    one pass over its letters."""
    _validate(m, gens, word)
    idx = {gens[0]: 0, gens[1]: 1}
    power, factors = _normalize_factors(((idx[v], e) for v, e in word.letters), m)
    return GarsideNormalForm(m, tuple(gens), power, factors)


def free_reduce(word: ArtinWord) -> ArtinWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[tuple[str, int]] = []
    for v, e in word.letters:
        if stack and stack[-1] == (v, -e):
            stack.pop()
        else:
            stack.append((v, e))
    return ArtinWord(tuple(stack))


def dihedral_equal(
    m: int | float, a: ArtinWord, b: ArtinWord, gens: tuple[str, str] = ("s", "t")
) -> bool:
    """Exact equality of two words in the rank-2 Artin group with label m."""
    if m == math.inf:
        for w in (a, b):
            if not w.support() <= set(gens):
                raise ValueError(f"word uses letters outside {gens}")
        return free_reduce(a) == free_reduce(b)
    return garside_nf(m, a, gens) == garside_nf(m, b, gens)
