"""Letter-by-letter retraction of Artin words onto a standard subgroup.

Processing a word v_1^(e_1) ... v_p^(e_p) over the whole graph, the map
keeps the X-reduced part w of the Coxeter image of the prefix read so far,
relative to the target subset X.  By Deodhar's lemma (Invent. Math. 39
(1977)), right-multiplying w by the next generator s either stays X-reduced
or equals s_x * w for exactly one x in X, which happens exactly when
w s w^-1 = s_x, that is when w maps the simple root of s onto the line of
that of x (a reflection is fixed by the line of its root; the Cartan
realization need not keep root lengths, so the multiple may differ from 1).
So the letter survives as x, with its original sign, exactly when column s
of w's matrix has a single nonzero entry and it lies in the row of some x
in X, and w is then unchanged; otherwise the letter vanishes and w becomes
w * s, one generator update.  Plain retraction keeps w's own matrix, which
the kernel's elements do not hold (they hold their inverses), and needs no
coset split and no sign, so it loads only the Cartan realization
(``cartan``): neither the group elements (``coxeter``) nor the diagram
classification.

The trace, built only when asked for, reads each letter off the coset split
of w * s instead, whose subgroup part is s_x or the identity by the same
lemma, and records the subgroup part of each prefix image and the reflection
w s w^-1, so it checks the column test rather than repeating it.  Beside
the element w it keeps w's own matrix as plain retraction does, updated
when a letter vanishes, for the reflection w * (w * s)^-1.  The trace
imports ``coxeter`` when it runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .cartan import Matrix, _identity_matrix, _neighbours, _times_generator, field_of
from .graph import DefiningGraph
from .words import ArtinWord

if TYPE_CHECKING:
    from .coxeter import CoxeterElement


def _conjugated_reflection(w_mat: Matrix, ws: CoxeterElement) -> CoxeterElement:
    # w s w^-1 = w * (w * s)^-1, from w's own matrix and the element w * s,
    # which holds its inverse; a conjugate of an involution is an involution,
    # so the product is also the matrix of its inverse
    from .coxeter import CoxeterElement, _mat_mul

    return CoxeterElement(ws.graph, _mat_mul(w_mat, ws.inv, field_of(ws.graph)))


class RetractionStep(NamedTuple):
    """Audit record for one input letter."""

    position: int                       # 0-based letter index
    vertex: str
    exponent: int
    subgroup_part: CoxeterElement       # part of the prefix image inside W_X
    reduced_part: CoxeterElement        # X-reduced part of the prefix image
    reflection: CoxeterElement          # audit only: w s w^-1, w the prior reduced part
    emitted: tuple[str, int] | None     # surviving output letter, if any


class RetractionTrace(NamedTuple):
    steps: tuple[RetractionStep, ...]
    output: ArtinWord

    def to_dict(self) -> dict:
        """The output and the audit, each element as its reduced word."""
        return {
            "output": self.output.to_text(),
            "trace": [
                {
                    "position": s.position,
                    "letter": [s.vertex, s.exponent],
                    "subgroup_part": list(s.subgroup_part.reduced_word()),
                    "reduced_part": list(s.reduced_part.reduced_word()),
                    "reflection": list(s.reflection.reduced_word()),
                    "emitted": list(s.emitted) if s.emitted else None,
                }
                for s in self.steps
            ],
        }


def _survivor(mat: Matrix, s: int, targets: dict[int, str]) -> str | None:
    """The column test: the x with w(alpha_s) on the line of alpha_x, read
    from column s of the reduced part's matrix w, when x is a target vertex;
    otherwise None."""
    found = None
    for r, row in enumerate(mat):
        if row[s]:
            if found is not None or r not in targets:
                return None
            found = targets[r]
    return found


def retract(g: DefiningGraph, subset: Iterable[str], word: ArtinWord) -> ArtinWord:
    """Retract a word onto the subgroup generated by the subset.

    Words already over the subset pass through letter for letter; positivity
    and exponent signs of surviving letters are preserved.
    """
    letters = [(g.index(v), e) for v, e in word.letters]
    targets = {g.index(x): x for x in g.subset(subset)}
    neighbours = _neighbours(g)
    w = _identity_matrix(field_of(g), len(g.vertices))  # w's own matrix
    out = []
    for s, exponent in letters:
        x = _survivor(w, s, targets)
        if x is None:
            w = _times_generator(w, s, neighbours[s])
        else:
            out.append((x, exponent))
    return ArtinWord(tuple(out))


def retract_trace(
    g: DefiningGraph, subset: Iterable[str], word: ArtinWord
) -> RetractionTrace:
    """Full per-letter audit whose emitted letters concatenate to the retraction."""
    from .coxeter import coset_decompose, identity

    x_set = g.subset(subset)
    neighbours = _neighbours(g)
    steps = []
    w_part = v_part = identity(g)
    w_mat = w_part.inv  # w's own matrix, the identity's to start
    for pos, (vertex, exponent) in enumerate(word.letters):
        ws = w_part.times_generator(vertex)
        dec = coset_decompose(ws, x_set)
        reflection = _conjugated_reflection(w_mat, ws)
        emitted = dec.subgroup_part.reduced_word()  # () or (x,), by Deodhar
        if emitted:
            # w * s = s_x * w, so the split's reduced part is w itself;
            # keeping w's object keeps its cached reduced word
            v_part = v_part.times_generator(emitted[0])
        else:
            w_part = dec.reduced_part
            s = g.index(vertex)
            w_mat = _times_generator(w_mat, s, neighbours[s])
        steps.append(
            RetractionStep(
                position=pos,
                vertex=vertex,
                exponent=exponent,
                subgroup_part=v_part,
                reduced_part=w_part,
                reflection=reflection,
                emitted=(emitted[0], exponent) if emitted else None,
            )
        )
    output = ArtinWord(tuple(s.emitted for s in steps if s.emitted is not None))
    return RetractionTrace(steps=tuple(steps), output=output)
