"""Letter-by-letter retraction of Artin words onto a standard subgroup.

Processing a word v_1^(e_1) ... v_p^(e_p) over the whole graph, the map
keeps the X-reduced part w of the Coxeter image of the prefix read so far,
relative to the target subset X.  By Deodhar's lemma (Invent. Math. 39
(1977)), right-multiplying w by the next generator s either stays X-reduced
or equals s_x * w for exactly one x in X, which happens exactly when
w s w^-1 = s_x.  So the coset split of w * s strips at most one generator,
and the letter survives as x, with its original sign, exactly when the split
strips x; all other letters vanish.  Each letter costs one coset split.

The trace adds the audit: the subgroup part of each prefix image, and the
reflection w s w^-1 that the letter is tested against, built only when a
trace is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .coxeter import (
    CosetDecomposition,
    CoxeterElement,
    _mat_mul,
    coset_decompose,
    field_of,
    identity,
    simple_reflection,
)
from .graph import DefiningGraph
from .words import ArtinWord


def _conjugated_reflection(
    conjugator: CoxeterElement, refl: CoxeterElement
) -> CoxeterElement:
    # conjugates of involutions are involutions, so one matrix serves as both
    ctx = field_of(conjugator.graph)
    mat = _mat_mul(_mat_mul(conjugator.mat, refl.mat, ctx), conjugator.inv, ctx)
    return CoxeterElement(conjugator.graph, mat, mat)


@dataclass(frozen=True)
class RetractionStep:
    """Audit record for one input letter."""

    position: int                       # 0-based letter index
    vertex: str
    exponent: int
    subgroup_part: CoxeterElement       # part of the prefix image inside W_X
    reduced_part: CoxeterElement        # X-reduced part of the prefix image
    reflection: CoxeterElement          # audit only: w s w^-1, w the prior reduced part
    emitted: tuple[str, int] | None     # surviving output letter, if any


@dataclass(frozen=True)
class RetractionTrace:
    graph: DefiningGraph
    subset: tuple[str, ...]
    word: ArtinWord
    steps: tuple[RetractionStep, ...]
    output: ArtinWord

    def to_text(self) -> str:
        header = f"retraction onto {{{', '.join(self.subset)}}}"
        lines = [header, "-" * len(header)]
        lines.append(f"{'i':>3}  {'letter':<8} {'subgroup part':<20} {'reduced part':<20} {'reflection':<24} emitted")
        for s in self.steps:
            letter = s.vertex if s.exponent == 1 else f"{s.vertex}^-1"
            vp = " ".join(s.subgroup_part.reduced_word()) or "1"
            wp = " ".join(s.reduced_part.reduced_word()) or "1"
            refl = " ".join(s.reflection.reduced_word()) or "1"
            emitted = "-" if s.emitted is None else (
                s.emitted[0] if s.emitted[1] == 1 else f"{s.emitted[0]}^-1"
            )
            lines.append(f"{s.position + 1:>3}  {letter:<8} {vp:<20} {wp:<20} {refl:<24} {emitted}")
        lines.append(f"output: {self.output.to_text() or '1'}")
        return "\n".join(lines)


def _steps(
    g: DefiningGraph, subset: tuple[str, ...], word: ArtinWord
) -> Iterator[tuple[CoxeterElement, CosetDecomposition, tuple[str, int] | None]]:
    """Per letter: the reduced part before it, the coset split after it, and
    the emitted letter (the generator the split stripped, if any)."""
    w_part = identity(g)
    for vertex, exponent in word.letters:
        dec = coset_decompose(w_part * simple_reflection(g, vertex), subset)
        stripped = dec.subgroup_part.reduced_word()  # at most one letter
        yield w_part, dec, (stripped[0], exponent) if stripped else None
        w_part = dec.reduced_part


def retract(g: DefiningGraph, subset: Iterable[str], word: ArtinWord) -> ArtinWord:
    """Retract a word onto the subgroup generated by the subset.

    Words already over the subset pass through letter for letter; positivity
    and exponent signs of surviving letters are preserved.
    """
    x_set = g.subset(subset)
    for v, _ in word.letters:
        g.index(v)
    return ArtinWord(tuple(e for _, _, e in _steps(g, x_set, word) if e is not None))


def retract_trace(
    g: DefiningGraph, subset: Iterable[str], word: ArtinWord
) -> RetractionTrace:
    """Full per-letter audit whose emitted letters concatenate to the retraction."""
    x_set = g.subset(subset)
    for v, _ in word.letters:
        g.index(v)
    steps = []
    v_part = identity(g)
    for pos, ((vertex, exponent), (prev_w, dec, emitted)) in enumerate(
        zip(word.letters, _steps(g, x_set, word))
    ):
        v_part = v_part * dec.subgroup_part
        steps.append(
            RetractionStep(
                position=pos,
                vertex=vertex,
                exponent=exponent,
                subgroup_part=v_part,
                reduced_part=dec.reduced_part,
                reflection=_conjugated_reflection(prev_w, simple_reflection(g, vertex)),
                emitted=emitted,
            )
        )
    output = ArtinWord(tuple(s.emitted for s in steps if s.emitted is not None))
    return RetractionTrace(graph=g, subset=x_set, word=word, steps=tuple(steps), output=output)
