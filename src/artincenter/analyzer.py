"""Center certification for graph-defined Artin groups.

The analysis decomposes the graph into irreducible join factors and resolves
each one with a fixed rule chain:

  1. spherical factor: infinite cyclic center, explicit generator;
  2. two-dimensional factor (no spherical triple): trivial center;
  3. Euclidean factor (positive semidefinite Gram form of corank one):
     trivial center;
  4. FC-type factor (every clique spherical): trivial center;
  5. non-clique factor with no cone points: trivial center, because the
     center lies in the subgroup generated by the cone points;
  6. non-clique factor with cone points: recurse on the cone-point subgraph;
     if that analysis is complete the factor's center is trivial, otherwise
     the result records the containment of the center in the cone subgroup;
  7. non-spherical clique outside the known classes: inconclusive.

An inconclusive factor never claims the conjecture fails; it only means this
toolkit does not resolve the instance.  Every resolved factor carries a
replayable record of the predicates that justified it.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .diagram import _classify_diagram, is_affine, is_spherical
from .graph import MAX_VERTICES, DefiningGraph
from .words import ArtinWord

# Maximal cliques the FC-type test examines: the most a 21-vertex graph has
MAX_CLIQUES = 3**7

SPHERICAL = "SPHERICAL"
ESTABLISHED_TRIVIAL = "ESTABLISHED_TRIVIAL"
UNKNOWN = "UNKNOWN"

NOT_CONE = "NOT_CONE"
CONE_RECURSION = "CONE_RECURSION"
TWO_DIMENSIONAL = "TWO_DIMENSIONAL"
EUCLIDEAN = "EUCLIDEAN"
FC_TYPE = "FC_TYPE"

_RULE_STATEMENTS = {
    SPHERICAL: (
        "the factor has a finite Coxeter quotient, so its center is infinite "
        "cyclic, generated by a power of the product of its generators"
    ),
    TWO_DIMENSIONAL: (
        "no three generators span a spherical subgroup, so the factor is "
        "two-dimensional; irreducible two-dimensional Artin groups of "
        "infinite type have trivial center"
    ),
    EUCLIDEAN: (
        "the Gram form is positive semidefinite of corank one, so the factor "
        "is Euclidean; irreducible Euclidean Artin groups have trivial center"
    ),
    FC_TYPE: (
        "every clique spans a spherical subgroup, so the factor is FC-type; "
        "irreducible FC-type Artin groups of infinite type have trivial center"
    ),
    NOT_CONE: (
        "the factor is not a clique and has no cone points; the center lies "
        "in the subgroup generated by the cone points, which is trivial"
    ),
    CONE_RECURSION: (
        "the center lies in the subgroup generated by the cone points, whose "
        "analysis is complete; an irreducible non-clique factor is of "
        "infinite type, so its center is trivial"
    ),
    "UNKNOWN_CONE": (
        "the center lies in the subgroup generated by the cone points, but "
        "the analysis of that subgroup is incomplete"
    ),
    "UNKNOWN_CLIQUE": (
        "a non-spherical clique outside the supported classes; every vertex "
        "is a cone point, so the cone containment is vacuous"
    ),
}


class ReasoningStep(NamedTuple):
    factor: tuple[str, ...]
    rule: str
    statement: str
    premises: tuple[tuple[str, bool], ...]

    def to_dict(self) -> dict:
        return {
            "factor": list(self.factor),
            "rule": self.rule,
            "statement": self.statement,
            "premises": dict(self.premises),
        }


class FactorAnalysis(NamedTuple):
    graph: DefiningGraph
    kind: str                              # SPHERICAL / ESTABLISHED_TRIVIAL / UNKNOWN
    reason: str | None                     # reason tag for trivial factors
    cone_points: tuple[str, ...] | None    # containment subset for rules 5-7
    child: AnalysisReport | None           # analysis of the cone subgraph
    generator: ArtinWord | None            # center generator for spherical factors

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.graph.vertices),
            "kind": self.kind,
            "reason": self.reason,
            "cone_points": None if self.cone_points is None else list(self.cone_points),
            "generator": None if self.generator is None else self.generator.to_text(),
            "child": None if self.child is None else self.child.to_dict(),
        }


class AnalysisReport(NamedTuple):
    graph: DefiningGraph
    factors: tuple[FactorAnalysis, ...]
    established: bool
    center_rank: int
    center_generators: tuple[ArtinWord, ...]
    reasoning: tuple[ReasoningStep, ...]

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.graph.vertices),
            "established": self.established,
            "center_rank": self.center_rank,
            "center_generators": [w.to_text() for w in self.center_generators],
            "factors": [f.to_dict() for f in self.factors],
            "reasoning": [r.to_dict() for r in self.reasoning],
        }


def is_two_dimensional(g: DefiningGraph) -> bool:
    """True iff no three vertices induce a spherical subgraph.

    An infinite label makes a triple non-spherical, so only triangles of
    finite labels p, q, r count, and such a triangle is spherical exactly
    when 1/p + 1/q + 1/r > 1, that is qr + pr + pq > pqr.  The triangles
    are read off the adjacency of each vertex to the later ones.
    """
    labels = g._labels
    later: list[list[int]] = [[] for _ in g.vertices]
    for i, j, _ in g.edges:  # sorted, so each list is increasing
        later[i].append(j)
    for i, nbrs in enumerate(later):
        for a, j in enumerate(nbrs):
            p = labels[i, j]
            for k in nbrs[a + 1 :]:
                q = labels.get((j, k))
                if q is not None:
                    r = labels[i, k]
                    if q * r + p * r + p * q > p * q * r:
                        return False
    return True


def _maximal_cliques(g: DefiningGraph) -> Iterator[tuple[str, ...]]:
    """Every maximal set of pairwise adjacent vertices, each in declaration
    order.  The pivoting Bron-Kerbosch search runs in declaration order, so
    the graph alone fixes the order in which cliques come."""
    adjacent: list[set[int]] = [set() for _ in g.vertices]
    for i, j, _ in g.edges:
        adjacent[i].add(j)
        adjacent[j].add(i)

    def extend(clique, candidates, excluded):
        if not candidates and not excluded:
            yield tuple(g.vertices[i] for i in sorted(clique))
            return
        pivot = max(sorted(candidates | excluded), key=lambda u: len(candidates & adjacent[u]))
        for v in sorted(candidates - adjacent[pivot]):
            yield from extend(clique + (v,), candidates & adjacent[v], excluded & adjacent[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    return extend((), set(range(len(g.vertices))), set())


def is_fc_type(g: DefiningGraph) -> bool:
    """True iff every clique induces a spherical subgraph.

    Principal submatrices of a positive definite form are positive definite,
    so it is enough to check maximal cliques.  There can be 3^(n/3) of them
    (Moon-Moser), so the test is refused past MAX_CLIQUES.
    """
    for count, clique in enumerate(_maximal_cliques(g), start=1):
        if count > MAX_CLIQUES:
            raise ValueError(f"FC-type test exceeds the {MAX_CLIQUES}-maximal-clique guard")
        if not is_spherical(g.induced(clique)):
            return False
    return True


def spherical_center_generator(g: DefiningGraph) -> ArtinWord:
    """Central word of a spherical graph; generates the center when the graph
    is irreducible.

    With c the declaration-order product of the generators and h its order,
    the word is c^(h/2) when the longest element acts as minus the identity
    and c^h otherwise.  Both are read off the types of the Coxeter diagram's
    components: h is the lcm of their Coxeter numbers, and the longest
    element is -1 exactly when -1 lies in each component's group.  The
    matrix-order h and w0 stay in ``coxeter_number`` and ``longest_element``,
    and the tests check the types against them.
    """
    if not is_spherical(g):
        raise ValueError("center generator requires a spherical graph")
    types = _classify_diagram(g)
    h = math.lcm(*(number for _, number, _ in types))
    power = h // 2 if all(minus_one for _, _, minus_one in types) else h
    cox_word = ArtinWord(tuple((v, 1) for v in g.vertices))
    return cox_word ** power


_BASE_CLASS_RULES: tuple[tuple[str, object], ...] = (
    (TWO_DIMENSIONAL, is_two_dimensional),
    (EUCLIDEAN, is_affine),
    (FC_TYPE, is_fc_type),
)


def _resolve_factor(
    factor: DefiningGraph, base_rules: tuple[tuple[str, object], ...]
) -> tuple[FactorAnalysis, ReasoningStep]:
    premises: list[tuple[str, bool]] = []

    def verdict(rule, kind, cone=None, child=None, generator=None):
        reason = rule if kind == ESTABLISHED_TRIVIAL else None
        step = ReasoningStep(factor.vertices, rule, _RULE_STATEMENTS[rule], tuple(premises))
        return FactorAnalysis(factor, kind, reason, cone, child, generator), step

    spherical = is_spherical(factor)
    premises.append(("is_spherical", spherical))
    if spherical:
        return verdict(SPHERICAL, SPHERICAL, generator=spherical_center_generator(factor))

    for reason, predicate in base_rules:
        holds = bool(predicate(factor))
        premises.append((predicate.__name__, holds))
        if holds:
            return verdict(reason, ESTABLISHED_TRIVIAL)

    clique = factor.is_clique()
    premises.append(("is_clique", clique))
    cone = factor.cone_points()
    premises.append(("has_cone_points", bool(cone)))
    if clique:
        return verdict("UNKNOWN_CLIQUE", UNKNOWN, cone)
    if not cone:
        return verdict(NOT_CONE, ESTABLISHED_TRIVIAL, cone)

    child = establish(factor.induced(cone), _base_rules=base_rules)
    premises.append(("cone_subgraph_established", child.established))
    if child.established:
        return verdict(CONE_RECURSION, ESTABLISHED_TRIVIAL, cone, child)
    return verdict("UNKNOWN_CONE", UNKNOWN, cone, child)


def establish(
    g: DefiningGraph, _base_rules: tuple[tuple[str, object], ...] = _BASE_CLASS_RULES
) -> AnalysisReport:
    """Analyze a graph and certify its center where the rule chain applies.

    The report is established when every irreducible factor is resolved; the
    center rank is then the number of spherical factors, with one explicit
    generator word per spherical factor.  The cone recursion runs on the
    cone points, which form a clique, so it goes at most one level deep.
    """
    if len(g.vertices) > MAX_VERTICES:
        raise ValueError(f"graph has {len(g.vertices)} vertices; guard is {MAX_VERTICES}")
    verdicts = [_resolve_factor(f, _base_rules) for f in g.join_factors()]
    factors = tuple(analysis for analysis, _ in verdicts)
    generators = tuple(f.generator for f in factors if f.generator is not None)
    return AnalysisReport(
        graph=g,
        factors=factors,
        established=all(f.kind != UNKNOWN for f in factors),
        center_rank=len(generators),
        center_generators=generators,
        reasoning=tuple(step for _, step in verdicts),
    )
