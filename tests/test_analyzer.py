import itertools
import random

import pytest

from artincenter.analyzer import (
    CONE_RECURSION,
    ESTABLISHED_TRIVIAL,
    MAX_CLIQUES,
    SPHERICAL,
    UNKNOWN,
    _BASE_CLASS_RULES,
    _maximal_cliques,
    establish,
    is_fc_type,
    is_two_dimensional,
    spherical_center_generator,
)
from artincenter.coxeter import is_affine, is_spherical
from artincenter.dihedral import dihedral_equal
from artincenter.graph import INF, MAX_VERTICES, make_graph, parse_graph
from artincenter.scalar import _context_for
from artincenter.text import _render_analysis

from helpers import (
    all_graphs,
    dihedral_center_generator,
    diagram_graph,
    fc_by_subsets,
    layered_fc_graph_text,
    named_diagrams,
    random_cone_free_graph,
    random_graph,
    random_single_cone_graph,
    small_graphs,
    two_dimensional_by_triples,
)

CONE_FIXTURE = make_graph(
    ["t", "a", "b", "c"],
    [("t", "a", 3), ("t", "b", 3), ("t", "c", 2), ("a", "b", 3), ("b", "c", 3)],
)
UNKNOWN_CLIQUE = make_graph(
    ["a", "b", "c", "d"],
    [("a", "b", 4), ("b", "c", 3), ("a", "c", 2),
     ("a", "d", 4), ("b", "d", 4), ("c", "d", 4)],
)


def test_is_two_dimensional():
    tri333 = make_graph("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    assert is_two_dimensional(tri333)
    # a graph containing a spherical triple is not two-dimensional
    a3 = make_graph("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 2)])
    assert not is_two_dimensional(a3)
    # vacuous below three vertices
    assert is_two_dimensional(make_graph(["a", "b"], [("a", "b", 7)]))
    assert is_two_dimensional(make_graph([], []))


def test_is_two_dimensional_matches_triple_oracle():
    # every graph on at most 4 vertices, then seeded graphs on up to 10
    labels = (2, 3, 4, 5, 6, INF)
    for n in range(5):
        for g in all_graphs(n, labels):
            assert is_two_dimensional(g) == two_dimensional_by_triples(g), g
    # label pools from dense spherical triangles to sparse hyperbolic ones,
    # so that both answers occur often
    pools = (labels + (7, 8, 12), (3, 4, 5, 6, INF), (2, 3, INF, INF, INF), (3, 4, 7, INF))
    rng = random.Random(14)
    for _ in range(400):
        g = random_graph(rng, rng.randrange(5, 11), rng.choice(pools))
        assert is_two_dimensional(g) == two_dimensional_by_triples(g), g


def test_is_fc_type():
    raag = make_graph("abcd", [("a", "b", 2), ("b", "c", 2)])
    assert is_fc_type(raag)
    tri333 = make_graph("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    assert not is_fc_type(tri333)
    assert is_fc_type(make_graph("abc", []))


def test_is_fc_type_matches_subset_oracle():
    for g in small_graphs():
        assert is_fc_type(g) == fc_by_subsets(g), g


def test_spherical_center_generator_examples():
    g1 = make_graph(["s"], [])
    assert spherical_center_generator(g1).to_text() == "s"
    for m in range(2, 9):
        g = make_graph(["s", "t"], [("s", "t", m)])
        z = spherical_center_generator(g)
        expected_reps = m // 2 if m % 2 == 0 else m
        assert len(z) == 2 * expected_reps
        assert dihedral_equal(m, z, dihedral_center_generator(m))
    with pytest.raises(ValueError):
        spherical_center_generator(make_graph(["s", "t"], []))


def test_center_generator_supports_whole_factor():
    g = make_graph("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 2)])
    z = spherical_center_generator(g)
    assert z.support() == set(g.vertices)


def test_establish_single_vertex():
    report = establish(make_graph(["s"], []))
    assert report.established
    assert report.center_rank == 1
    assert report.center_generators[0].to_text() == "s"
    assert report.factors[0].kind == SPHERICAL


def test_establish_raag_path():
    g = make_graph("abc", [("a", "b", 2), ("b", "c", 2)])
    report = establish(g)
    assert report.established and report.center_rank == 1
    kinds = {f.graph.vertices: f.kind for f in report.factors}
    assert kinds[("b",)] == SPHERICAL
    assert kinds[("a", "c")] == ESTABLISHED_TRIVIAL


def test_establish_two_vertex_consistency_with_dihedral():
    for m in list(range(2, 9)) + [INF]:
        g = make_graph(["s", "t"], [] if m == INF else [("s", "t", m)])
        report = establish(g)
        assert report.established
        if m == INF:
            assert report.center_rank == 0
        elif m == 2:
            assert report.center_rank == 2  # two spherical factors
        else:
            assert report.center_rank == 1
            assert dihedral_equal(m, report.center_generators[0], dihedral_center_generator(m))


def test_establish_cone_recursion_fixture():
    report = establish(CONE_FIXTURE)
    assert report.established and report.center_rank == 0
    factor = report.factors[0]
    assert factor.kind == ESTABLISHED_TRIVIAL
    assert factor.reason == CONE_RECURSION
    assert factor.cone_points == ("t", "b")
    assert factor.child is not None and factor.child.established
    assert factor.child.center_rank == 1


def test_establish_unknown_clique():
    report = establish(UNKNOWN_CLIQUE)
    assert not report.established
    factor = report.factors[0]
    assert factor.kind == UNKNOWN
    assert factor.cone_points == UNKNOWN_CLIQUE.vertices  # vacuous containment
    assert factor.child is None
    assert report.center_rank == 0


def test_unknown_cone_attaches_child_report():
    # cone subgraph is itself the unresolved clique, wrapped in a larger
    # non-clique factor: every vertex of the clique stays a cone point and the
    # two extra vertices are prevented from being cone points.
    g = make_graph(
        ["a", "b", "c", "d", "x", "y"],
        [("a", "b", 4), ("b", "c", 3), ("a", "c", 2),
         ("a", "d", 4), ("b", "d", 4), ("c", "d", 4)]
        + [(u, v, 3) for u in "abcd" for v in ("x", "y")],
    )
    assert g.cone_points() == ("a", "b", "c", "d")
    report = establish(g)
    assert not report.established
    factor = report.factors[0]
    assert factor.kind == UNKNOWN
    assert factor.cone_points == ("a", "b", "c", "d")
    assert factor.child is not None and not factor.child.established


def test_empty_graph():
    report = establish(make_graph([], []))
    assert report.established and report.center_rank == 0 and report.factors == ()


def test_max_vertices_guard():
    # isolated vertices, every label infinite: one two-dimensional factor
    g = make_graph([f"v{i}" for i in range(MAX_VERTICES)], [])
    assert [f.reason for f in establish(g).factors] == ["TWO_DIMENSIONAL"]
    g = make_graph([f"v{i}" for i in range(MAX_VERTICES + 1)], [])
    with pytest.raises(ValueError, match=f"graph has {MAX_VERTICES + 1} vertices; guard is {MAX_VERTICES}$"):
        establish(g)


def test_fc_type_clique_budget():
    # 3^k maximal cliques on 3k vertices: 7 layers meet the budget, 8 pass it
    assert MAX_CLIQUES == 3**7
    small = parse_graph(layered_fc_graph_text(3))
    assert is_fc_type(small) and fc_by_subsets(small)
    g = parse_graph(layered_fc_graph_text(7))
    assert sum(1 for _ in _maximal_cliques(g)) == MAX_CLIQUES
    assert [f.reason for f in establish(g).factors] == ["FC_TYPE"]
    g = parse_graph(layered_fc_graph_text(8))
    assert not is_two_dimensional(g) and not is_affine(g)
    with pytest.raises(ValueError, match="FC-type test exceeds the 2187-maximal-clique guard$"):
        establish(g)


def test_raag_center_formula():
    rng = random.Random(97)
    for _ in range(60):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, labels=(2, INF))
        report = establish(g)
        assert report.established, g
        expected = sum(
            1
            for v in g.vertices
            if all(g.label(v, u) == 2 for u in g.vertices if u != v)
        )
        assert report.center_rank == expected, g
        for z in report.center_generators:
            assert len(z) == 1  # spherical RAAG factors are single vertices


def test_single_cone_point_corollary():
    rng = random.Random(101)
    for _ in range(25):
        g = random_single_cone_graph(rng, rng.randrange(3, 7))
        cone = g.cone_points()[0]
        report = establish(g)
        assert report.established, g
        all_two = all(g.label(cone, v) == 2 for v in g.vertices if v != cone)
        assert (report.center_rank == 0) == (not all_two), g


def test_cone_free_corollary():
    rng = random.Random(103)
    for _ in range(25):
        g = random_cone_free_graph(rng, rng.randrange(2, 7))
        report = establish(g)
        assert report.established, g
        assert report.center_rank == 0, g


def test_rule_order_never_changes_establishment():
    fixtures = [
        CONE_FIXTURE,
        UNKNOWN_CLIQUE,
        make_graph("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]),
        make_graph("abc", [("a", "b", 2), ("b", "c", 2)]),
        make_graph(["s", "t"], []),
        make_graph("abcd", [("a", "b", 2), ("c", "d", 3)]),
    ]
    for g in fixtures:
        baseline = establish(g)
        for order in itertools.permutations(_BASE_CLASS_RULES):
            report = establish(g, _base_rules=tuple(order))
            assert report.established == baseline.established
            assert report.center_rank == baseline.center_rank
            assert [f.kind for f in report.factors] == [f.kind for f in baseline.factors]


def test_reasoning_chain_is_replayable():
    predicates = {
        "is_spherical": is_spherical,
        "is_two_dimensional": is_two_dimensional,
        "is_affine": is_affine,
        "is_fc_type": is_fc_type,
        "is_clique": lambda g: g.is_clique(),
        "has_cone_points": lambda g: bool(g.cone_points()),
    }

    def check(report):
        factor_lookup = {f.graph.vertices: f.graph for f in report.factors}
        for step in report.reasoning:
            g = factor_lookup[step.factor]
            for name, claimed in step.premises:
                if name in predicates:
                    assert predicates[name](g) == claimed, (step.rule, name)
        for f in report.factors:
            if f.child is not None:
                check(f.child)

    for g in (CONE_FIXTURE, UNKNOWN_CLIQUE, make_graph("abc", [("a", "b", 2), ("b", "c", 2)])):
        check(establish(g))


def test_report_serialization():
    report = establish(CONE_FIXTURE)
    payload = report.to_dict()
    assert payload["established"] is True
    assert payload["center_rank"] == 0
    assert payload["factors"][0]["reason"] == CONE_RECURSION
    assert payload["factors"][0]["child"]["established"] is True
    text = _render_analysis(payload)
    assert "CONE_RECURSION" in text and "ESTABLISHED" in text


def test_establish_builds_no_cyclotomic_field():
    rng = random.Random(23)
    corpus = [diagram_graph(n, d, rng) for n, d, *_ in named_diagrams(8).values()]
    corpus += [random_graph(rng, rng.randrange(2, 7), (2, 3, 4, 5, 6, INF)) for _ in range(40)]
    corpus += [random_single_cone_graph(rng, rng.randrange(3, 7)) for _ in range(10)]
    corpus += [random_cone_free_graph(rng, rng.randrange(2, 7)) for _ in range(10)]
    corpus += [make_graph("abc", [("a", "b", 101), ("b", "c", 103), ("a", "c", 2)]), UNKNOWN_CLIQUE]
    _context_for.cache_clear()
    kinds = set()
    for g in corpus:
        kinds.update(f.reason or f.kind for f in establish(g).factors)
    assert _context_for.cache_info().currsize == 0
    assert {SPHERICAL, "TWO_DIMENSIONAL", "EUCLIDEAN", "FC_TYPE", UNKNOWN} <= kinds
