import copy
import itertools
import pickle
import random
import re

import pytest

from artincenter import graph
from artincenter.analyzer import _maximal_cliques
from artincenter.coxeter import simple_reflection
from artincenter.graph import (
    INF,
    DefiningGraph,
    GraphFormatError,
    make_graph,
    parse_graph,
)

from helpers import NAME_RE, graph_to_text, random_graph, reference_induced


def test_parse_basic():
    g = parse_graph("vertices: a b\nedge a b 3\n")
    assert g.vertices == ("a", "b")
    assert g.label("a", "b") == 3
    assert g.label("b", "a") == 3


def test_absent_edge_is_infinite():
    g = parse_graph("vertices: a b\n")
    assert g.label("a", "b") == INF


def test_explicit_inf_normalizes_to_absence():
    g = parse_graph("vertices: a b\nedge a b inf\n")
    assert g.label("a", "b") == INF
    assert g.edges == ()
    assert graph_to_text(g) == graph_to_text(parse_graph("vertices: a b\n"))


def test_comments_and_blank_lines():
    g = parse_graph("# header\n\nvertices: a b c  # trailing\nedge a b 2\n# done\n")
    assert g.label("a", "b") == 2


# each malformed file and the start of its one-line error
PARSE_ERRORS = {
    "vertices: a\nedge a a 3\n": "self-loop on 'a'",
    "vertices: a a\n": "line 1: duplicate vertex",
    "vertices: a b\nedge a q 3\n": "unknown vertex 'q' in edge",
    "vertices: a b\nedge a b 1\n": "line 2: label 1 < 2",
    "vertices: a b\nedge a b 3\nedge a b 4\n": "conflicting labels for edge (a, b)",
    "edge a b 3\n": "line 1: expected 'vertices:' declaration first",
    "vertices: a b\nedge a b x\n": "line 2: label 'x' is not an integer or 'inf'",
    "vertices: a b\nedge a b\n": "line 2: expected 'edge u v m'",
    "vertices: a 1b\n": "line 1: invalid vertex name",
    "# comments only\n\n# no declaration\n": "missing 'vertices:' line",
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_errors(text):
    with pytest.raises(GraphFormatError, match=re.escape(PARSE_ERRORS[text])):
        parse_graph(text)


@pytest.mark.parametrize(
    "edges",
    [
        [("a", "b", INF), ("a", "b", 3)],
        [("a", "b", 3), ("b", "a", INF)],
        [("a", "b", 3), ("b", "a", 4)],
    ],
)
def test_make_graph_rejects_conflicting_labels(edges):
    with pytest.raises(GraphFormatError, match=r"conflicting labels for edge \("):
        make_graph(["a", "b"], edges)
    assert make_graph(["a", "b"], [("a", "b", INF), ("b", "a", INF)]).label("a", "b") == INF


def test_duplicate_identical_edge_is_idempotent():
    g = parse_graph("vertices: a b\nedge a b 3\nedge a b 3\n")
    assert g.label("a", "b") == 3
    text = (
        "vertices: v0 v1 v2 v3 v4\n"
        "edge v0 v2 5\nedge v0 v3 3\nedge v0 v4 2\nedge v1 v2 5\nedge v1 v3 2\n"
        "edge v1 v4 5\nedge v2 v3 5\nedge v2 v4 6\nedge v3 v4 2\n"
    )
    once = parse_graph(text)
    twice = parse_graph(text + "edge v0 v2 5\n")
    assert twice == once and hash(twice) == hash(once)
    # a repeated line is not a second neighbour: v0 is not adjacent to v1
    assert twice.cone_points() == once.cone_points() == ("v2", "v3", "v4")


def test_serialize_round_trip():
    text = "vertices: c a b\nedge a b 3\nedge c a 5\n"
    g = parse_graph(text)
    once = graph_to_text(g)
    again = graph_to_text(parse_graph(once))
    assert once == again
    assert once.splitlines()[0] == "vertices: c a b"


def test_every_data_graph_round_trips_through_text(data_dir):
    for path in sorted(data_dir.glob("*.graph")):
        g = parse_graph(path.read_text())
        assert parse_graph(graph_to_text(g)) == g, path.name


@pytest.mark.parametrize("name", ["a\n", "a\r", "\na", "a b", ""])
def test_vertex_names_are_matched_whole(name):
    # "$" alone would also match before a trailing newline, and to_text would
    # then write a file that parse_graph rejects
    with pytest.raises(GraphFormatError, match="invalid vertex name"):
        DefiningGraph((name, "q"), ((0, 1, 3),))
    with pytest.raises(GraphFormatError, match="invalid vertex name"):
        make_graph([name, "q"], [(name, "q", 3)])


# ASCII near misses and non-ASCII letters and digits, which isalnum() and
# isidentifier() accept but the grammar does not
NAME_CHARS = "ab_Z09$-^." + "\u00e9\u0131\u212a\u00df\u0660\u00b2\uff10\u4e00"


def test_vertex_names_match_the_regex_oracle():
    # every character alone, then fuzzed names, each through both
    # constructors and the file parser
    rng = random.Random(20)
    names = [chr(c) for c in range(0x110000)]
    names += ["".join(rng.choices(NAME_CHARS, k=rng.randint(0, 6))) for _ in range(20000)]
    for name in names:
        assert graph._is_name(name) == bool(NAME_RE.fullmatch(name)), repr(name)
    for name in names[0x110000 :: 10] + [chr(c) for c in range(256) if chr(c) != "q"]:
        valid = bool(NAME_RE.fullmatch(name))
        for build in (
            lambda: DefiningGraph((name, "q"), ((0, 1, 3),)),
            lambda: make_graph([name, "q"], [(name, "q", 3)]),
        ):
            try:
                build()
                assert valid, repr(name)
            except GraphFormatError as exc:
                assert not valid and str(exc) == f"invalid vertex name {name!r}", repr(name)
        if name.split() == [name] and "#" not in name:  # no blank, no comment
            try:
                parse_graph(f"vertices: {name} q\nedge {name} q 3\n")
                assert valid, repr(name)
            except GraphFormatError as exc:
                assert not valid and str(exc) == "line 1: invalid vertex name", repr(name)


def test_cone_points():
    path = make_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 3)])
    assert path.cone_points() == ("b",)
    triangle = make_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 4), ("a", "c", 5)])
    assert triangle.cone_points() == ("a", "b", "c")
    isolated = make_graph(["a", "b"], [])
    assert isolated.cone_points() == ()


def test_join_factors_examples():
    k4 = make_graph(
        "abcd", [(u, v, 2) for u, v in [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]]
    )
    assert [f.vertices for f in k4.join_factors()] == [("a",), ("b",), ("c",), ("d",)]

    edge = make_graph(["a", "b"], [("a", "b", 3)])
    assert [f.vertices for f in edge.join_factors()] == [("a", "b")]

    joined = make_graph(["a", "b", "c"], [("a", "b", 3), ("a", "c", 2), ("b", "c", 2)])
    assert [f.vertices for f in joined.join_factors()] == [("a", "b"), ("c",)]


def test_join_factors_properties_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(0, 7)
        verts = list("abcdefg"[:n])
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                m = rng.choice((2, 2, 3, 5, INF))
                if m != INF:
                    edges.append((verts[i], verts[j], m))
        g = make_graph(verts, edges)
        factors = g.join_factors()
        # partition of the vertex set
        combined = [v for f in factors for v in f.vertices]
        assert sorted(combined) == sorted(g.vertices)
        # maximality: factors do not decompose further
        for f in factors:
            assert [x.vertices for x in f.join_factors()] == [f.vertices]
        # cross-factor labels are exactly 2
        for fi in range(len(factors)):
            for fj in range(fi + 1, len(factors)):
                for u in factors[fi].vertices:
                    for v in factors[fj].vertices:
                        assert g.label(u, v) == 2


def test_induced():
    path = make_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 3)])
    sub = path.induced(["a", "c"])
    assert sub.vertices == ("a", "c")
    assert sub.label("a", "c") == INF
    assert path.induced(path.vertices) == path
    assert path.induced([]).vertices == ()
    with pytest.raises(ValueError):
        path.induced(["a", "z"])


def test_induced_matches_the_edge_scan_oracle():
    # induced reads the subset's own pairs and skips validation; every stored
    # table must still be what the constructor builds from the scanned edges
    rng = random.Random(61)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(0, 9), (2, 3, 4, 5, 7, INF))
        names = [v for v in g.vertices if rng.random() < 0.6] * rng.randrange(1, 3)
        rng.shuffle(names)
        sub, ref = g.induced(names), reference_induced(g, names)
        assert (sub.vertices, sub.edges, sub._index, sub._labels) == (
            ref.vertices, ref.edges, ref._index, ref._labels)
        assert sub == ref and hash(sub) == hash(ref) and repr(sub) == repr(ref)
        assert pickle.loads(pickle.dumps(sub)) == sub


def test_induced_preserves_declaration_order():
    g = make_graph(["c", "a", "b"], [("c", "a", 3)])
    assert g.induced(["a", "b", "c"]).vertices == ("c", "a", "b")


def test_is_clique():
    assert make_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 4), ("a", "c", 5)]).is_clique()
    assert not make_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 3)]).is_clique()
    assert make_graph(["a"], []).is_clique()
    # every vertex of a clique is a cone point
    tri = make_graph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2), ("a", "c", 2)])
    assert tri.cone_points() == tri.vertices


def test_maximal_cliques_match_subset_search():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randrange(0, 8)
        verts = list("abcdefgh"[:n])
        g = make_graph(
            verts,
            [(u, v, 2) for k, u in enumerate(verts) for v in verts[k + 1 :] if rng.random() < 0.6],
        )
        cliques = [
            c
            for size in range(n + 1)
            for c in itertools.combinations(verts, size)
            if g.induced(c).is_clique()
        ]
        maximal = {c for c in cliques if not any(set(c) < set(d) for d in cliques)}
        found = list(_maximal_cliques(g))
        assert len(found) == len(set(found)) and set(found) == maximal


def test_maximal_cliques_come_in_a_fixed_order():
    # the order the search gave as DefiningGraph.maximal_cliques, before it
    # moved into the analyzer
    g = make_graph(
        list("abcdef"),
        [("a", "b", 2), ("a", "c", 3), ("b", "c", 2), ("c", "d", 2), ("d", "e", 3),
         ("e", "f", 2), ("d", "f", 2), ("b", "e", 2), ("a", "f", 3)],
    )
    assert list(_maximal_cliques(g)) == [
        ("a", "b", "c"), ("a", "f"), ("c", "d"), ("d", "e", "f"), ("b", "e")
    ]


def test_amalgam_split():
    path = make_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 3)])
    left, base, right = path.amalgam_split("a", "c")
    assert left.vertices == ("b", "c")
    assert base.vertices == ("b",)
    assert right.vertices == ("a", "b")

    two = make_graph(["a", "b"], [])
    left, base, right = two.amalgam_split("a", "b")
    assert left.vertices == ("b",)
    assert base.vertices == ()
    assert right.vertices == ("a",)

    tri = make_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 4), ("a", "c", 5)])
    with pytest.raises(ValueError):
        tri.amalgam_split("a", "b")


def test_edge_order_does_not_matter():
    edges = [("a", "b", 3), ("b", "c", 4), ("a", "c", 2)]
    g = make_graph("abc", edges)
    h = make_graph("abc", edges[::-1])
    assert g == h and hash(g) == hash(h)
    # elements built from either are elements of one Coxeter group
    product = simple_reflection(g, "a") * simple_reflection(h, "b")
    assert product.reduced_word() == ("a", "b")


def test_graph_is_hashable_and_immutable():
    g = make_graph(["a", "b"], [("a", "b", 3)])
    # rebuilt, pickled and copied graphs are the same value, with working lookups
    for h in (
        make_graph(["a", "b"], [("a", "b", 3)]),
        pickle.loads(pickle.dumps(g)),
        copy.deepcopy(g),
        copy.copy(g),
    ):
        assert g == h and hash(g) == hash(h)
        assert {g, h} == {g}
        assert h.label("b", "a") == 3 and "a" in h
    assert g != make_graph(["a", "b"], [("a", "b", 4)])
    assert g != (g.vertices, g.edges)
    for name in ("vertices", "edges", "_index", "_labels", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, ())
    with pytest.raises(AttributeError):
        del g.vertices
    assert repr(g) == "DefiningGraph(vertices=('a', 'b'), edges=((0, 1, 3),))"
