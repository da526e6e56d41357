import pathlib

from artincenter.cartan import _cartan, _neighbours, field_of
from artincenter.diagram import _diagram
from artincenter.graph import INF, parse_graph

from helpers import all_graphs

DATA = pathlib.Path(__file__).parent / "data"


def _check_neighbour_table(g):
    # _neighbours reads the graph's labels itself; diagram's adjacency is the
    # oracle for which vertices each row lists, and _cartan gives each
    # coefficient with its unit flag
    ring = field_of(g)
    table = _neighbours.__wrapped__(g)
    diagram = _diagram(g)
    assert len(table) == len(diagram) == len(g.vertices)
    for s, (row, nbrs) in enumerate(zip(table, diagram)):
        assert [c for c, _k, _unit in row] == sorted(nbrs), (g, s)
        for c, k, unit in row:
            expected = _cartan(nbrs[c], s < c, ring)
            assert k == expected and type(k) is type(expected), (g, s, c)
            assert unit == (expected == 1), (g, s, c)


def test_neighbour_table_matches_the_diagram_on_small_graphs():
    # every graph on at most 4 vertices with labels 2..6 and inf: label-2
    # pairs are left out, infinity (an absent edge) is kept
    for n in range(5):
        for g in all_graphs(n, (2, 3, 4, 5, 6, INF)):
            _check_neighbour_table(g)


def test_neighbour_table_matches_the_diagram_on_data_graphs():
    graphs = sorted(DATA.glob("*.graph"))
    assert graphs
    for path in graphs:
        _check_neighbour_table(parse_graph(path.read_text()))
