import re

import pytest

from intcolor import graphio
from intcolor.generators import FamilySpec, complete_graph
from intcolor.multigraph import Decomposition, EdgeColoring, GraphError, build_graph
from intcolor.timetable import Timetable


def test_text_round_trip():
    g = build_graph(4, [(0, 1), (1, 2), (0, 1)])
    assert graphio.graph_from_text(graphio.graph_to_text(g)) == g


def test_text_rejects_bad_header():
    with pytest.raises(GraphError):
        graphio.graph_from_text("oops\n")


def test_json_round_trip_with_explicit_ids():
    g = build_graph(3, [(0, 1), (1, 2)])
    obj = graphio.graph_to_json(g)
    assert obj["edges"][0] == {"id": 0, "u": 0, "v": 1}
    assert graphio.graph_from_json(obj) == g


def test_json_accepts_plain_pairs():
    g = graphio.graph_from_json({"vertex_count": 3, "edges": [[0, 1], [1, 2]]})
    assert g.edge_count == 2


def test_coloring_round_trip():
    g = build_graph(3, [(0, 1), (1, 2)])
    c = EdgeColoring(g, (4, 5))
    assert graphio.coloring_from_json(graphio.coloring_to_json(c), g) == c


def test_decomposition_round_trip():
    g = complete_graph(3)
    d = Decomposition(g, (0, 0, 1), (1, 2, 1))
    back = graphio.decomposition_from_json(graphio.decomposition_to_json(d), g)
    assert back == d


def test_decomposition_wire_format_is_pinned():
    # K_3 edges (0,1), (0,2), (1,2): the path 1-0-2 colored 1, 2, then edge (1,2)
    d = Decomposition(complete_graph(3), (0, 0, 1), (1, 2, 1))
    assert graphio.decomposition_to_json(d) == {"part": [0, 0, 1],
                                                "certificates": [[1, 2], [1]]}


@pytest.mark.parametrize("certificates", [
    None, [[1, 2]], [[1, 2], None], [[1], [1]], [[1, 2], []],
])
def test_decomposition_json_rejects_bad_certificates(certificates):
    obj = {"part": [0, 0, 1]}
    if certificates is not None:
        obj["certificates"] = certificates
    with pytest.raises(GraphError):
        graphio.decomposition_from_json(obj, complete_graph(3))


@pytest.mark.parametrize("read,obj,bad", [
    (Timetable.from_json, [[[1.5]]], "1.5"),
    (Timetable.from_json, [[[True]]], "True"),
    (Timetable.from_json, [[["x"]]], "'x'"),
    (Timetable.from_json, 5, "5"),
    (Timetable.from_json, [[5]], "[5]"),
    (FamilySpec.from_json, 5, "5"),
    (FamilySpec.from_json, {"family": "tree", "seed": 2.5}, "2.5"),
    (lambda obj: graphio.decomposition_from_json(obj, complete_graph(3)), [1], "[1]"),
], ids=["timetable-fraction", "timetable-bool", "timetable-word", "timetable-scalar",
        "timetable-row", "spec-scalar", "spec-fraction-seed", "decomposition-list"])
def test_json_readers_name_the_malformed_value(read, obj, bad):
    with pytest.raises(GraphError, match=re.escape(bad)):
        read(obj)


def test_json_rejects_sparse_edge_ids():
    with pytest.raises(GraphError):
        graphio.graph_from_json({"vertex_count": 2, "edges": [{"id": 3, "u": 0, "v": 1}]})


def test_coloring_json_must_be_list():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(GraphError):
        graphio.coloring_from_json({"colors": [1]}, g)


def test_fractional_endpoint_is_rejected_not_truncated():
    with pytest.raises(GraphError, match="0.5"):
        graphio.graph_from_json({"vertex_count": 2, "edges": [[0.5, 1]]})
    g = graphio.graph_from_json({"vertex_count": 2.0, "edges": [[0.0, 1]]})
    assert g.vertex_count == 2 and g.edges == ((0, 1),)
    assert graphio.graph_from_text("2 1\n0 1\n").edges == ((0, 1),)


def test_a_loop_is_rejected_whatever_allows_loops_says():
    with pytest.raises(GraphError, match=r"^edge 1 is a loop \(1,1\)"):
        graphio.graph_from_json({"vertex_count": 2, "edges": [[0, 1], [1, 1]],
                                 "allows_loops": True})


@pytest.mark.parametrize("flag", ["no", "true", 1, 0, None, []])
def test_allows_loops_must_be_a_json_boolean(flag):
    with pytest.raises(GraphError, match="allows_loops"):
        graphio.graph_from_json({"vertex_count": 2, "edges": [[0, 1]], "allows_loops": flag})
