import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from intcolor import graphio
from intcolor.generators import FamilySpec, complete_graph
from intcolor.multigraph import Decomposition, EdgeColoring, GraphError, build_graph
from intcolor.timetable import Timetable

from reference_checkers import reference_graph_from_json


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


_MISSING = object()
# values that are not a plain int: each must take the checked path
_ODD_VALUES = [True, False, 1.0, 0.5, "1", "x", -1, None, [0], sys.maxsize + 1]


@st.composite
def _graph_json(draw):
    """Graph JSON as graph_to_json writes it, or broken in one or more ways:
    list edges, missing, shuffled, duplicate or non-int ids, missing ends, ends
    and counts that are bool, float, string, negative or beyond an index."""
    # each aspect broken on about one draw in four, independently
    broken = {aspect for aspect in ("ends", "ids", "edges", "count", "flag")
              if draw(st.integers(0, 3)) == 3}

    def value(ints):
        if "ends" in broken and not draw(st.integers(0, 3)):
            return draw(st.sampled_from(_ODD_VALUES))
        return draw(ints)

    m = draw(st.integers(0, 6))
    ids: list = list(range(m))
    id_kind = draw(st.sampled_from(["missing", "shuffled", "duplicate", "odd"])) \
        if "ids" in broken else "dense"
    if id_kind == "shuffled":
        ids = draw(st.permutations(ids))
    elif m and id_kind == "duplicate":
        ids[draw(st.integers(0, m - 1))] = ids[draw(st.integers(0, m - 1))]
    elif m and id_kind == "odd":
        ids[draw(st.integers(0, m - 1))] = draw(st.sampled_from(_ODD_VALUES))
    shape = draw(st.sampled_from(["dict", "dict", "list", "mixed"]))
    edges: list = []
    for i in range(m):
        u, v = value(st.integers(0, 6)), value(st.integers(0, 6))
        if type(u) is int and u == v and draw(st.integers(0, 3)):
            v = (v + 1) % 7     # a loop now and then, not one in seven edges
        if shape == "list" or (shape == "mixed" and draw(st.booleans())):
            edges.append([u, v])
            continue
        e = {"id": ids[i], "u": u, "v": v}
        if id_kind == "missing" and draw(st.booleans()):
            del e["id"]
        if "edges" in broken and not draw(st.integers(0, 5)):
            del e[draw(st.sampled_from(["u", "v"]))]
        edges.append(e)
    if "edges" in broken and m and not draw(st.integers(0, 3)):
        edges[draw(st.integers(0, m - 1))] = draw(st.sampled_from([5, "ab", [0, 1, 2], None]))
    obj = {"edges": edges}
    n = draw(st.sampled_from([-1, sys.maxsize + 1, 10 ** 30, 7.0, 7.5, True, "7", None, _MISSING]
                             if "count" in broken else [7, 7, 7, 3, 0]))
    if n is not _MISSING:
        obj["vertex_count"] = n
    flag = draw(st.sampled_from(["no", 1, 0, None, []] if "flag" in broken
                                else [_MISSING, _MISSING, True, False]))
    if flag is not _MISSING:
        obj["allows_loops"] = flag
    return obj


def _outcome(read, obj):
    """repr of the graph read, which shows an end's type, or the error's class and text."""
    try:
        return repr(read(obj))
    except Exception as exc:
        return type(exc), str(exc)


@given(_graph_json())
@settings(max_examples=600, deadline=None)
def test_json_reader_matches_the_checked_reference(obj):
    assert _outcome(graphio.graph_from_json, obj) == _outcome(reference_graph_from_json, obj)


@pytest.mark.parametrize("key,bad", [
    ("vertex_count", True), ("vertex_count", 5.0), ("vertex_count", -1), ("vertex_count", "5"),
    ("vertex_count", sys.maxsize + 1), ("allows_loops", 1), ("allows_loops", None),
    ("id", True), ("id", 1.0), ("id", 0), ("id", 2), ("u", True), ("u", 1.0), ("u", "1"),
    ("u", -1), ("u", 5), ("u", 0.5), ("u", None), ("v", False), ("v", 1),
])
def test_one_bad_value_in_a_written_file_reads_as_in_the_reference(key, bad):
    obj = graphio.graph_to_json(build_graph(5, [(0, 1), (1, 2), (0, 1), (4, 3)]))
    if key in ("vertex_count", "allows_loops"):
        obj[key] = bad
    else:
        obj["edges"][1][key] = bad
    assert _outcome(graphio.graph_from_json, obj) == _outcome(reference_graph_from_json, obj)


def test_json_reader_reads_its_own_files_without_build_graph(monkeypatch):
    g = build_graph(5, [(0, 1), (1, 2), (0, 1), (4, 3)])
    obj = graphio.graph_to_json(g)
    monkeypatch.setattr(graphio, "build_graph", None)
    assert graphio.graph_from_json(obj) == g
    assert graphio.graph_from_json(dict(obj, allows_loops=False)) == g
