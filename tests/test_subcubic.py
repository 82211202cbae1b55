import random

import pytest
from hypothesis import given, settings, strategies as st

from intcolor.edge_coloring import konig_color
from intcolor.generators import (complete_bipartite_graph, complete_graph,
                                 cycle_graph, random_cubic_class1)
from intcolor.multigraph import EdgeColoring, GraphError, Multigraph, build_graph, verify
from intcolor.oracles import exact_chromatic_index
from intcolor.subcubic import color_subcubic, subcubic_colors


def test_k33_with_konig_coloring():
    g = complete_bipartite_graph(3, 3)
    col = color_subcubic(g, konig_color(g))
    assert verify(g, col).interval
    assert len(set(col.colors)) <= 6


def test_cube_graph():
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                        (4, 5), (5, 6), (6, 7), (7, 4),
                        (0, 4), (1, 5), (2, 6), (3, 7)])
    col = color_subcubic(g, exact_chromatic_index(g)[1])
    assert verify(g, col).interval


def test_even_cycle_two_colors():
    g = cycle_graph(6)
    col = color_subcubic(g, konig_color(g))
    assert verify(g, col).interval
    assert col.colors_used() == 2


def test_k4_class1():
    g = complete_graph(4)
    col = color_subcubic(g, exact_chromatic_index(g)[1])
    assert verify(g, col).interval


def test_forced_unequal_label_repair():
    # triangle 0,1,2 with a pendant at 2; the chosen matching {01, 23} makes the
    # auxiliary graph a red/blue digon whose matching edge needs the local repair
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    c3 = EdgeColoring(g, (1, 2, 3, 1))
    col = color_subcubic(g, c3)
    assert verify(g, col).interval


def test_multigraph_with_digon():
    # digon plus pendants on both sides keeps it subcubic and 3-chromatic
    g = build_graph(4, [(0, 1), (0, 1), (0, 2), (1, 3)])
    chi, w = exact_chromatic_index(g)
    assert chi == 3
    col = color_subcubic(g, w)
    assert verify(g, col).interval


def test_rejects_odd_cycle_component():
    g = cycle_graph(5)
    with pytest.raises(GraphError):
        color_subcubic(g, EdgeColoring(g, (1, 2, 1, 2, 3)))


def test_rejects_high_degree():
    g = complete_bipartite_graph(1, 4)
    with pytest.raises(GraphError):
        color_subcubic(g, EdgeColoring(g, (1, 2, 3, 4)))


def test_rejects_improper_input():
    g = cycle_graph(4)
    with pytest.raises(GraphError):
        color_subcubic(g, EdgeColoring(g, (1, 1, 2, 2)))


K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K4_COLORS = (1, 2, 3, 3, 2, 1)
C5_BESIDE_K4 = [(4, 5), (5, 6), (6, 7), (7, 8), (8, 4)]


def _error(g, colors):
    with pytest.raises(GraphError) as info:
        color_subcubic(g, EdgeColoring(g, colors))
    return str(info.value)


def test_rejects_odd_cycle_beside_a_cubic_component():
    # Delta = 3, so only the walk over the edges between degree-2 vertices sees the C_5
    g = build_graph(9, K4 + C5_BESIDE_K4)
    assert _error(g, K4_COLORS + (1, 2, 1, 2, 3)) == (
        "a component is an odd cycle; not interval colorable")


def test_rejects_parallel_pair_sharing_a_color():
    g = build_graph(4, [(0, 1), (0, 1), (0, 2), (1, 3)])
    assert _error(g, (1, 1, 2, 3)) == "the supplied 3-edge-coloring is not proper"


def test_rejects_a_loop():
    # a loop meets its vertex twice in its own color; only a bare edge list holds one
    with pytest.raises(GraphError, match="^the supplied 3-edge-coloring is not proper$"):
        subcubic_colors([(0, 0), (0, 1), (1, 2)], [0, 1, 2], [1, 2, 3])


@pytest.mark.parametrize("n,edges,colors,message", [
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)], (1, 1, 2, 3), "maximum degree must be at most 3"),
    (4, K4, (1, 1, 3, 3, 2, 4), "the supplied 3-edge-coloring is not proper"),
    (9, K4 + C5_BESIDE_K4, K4_COLORS + (1, 2, 1, 2, 4),
     "the supplied coloring uses more than 3 colors"),
    (9, K4 + C5_BESIDE_K4, K4_COLORS + (1, 1, 2, 1, 2),
     "the supplied 3-edge-coloring is not proper"),
])
def test_the_first_failed_check_names_the_error(n, edges, colors, message):
    # degree, then properness, then more than 3 colors, then odd cycles
    assert _error(build_graph(n, edges), colors) == message


def test_rejects_a_coloring_of_another_graph():
    # graph identity is checked before properness; an equal graph will do
    c4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    g = build_graph(4, c4)
    with pytest.raises(GraphError, match="^coloring belongs to a different graph$"):
        color_subcubic(g, EdgeColoring(build_graph(5, c4), (1, 1, 1, 1)))
    assert verify(g, color_subcubic(g, EdgeColoring(build_graph(4, c4), (1, 2, 1, 2)))).interval


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_random_cubic_class1(seed):
    g, c3 = random_cubic_class1(20, random.Random(seed))
    col = color_subcubic(g, c3)
    assert verify(g, col).interval
    assert len(set(col.colors)) <= 6


@given(st.integers(0, 100_000))
@settings(max_examples=120, deadline=None)
def test_random_subcubic_class1(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    deg = [0] * n
    edges = []
    for _ in range(rng.randint(3, 13)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and deg[u] < 3 and deg[v] < 3:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    g = build_graph(n, edges)
    if not 0 < g.edge_count <= 14 or g.max_degree < 3:
        return
    for comp in g.components():
        eids = {e for v in comp for e in g.incidence[v]}
        if eids and all(g.degree(v) == 2 for v in comp) and len(eids) % 2:
            return
    chi, w = exact_chromatic_index(g)
    if chi > 3:
        return
    col = color_subcubic(g, w)
    assert verify(g, col).interval
    assert len(set(col.colors)) <= 6


def test_mixed_components():
    # a cubic component, an even cycle, a path, and a lone matching edge together
    base = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]          # K4
    cyc = [(4, 5), (5, 6), (6, 7), (7, 4)]                           # C4
    path = [(8, 9), (9, 10)]
    lone = [(11, 12)]
    g = build_graph(13, base + cyc + path + lone)
    chi, w = exact_chromatic_index(g)
    col = color_subcubic(g, w)
    assert verify(g, col).interval


@given(st.integers(0, 100_000))
@settings(deadline=None)
def test_subset_entry_matches_color_subcubic_on_the_subgraph(seed):
    # eids is a random edge subset of a larger host, which has vertices and
    # edges the subset leaves untouched; its colors are mostly proper 3-colors
    # and sometimes not, and it sometimes has a vertex of degree 4
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    limit = 3 if rng.random() < 0.8 else 4
    degree = [0] * n
    edges, eids, c3 = [], [], []
    for _ in range(rng.randint(0, 4 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if degree[u] < limit and degree[v] < limit and rng.random() < 0.7:
            degree[u] += 1
            degree[v] += 1
            taken = {c for e, c in zip(eids, c3) if {u, v} & set(edges[e])}
            free = [c for c in (1, 2, 3) if c not in taken]
            c3.append(free[0] if free and rng.random() < 0.95 else rng.randint(1, 4))
            eids.append(len(edges))
        edges.append((u, v))
    host = Multigraph(n + rng.randint(0, 4), tuple(edges))
    sub, ids = host.subgraph(eids)
    assert list(ids) == eids
    try:
        expected = color_subcubic(sub, EdgeColoring(sub, tuple(c3)))
    except GraphError as exc:
        with pytest.raises(GraphError) as info:
            subcubic_colors(host.edges, eids, c3)
        assert str(info.value) == str(exc)
        return
    assert verify(sub, expected).interval
    assert subcubic_colors(host.edges, eids, c3) == dict(zip(ids, expected.colors))
