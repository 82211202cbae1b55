import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from intcolor.edge_coloring import petersen_two_factorization
from intcolor.generators import (complete_bipartite_graph, complete_multipartite_graph,
                                 cycle_graph, multipartite_parts, random_biregular,
                                 random_cactus, random_tree)
from intcolor.kernels import (IncrementalHost, _factor_walk, balanced_multipartite_colors,
                              color_cactus, color_forest, color_low_even_bipartite,
                              round_robin_rounds, staircase_bipartite_colors)
from intcolor.multigraph import EdgeColoring, GraphError, build_graph, normalize, verify

from reference_checkers import (alternating_colors, cactus_like_graph, reference_color_cactus,
                                two_factor_pair_colors)


def _coloring(g, colors):
    """The host-edge color map of every edge of g as a normalized EdgeColoring."""
    return normalize(EdgeColoring(g, tuple(colors[e] for e in range(g.edge_count))))


def _host(g, colors):
    """An IncrementalHost of g whose first len(colors) edges carry those colors."""
    host = IncrementalHost(g)
    for eid, c in enumerate(colors):
        host.add_colored(eid, c)
    return host


# -- forests -------------------------------------------------------------------

def test_forest_star():
    g = complete_bipartite_graph(1, 4)
    assert sorted(color_forest(g).colors) == [1, 2, 3, 4]


def test_forest_path():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    col = color_forest(g)
    assert verify(g, col).interval


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_forest_random_trees(seed):
    g = random_tree(50, random.Random(seed))
    assert verify(g, color_forest(g)).interval


def test_forest_rejects_cycle():
    with pytest.raises(GraphError):
        color_forest(cycle_graph(3))


# -- complete bipartite ----------------------------------------------------------

def test_complete_bipartite_single_edge():
    g = complete_bipartite_graph(1, 1)
    assert _coloring(g, staircase_bipartite_colors(g, [0], [1])).colors == (1,)


def test_complete_bipartite_2_3_palettes():
    g = complete_bipartite_graph(2, 3)
    col = _coloring(g, staircase_bipartite_colors(g, [0, 1], [2, 3, 4]))
    assert col.max_color() == 4
    assert sorted(col.palette(0)) == [1, 2, 3]       # x_1
    assert sorted(col.palette(4)) == [3, 4]          # y_3


def test_complete_bipartite_7_5():
    g = complete_bipartite_graph(7, 5)
    col = _coloring(g, staircase_bipartite_colors(g, list(range(7)), list(range(7, 12))))
    assert verify(col.graph, col).interval
    assert col.max_color() == 11


# -- pendant and cycle attachment ---------------------------------------------

def test_pendant_colors_max_plus_one():
    g = build_graph(3, [(0, 1), (1, 2)])
    host = _host(g, (1,))
    host.add_pendant(1, 1)
    assert _coloring(g, host.color).colors == (1, 2)


def test_pendant_at_star_center():
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    host = _host(g, (1, 2, 3))
    host.add_pendant(3, 0)
    assert _coloring(g, host.color).colors[-1] == 4


def test_pendant_chain_builds_a_path():
    g = build_graph(12, [(i, i + 1) for i in range(11)])
    host = _host(g, (1,))
    for eid in range(1, 11):
        host.add_pendant(eid, eid)
    c = _coloring(g, host.color)
    assert c.colors == tuple(range(1, 12))
    assert verify(c.graph, c).interval


def test_attach_triangle_at_leaf():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)])
    host = _host(g, (1, 2))
    host.add_cycle(2, [2, 3, 4])
    out = _coloring(g, host.color)
    assert out.colors[2:] == (1, 2, 3)
    assert verify(out.graph, out).interval


def test_attach_c4_even_pattern():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
    host = _host(g, (1,))
    host.add_cycle(1, [1, 2, 3, 4])
    out = _coloring(g, host.color)
    assert out.colors[1:] == (2, 3, 2, 3)
    assert sorted(out.palette(1)) == [1, 2, 3]


def test_attach_c5_odd_pattern():
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])
    host = _host(g, (1, 2, 3))
    host.add_cycle(3, [3, 4, 5, 6, 7])
    out = _coloring(g, host.color)
    assert out.colors[3:] == (2, 3, 2, 3, 4)
    assert verify(out.graph, out).interval


def test_attach_requires_leaf():
    g = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 1)])
    with pytest.raises(GraphError):
        _host(g, (1, 2)).add_cycle(1, [2, 3, 4])


# -- cacti ------------------------------------------------------------------------

def test_cactus_smallest():
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert verify(g, color_cactus(g)).interval


def test_cactus_two_triangles_joined_by_path():
    g = build_graph(8, [(0, 1), (1, 2), (2, 0),
                        (2, 3), (3, 4), (4, 5),
                        (5, 6), (6, 7), (7, 5)])
    assert verify(g, color_cactus(g)).interval


def test_cactus_tree_delegates_to_forest():
    g = random_tree(12, random.Random(0))
    assert verify(g, color_cactus(g)).interval


def test_cactus_rejects_bare_cycle_and_shared_cycles():
    with pytest.raises(GraphError, match="bare cycle"):
        color_cactus(cycle_graph(6))
    bowtie = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    with pytest.raises(GraphError, match="^cycles intersect at vertex 2$"):
        color_cactus(bowtie)


def test_cactus_names_two_cycles_sharing_a_pair_of_vertices():
    # a theta graph: paths of 1, 2 and 3 edges between 0 and 1
    theta = build_graph(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    with pytest.raises(GraphError, match="^two cycles share an edge or a pair of vertices$"):
        color_cactus(theta)
    with pytest.raises(GraphError, match="^two cycles share an edge or a pair of vertices$"):
        reference_color_cactus(theta)


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_cactus_matches_the_block_reference(seed):
    # cacti with digon blocks, with one chord or parallel copy added, and multigraphs
    g = cactus_like_graph(random.Random(seed), seed % 4)
    try:
        want = reference_color_cactus(g)
    except GraphError:
        with pytest.raises(GraphError):
            color_cactus(g)
    else:
        assert color_cactus(g) == want


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_cactus_random(seed):
    g = random_cactus(7, random.Random(seed))
    assert verify(g, color_cactus(g)).interval


def test_cactus_on_a_hub_with_many_bridges_is_linear():
    # a triangle and 16,000 bridges at one hub: taking the largest color of the
    # hub's whole palette for each bridge took about 2 s, its kept end 0.05 s
    n = 16_000
    g = build_graph(n + 3, [(0, 1), (1, 2), (2, 0)] + [(0, v) for v in range(3, n + 3)])
    start = time.process_time()
    col = color_cactus(g)
    assert time.process_time() - start < 0.3
    assert verify(g, col).interval


# -- degrees {1,2,2r} bipartite ---------------------------------------------------

def test_low_even_smallest_2_4():
    g = build_graph(3, [(0, 1), (0, 1), (0, 2), (0, 2)])
    col = color_low_even_bipartite(g)
    assert sorted(col.palette(1)) == [1, 2]
    assert sorted(col.palette(2)) == [3, 4]
    assert sorted(col.palette(0)) == [1, 2, 3, 4]


def test_low_even_c8_alternates():
    col = color_low_even_bipartite(cycle_graph(8))
    assert set(col.colors) == {1, 2}


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_low_even_random_biregular(seed):
    g = random_biregular(2, 6, 3, random.Random(seed))
    col = color_low_even_bipartite(g)
    assert verify(g, col).interval
    for v in range(g.vertex_count):
        pal = sorted(col.palette(v))
        if g.degree(v) == 6:
            assert pal == [1, 2, 3, 4, 5, 6]
        elif g.degree(v) == 2:
            assert pal[0] % 2 == 1 and pal[1] == pal[0] + 1


def _assert_low_even_palettes(g, col):
    # degree-2 vertices get a pair {2i-1, 2i}, Delta-vertices all of 1..Delta
    assert verify(g, col).interval
    for v in range(g.vertex_count):
        pal = sorted(col.palette(v))
        if g.degree(v) == g.max_degree:
            assert pal == list(range(1, g.max_degree + 1))
        elif g.degree(v) == 2:
            assert pal[0] % 2 == 1 and pal[1] == pal[0] + 1


def test_low_even_degree_two_components_beside_pendants():
    # a 4-cycle and a path beside a hub of degree 4 with two pendants and a chain
    # 0-3-4-5-0 back to it; the components of maximum degree 2 are factor 0
    g = build_graph(13, [(9, 10), (10, 11), (11, 12), (12, 9), (7, 8), (8, 6),
                         (0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 0)][::-1])
    col = color_low_even_bipartite(g)
    _assert_low_even_palettes(g, col)
    assert sorted(col.colors[-6:]) == [1, 1, 1, 2, 2, 2]


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_low_even_mixed_components_keep_the_pair_palettes(seed):
    # a (2, 2r)-biregular multigraph with some degree-2 vertices split into two
    # pendants, beside an even cycle and a path, on spread ids with shuffled edges
    rng = random.Random(seed)
    h = random_biregular(2, 2 * rng.randint(2, 3), 1, rng)
    edges, n = list(h.edges), h.vertex_count
    for v in range(n):
        if h.degree(v) == 2 and rng.random() < 0.4:
            e = [i for i, (a, _) in enumerate(edges) if a == v][-1]
            edges[e] = (n, edges[e][1])
            n += 1
    k = 2 * rng.randint(1, 3)
    edges += [(n + i, n + (i + 1) % k) for i in range(k)]
    n += k
    m = rng.randint(2, 5)
    edges += [(n + i, n + i + 1) for i in range(m - 1)]
    n += m
    ids = rng.sample(range(2 * n), n)
    edges = [(ids[u], ids[v]) for u, v in edges]
    rng.shuffle(edges)
    g = build_graph(2 * n, edges)
    _assert_low_even_palettes(g, color_low_even_bipartite(g))


def test_low_even_state_of_a_hub_with_many_chains_is_linear():
    # 400 cycles of length 10 through one hub: 3601 vertices and 4000 edges in 200
    # factors, so one slot per (vertex, factor) pair would take about 24 MB
    edges, n = [], 1
    for _ in range(400):
        ring = [0, *range(n, n + 9)]
        n += 9
        edges += zip(ring, ring[1:] + ring[:1])
    g = build_graph(n, edges)
    g.traversal     # cached on the graph, not part of the coloring's state
    tracemalloc.start()
    try:
        col = color_low_even_bipartite(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    _assert_low_even_palettes(g, col)


def test_low_even_rejects_bad_degrees():
    with pytest.raises(GraphError):
        color_low_even_bipartite(complete_bipartite_graph(3, 4))


def test_low_even_with_pendant_edges():
    # degree profile {1, 2, 4}: a digon, a suppressed chain, and a pendant at the hub
    g = build_graph(5, [(0, 1), (0, 1), (0, 2), (2, 3), (0, 4)])
    col = color_low_even_bipartite(g)
    assert verify(g, col).interval
    assert sorted(col.palette(0)) == [1, 2, 3, 4]


# -- paired 2-factors: the per-pair reference of decompose_eulerian_bipartite ------

def test_two_factor_pair_single_cycle():
    g = cycle_graph(4)
    col = _coloring(g, two_factor_pair_colors(g, [0, 1, 2, 3], []))
    assert set(col.colors) == {1, 2}


def test_two_factor_pair_k44():
    g = complete_bipartite_graph(4, 4)
    fa, fb = petersen_two_factorization(g.vertex_count, g.edges)
    col = _coloring(g, two_factor_pair_colors(g, list(fa), list(fb)))
    assert verify(col.graph, col).interval
    assert all(sorted(col.palette(v)) == [1, 2, 3, 4] for v in range(8))


def test_two_factor_pair_vertex_in_one_factor_only():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 4)])
    col = _coloring(g, two_factor_pair_colors(g, [0, 1, 2, 3], [4, 5]))
    assert sorted(col.palette(0)) == [1, 2]
    assert sorted(col.palette(4)) == [3, 4]


def test_two_factor_pair_rejects_odd_cycle():
    g = cycle_graph(3)
    with pytest.raises(GraphError):
        two_factor_pair_colors(g, [0, 1, 2], [])


# -- balanced complete multipartite --------------------------------------------------

def test_round_robin_partitions_all_pairs():
    rounds = round_robin_rounds(6)
    assert len(rounds) == 5
    seen = {p for rnd in rounds for p in rnd}
    assert len(seen) == 15
    for rnd in rounds:
        players = [x for p in rnd for x in p]
        assert sorted(players) == list(range(6))


@pytest.mark.parametrize("n,r,colors", [(2, 2, 2), (1, 4, 3), (2, 3, 4), (2, 4, 6), (3, 2, 3),
                                         (2, 5, 8), (4, 3, 8), (6, 3, 12)])
def test_balanced_multipartite_uses_exactly_r1n_colors(n, r, colors):
    g = complete_multipartite_graph([n] * r)
    col = _coloring(g, balanced_multipartite_colors(g, multipartite_parts([n] * r)))
    assert col.colors_used() == colors == (r - 1) * n
    assert verify(col.graph, col).interval
    for v in range(col.graph.vertex_count):
        assert sorted(col.palette(v)) == list(range(1, colors + 1))


def test_balanced_multipartite_rejects_odd_nr():
    with pytest.raises(GraphError):
        balanced_multipartite_colors(complete_multipartite_graph([3] * 3),
                                     multipartite_parts([3] * 3))


# -- alternation reference ------------------------------------------------------------

def test_paths_and_even_cycles_rejects_odd_cycle():
    # the library walk is only given bipartite graphs; its reference refuses an odd cycle
    g = cycle_graph(5)
    with pytest.raises(GraphError):
        alternating_colors(g.edges, range(g.edge_count))


# -- host preservation -----------------------------------------------------------------

def test_pendant_preserves_host_colors():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    host = _host(g, (1, 2))
    host.add_pendant(2, 2)
    assert _coloring(g, host.color).colors[:2] == (1, 2)


def test_attach_preserves_host_up_to_shift():
    # k = 1 makes the odd pattern dip to 0; normalization shifts uniformly
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    host = _host(g, (1,))
    host.add_cycle(1, [1, 2, 3])
    out = _coloring(g, host.color)
    assert out.colors == (2, 1, 2, 3)
    assert verify(out.graph, out).interval


def test_cactus_with_digon_block():
    # parallel edges form a 2-cycle block; still a cactus
    g = build_graph(4, [(0, 1), (1, 2), (1, 2), (0, 3)])
    assert verify(g, color_cactus(g)).interval


@given(st.integers(0, 100_000))
def test_factor_walk_matches_the_plain_walks(seed):
    # every factor is vertex-disjoint paths and even cycles (digons included) on
    # spread vertex ids; factors share vertices and the edges come shuffled
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    verts = rng.sample(range(3 * n), n)
    lows = [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
    pieces = []
    for f in range(len(lows)):
        rest = rng.sample(verts, rng.randint(0, n))
        while rest:
            k = rng.randint(1, len(rest))
            piece, rest = rest[:k], rest[k:]
            ends = piece[1:] + piece[:1] if k % 2 == 0 and rng.random() < 0.5 else piece[1:]
            pieces.extend(((u, v) if rng.random() < 0.5 else (v, u), f)
                          for u, v in zip(piece, ends))
    rng.shuffle(pieces)
    edges, factor_of = [e for e, _ in pieces], [f for _, f in pieces]
    g = build_graph(3 * n, edges)
    expected = {}
    for f, low in enumerate(lows):
        expected.update(alternating_colors(
            g.edges, [e for e, ef in enumerate(factor_of) if ef == f], low))
    assert _factor_walk(g.edges, g.vertex_count, factor_of, lows) == [
        expected[e] for e in range(g.edge_count)]
