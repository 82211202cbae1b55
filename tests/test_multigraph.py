import random
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from intcolor.multigraph import (Decomposition, EdgeColoring, GraphError, Multigraph,
                                 bipartition, build_graph, normalize, traverse,
                                 verify, verify_decomposition)
from intcolor.generators import cycle_graph, complete_graph
from intcolor.thickness import decompose_forest_peel

from reference_checkers import (reference_edge_components, reference_two_coloring,
                                reference_verify, reference_verify_decomposition)


def test_build_k3():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.edge_count == 3 and g.edges[2] == (2, 0)


def test_build_digon_keeps_parallel_edges():
    g = build_graph(2, [(0, 1), (0, 1)])
    assert g.edge_count == 2
    assert g.degree(0) == 2


def test_build_rejects_loop():
    with pytest.raises(GraphError, match=r"^edge 0 is a loop \(0,0\) but loops are disallowed$"):
        build_graph(4, [(0, 0)])


def test_build_rejects_bad_endpoint():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 5)])


def test_rejects_a_vertex_count_beyond_an_index():
    # the check comes before any list is sized by the count
    for n in (sys.maxsize + 1, 10 ** 30):
        with pytest.raises(GraphError, match=f"^vertex_count must be at most {sys.maxsize}$"):
            Multigraph(n, ((7, 1),))


def test_bipartition_c4_and_k3():
    sides = bipartition(cycle_graph(4))
    assert sides is not None
    assert sides[0] != sides[1]
    assert bipartition(complete_graph(3)) is None


def test_bipartition_edgeless():
    sides = bipartition(build_graph(3, []))
    assert sides is not None and set(sides) == {0}


def test_verify_path_interval():
    g = build_graph(3, [(0, 1), (1, 2)])
    rep = verify(g, EdgeColoring(g, (1, 2)), "interval")
    assert rep.interval and rep.proper


def test_verify_star_gap():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    rep = verify(g, EdgeColoring(g, (1, 2, 4)), "interval")
    assert rep.proper and not rep.interval
    assert rep.offending_vertices == (0,)


def test_verify_c5_cyclic_but_not_interval():
    # the five palettes are {i, i+1 mod 5}: all cyclic intervals, one not plain
    g = cycle_graph(5)
    col = EdgeColoring(g, (1, 2, 3, 4, 5))
    rep = verify(g, col, "cyclic", t=5)
    assert rep.cyclic_interval and not rep.interval


def test_verify_cyclic_rejects_out_of_range():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        verify(g, EdgeColoring(g, (1, 2, 1, 6)), "cyclic", t=5)


def test_verify_improper_lists_edges():
    g = build_graph(3, [(0, 1), (0, 2)])
    rep = verify(g, EdgeColoring(g, (1, 1)), "proper")
    assert not rep.proper
    assert rep.offending_edges == (0, 1)


def test_normalize_shift_and_identity():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert normalize(EdgeColoring(g, (0, 1))).colors == (1, 2)
    assert normalize(EdgeColoring(g, (5, 5))).colors == (1, 1)
    c = EdgeColoring(g, (1, 2))
    assert normalize(c).colors == (1, 2)


def test_decomposition_k3_path_plus_edge():
    g = complete_graph(3)
    d = Decomposition(g, (0, 0, 1), (1, 2, 1))
    assert verify_decomposition(g, d).interval


def test_decomposition_k3_single_part_fails():
    g = complete_graph(3)
    d = Decomposition(g, (0, 0, 0), (1, 2, 3))
    assert not verify_decomposition(g, d).interval


def test_decomposition_empty_graph():
    g = build_graph(4, [])
    d = Decomposition(g, (), ())
    assert verify_decomposition(g, d).interval


def test_decomposition_missing_certificate():
    g = complete_graph(3)
    with pytest.raises(GraphError):
        Decomposition(g, (0, 0, 0), (1, 2))


@st.composite
def colored_graph(draw):
    n = draw(st.integers(2, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=14))
    g = build_graph(n, edges)
    colors = draw(st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges)))
    return g, EdgeColoring(g, tuple(colors))


@given(colored_graph(), st.integers(-5, 5))
def test_interval_verdict_is_shift_invariant(gc, shift):
    g, c = gc
    shifted = EdgeColoring(g, tuple(x + shift for x in c.colors))
    assert verify(g, c).interval == verify(g, shifted).interval


@given(colored_graph())
def test_interval_on_disjoint_union_is_componentwise(gc):
    g, c = gc
    n = g.vertex_count
    doubled = build_graph(2 * n, list(g.edges) + [(u + n, v + n) for u, v in g.edges])
    dc = EdgeColoring(doubled, c.colors + c.colors)
    assert verify(doubled, dc).interval == verify(g, c).interval


@given(colored_graph())
def test_interval_implies_cyclic_within_range(gc):
    g, c = gc
    t = max(c.colors)
    if min(c.colors) >= 1 and verify(g, c).interval:
        assert verify(g, c, "cyclic", t=t).cyclic_interval


def test_certified_decomposition_parts_partition_edges():
    from intcolor.thickness import dispatch_theta_upper
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
    d, _ = dispatch_theta_upper(g)
    union = sorted(e for p in range(d.part_count) for e in d.part_edges(p))
    assert union == list(range(g.edge_count))


@given(st.sets(st.integers(1, 9), min_size=1, max_size=9), st.integers(2, 9))
def test_cyclic_consecutive_matches_rotation_bruteforce(vals, t):
    from intcolor.multigraph import _is_cyclically_consecutive

    vals = {v for v in vals if v <= t}
    if not vals:
        return
    brute = any(
        sorted((v - 1 + s) % t for v in vals) == list(range(min((v - 1 + s) % t for v in vals),
                                                            min((v - 1 + s) % t for v in vals) + len(vals)))
        for s in range(t))
    assert _is_cyclically_consecutive(vals, t) == brute


def test_decomposition_color_lookup():
    d = Decomposition(complete_graph(3), (1, 0, 0), (1, 2, 1))
    assert [(d.parts[e], d.colors[e]) for e in range(3)] == [(1, 1), (0, 2), (0, 1)]
    assert d.part_edges(0) == [1, 2] and d.part_edges(1) == [0]


def test_subgraph_keeps_only_endpoints_in_host_order():
    g = build_graph(4, [(0, 1), (2, 3), (1, 2), (3, 1)])
    sub, ids = g.subgraph([3, 1, 2])
    assert ids == (1, 2, 3)
    assert sub.vertex_count == 3 and sub.edges == ((1, 2), (0, 1), (2, 0))
    spanning, _ = g.subgraph([0, 1])
    assert spanning.vertex_count == 4 and spanning.edges == g.edges[:2]


def test_subgraph_rejects_unknown_edge():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(GraphError):
        g.subgraph([5])


@pytest.mark.parametrize("eids,bad", [([1, -1, 0, -3], -3), ([1, 9, 0, 3, 7], 3), ([-2, 5], -2),
                                      ([3], 3)])
def test_subgraph_names_the_first_unknown_edge_id(eids, bad):
    # the smallest id below 0, else the smallest id at or above the edge count
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(GraphError, match=f"^unknown edge id {bad}$"):
        g.subgraph(eids)


def _per_part_reference(g, d):
    """Interval verdict and offenders of d from verify on each part's subgraph."""
    ok, bad_vertices, bad_edges = True, set(), set()
    for p in range(d.part_count):
        sub, ids = g.subgraph(d.part_edges(p))
        if not ids:
            continue
        host_vertex = sorted({v for e in ids for v in g.edges[e]})
        rep = reference_verify(sub, EdgeColoring(sub, tuple(d.colors[e] for e in ids)))
        ok &= rep.interval
        bad_vertices.update(host_vertex[v] for v in rep.offending_vertices)
        bad_edges.update(ids[e] for e in rep.offending_edges)
    return ok, tuple(sorted(bad_vertices)), tuple(sorted(bad_edges))


def _assert_matches_reference(g, d):
    rep = verify_decomposition(g, d)
    assert (rep.interval, rep.offending_vertices, rep.offending_edges) == _per_part_reference(g, d)


@st.composite
def labelled_multigraph(draw):
    n = draw(st.integers(1, 6))
    edges = [(u, v) for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                        st.integers(0, n - 1)), max_size=12))
             if u != v]
    m = len(edges)
    parts = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    colors = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    g = build_graph(n, edges)
    return g, Decomposition(g, tuple(parts), tuple(colors))


@given(labelled_multigraph())
def test_verify_decomposition_matches_per_part_verify(gd):
    _assert_matches_reference(*gd)


@given(st.integers(0, 100_000))
def test_verify_decomposition_catches_corruption_like_per_part_verify(seed):
    from intcolor.thickness import dispatch_theta_upper
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    edges = [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                 for _ in range(rng.randint(1, 14))) if u != v]
    g = build_graph(n, edges)
    d, _ = dispatch_theta_upper(g)
    _assert_matches_reference(g, d)
    if not edges:
        return
    parts, colors = list(d.parts), list(d.colors)
    e = rng.randrange(len(edges))
    if rng.random() < 0.5:
        parts[e] = rng.randrange(d.part_count + 1)
    else:
        colors[e] += rng.choice([-2, -1, 1, 2])
    _assert_matches_reference(g, Decomposition(g, tuple(parts), tuple(colors)))


def _report_or_error(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except GraphError as exc:
        return f"GraphError: {exc}"


@st.composite
def multigraph_coloring(draw):
    n = draw(st.integers(1, 6))
    edges = [(u, v) for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                        st.integers(0, n - 1)), max_size=14))
             if u != v]
    g = build_graph(n, edges)
    top = draw(st.integers(1, 6))
    colors = draw(st.lists(st.integers(1, top), min_size=len(edges), max_size=len(edges)))
    return g, EdgeColoring(g, tuple(colors))


@given(multigraph_coloring(), st.sampled_from(["proper", "interval", "cyclic"]),
       st.integers(0, 7))
def test_verify_matches_sort_based_reference(gc, mode, t):
    g, c = gc
    assert (_report_or_error(verify, g, c, mode, t=t)
            == _report_or_error(reference_verify, g, c, mode, t=t))


@given(labelled_multigraph())
def test_verify_decomposition_matches_sort_based_reference(gd):
    g, d = gd
    assert verify_decomposition(g, d) == reference_verify_decomposition(g, d)


@given(st.integers(0, 100_000))
def test_verify_decomposition_matches_reference_on_corrupted_peels(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    edges = [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                 for _ in range(rng.randint(1, 20))) if u != v]
    g = build_graph(n, edges)
    d = decompose_forest_peel(g)
    assert verify_decomposition(g, d) == reference_verify_decomposition(g, d)
    if not edges:
        return
    parts, colors = list(d.parts), list(d.colors)
    for _ in range(rng.randint(1, 3)):
        e = rng.randrange(len(edges))
        if rng.random() < 0.5:
            parts[e] = rng.randrange(d.part_count + 1)
        else:
            colors[e] += rng.choice([-2, -1, 1, 2])
    bad = Decomposition(g, tuple(parts), tuple(colors))
    assert verify_decomposition(g, bad) == reference_verify_decomposition(g, bad)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))))
def test_degrees_and_simplicity_match_plain_definitions(n_edges):
    n, edges = n_edges
    edges = [(u, w) for u, w in edges if u != w]
    g = build_graph(n, edges)
    assert g.degrees == tuple(sum((u == v) + (w == v) for u, w in edges) for v in range(n))
    assert g.is_simple == (len({frozenset(e) for e in edges}) == len(edges))


def _assert_closed_odd_walk(g, eids, cycle):
    assert len(cycle) % 2 == 1
    steps = Counter(frozenset(g.edges[e]) for e in eids)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert steps[frozenset((a, b))] > 0


def _assert_traversal_matches_reference(g, eids, t):
    assert t.components == reference_edge_components(g, sorted(eids))
    for i, comp in enumerate(t.components):
        touched = {v for e in comp for v in g.edges[e]}
        assert sorted(t.vertices[i]) == sorted(touched) and t.vertices[i][0] == min(touched)
        degree = Counter(v for e in comp for v in g.edges[e])
        sides = reference_two_coloring(g, comp)
        if sides is None:
            _assert_closed_odd_walk(g, comp, t.odd_cycles[i])
        else:
            assert t.odd_cycles[i] is None
            assert {v: t.sides[v] for v in touched} == sides
            assert t.side_max[i] == tuple(max((degree[v] for v in touched if sides[v] == s),
                                              default=0) for s in (0, 1))
        assert max(t.side_max[i]) == max(degree.values())


@st.composite
def multigraph_and_subset(draw):
    n = draw(st.integers(1, 9))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16))
    g = build_graph(n, [(u, v) for u, v in edges if u != v])
    eids = draw(st.lists(st.sampled_from(range(g.edge_count)), unique=True)
                if g.edge_count else st.just([]))
    return g, eids


@given(multigraph_and_subset())
def test_traverse_matches_union_find_and_two_coloring_references(g_eids):
    g, eids = g_eids
    _assert_traversal_matches_reference(g, eids, traverse(g, eids))
    whole = traverse(g)
    assert whole == g.traversal
    _assert_traversal_matches_reference(g, range(g.edge_count), whole)
    sides = bipartition(g)
    assert (sides is None) == any(c is not None for c in whole.odd_cycles)
    assert sides is None or sides == tuple(whole.sides)


def test_components_keep_their_order_and_isolated_vertices():
    g = build_graph(7, [(5, 6), (2, 4), (4, 0)])
    assert g.components() == [[0, 4, 2], [1], [3], [5, 6]]
    assert traverse(g).components == [[0], [1, 2]]


def test_part_count_is_computed_once():
    d = Decomposition(build_graph(3, [(0, 1), (1, 2)]), (1, 0), (1, 1))
    assert d.part_count == 2 and vars(d)["part_count"] == 2


# -- the one-pass certificate check ----------------------------------------------

@given(st.integers(0, 100_000))
def test_verify_decomposition_on_hubs_and_sparse_part_indices_matches_reference(seed):
    # a hub of degree 63-90 keeps its palette in a list, its leaves in bitmasks
    rng = random.Random(seed)
    n = rng.randint(63, 90)
    edges = [(0, v) for v in range(1, n + 1)] + [(v, v + 1) for v in range(1, n, 2)]
    parts = [0] * n + [1] * (n // 2)
    colors = list(range(1, n + 1)) + [1] * (n // 2)
    for _ in range(rng.randint(0, 3)):
        e = rng.randrange(len(edges))
        if rng.random() < 0.3:
            parts[e] = rng.choice([2, 10 ** 6])
        else:
            colors[e] += rng.choice([-2, -1, 1, 2, n])
    g = build_graph(n + 1, edges)
    d = Decomposition(g, tuple(parts), tuple(colors))
    assert verify_decomposition(g, d) == reference_verify_decomposition(g, d)


def _hub_check_seconds(shape, n):
    """Best of five process times of verify_decomposition on a star K_{1,n} colored
    1..n, or on a wheel whose rim is a second part colored 1, 2 alternately."""
    edges = [(0, v) for v in range(1, n + 1)]
    parts, colors = [0] * n, list(range(1, n + 1))
    if shape == "wheel":
        edges += [(v, v % n + 1) for v in range(1, n + 1)]
        parts += [1] * n
        colors += [1 + v % 2 for v in range(n)]
    g = build_graph(n + 1, edges)
    d = Decomposition(g, tuple(parts), tuple(colors))
    g.degrees
    best = float("inf")
    for _ in range(5):
        start = time.process_time()
        assert verify_decomposition(g, d).interval
        best = min(best, time.process_time() - start)
    return best


@pytest.mark.parametrize("shape", ["star", "wheel"])
def test_verify_decomposition_is_linear_on_hubs(shape):
    # a hub palette kept as a bitmask grown edge by edge took 1.69 s on
    # K_{1,256000}, against 0.1 s for the list
    small, large = (_hub_check_seconds(shape, n) for n in (16_000, 64_000))
    assert large <= 5.5 * small


@pytest.mark.parametrize("degree", [2, 80])
@pytest.mark.parametrize("far_first", [False, True])
def test_verify_decomposition_reports_a_far_color_promptly(degree, far_first):
    # colors 1 and 10**9 at one vertex: a bitmask spanning them would take 125 MB
    colors = [10 ** 9] + list(range(1, degree)) if far_first else [*range(1, degree), 10 ** 9]
    g = build_graph(degree + 1, [(0, v) for v in range(1, degree + 1)])
    d = Decomposition(g, (0,) * degree, tuple(colors))
    tracemalloc.start()
    start = time.process_time()
    try:
        rep = verify_decomposition(g, d)
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.offending_vertices == (0,) and rep.offending_edges == ()
    assert elapsed < 0.1 and peak < 1 << 20
