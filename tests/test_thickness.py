import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from intcolor import multigraph, thickness
from intcolor.edge_coloring import (equalized_bipartite_color, konig_color, shannon_color,
                                    vizing_color)
from intcolor.generators import (FIXTURES, FamilySpec, generate,
                                 complete_bipartite_graph, complete_graph,
                                 complete_multipartite_graph,
                                 circular_complete_graph, cycle_graph, multipartite_parts,
                                 random_bipartite, random_biregular, random_cactus,
                                 random_cubic_class1, random_eulerian_bipartite, random_tree)
from intcolor.kernels import color_low_even_bipartite
from intcolor.multigraph import (Decomposition, EdgeColoring, GraphError, bipartition,
                                 build_graph, traverse, verify_decomposition)
from intcolor.oracles import exact_chromatic_index, exact_cyclic_interval_coloring, exact_theta
from intcolor.thickness import (_Facts, decompose_bipartite,
                                decompose_biregular, decompose_eulerian_bipartite,
                                decompose_forest_peel, decompose_general,
                                detect_complete_multipartite, dispatch_theta_upper,
                                multipartite_part_count, run_named_method,
                                split_cyclic)
from intcolor.timetable import build_requirement_graph

from reference_checkers import (bipartite_up_to, cactus_like_graph,
                                reference_decompose_bipartite,
                                reference_decompose_eulerian_bipartite,
                                reference_decompose_general,
                                reference_detect_complete_multipartite,
                                reference_dispatch_componentwise,
                                reference_forest_peel, reference_general_by_groups,
                                reference_multipartite_dicts,
                                reference_verify_decomposition)


def _certified(d):
    return verify_decomposition(d.graph, d).interval


def _part_degree(d, part, v):
    return sum(d.parts[e] == part for e in d.graph.incidence[v])


def _random_connected(rng, bipartite):
    """A random connected multigraph on 2-12 vertices and the side of each vertex
    in a spanning tree; with bipartite=True every edge joins the two sides."""
    n = rng.randint(2, 12)
    side = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        side[v] = 1 - side[u]
        edges.append((u, v))
    for _ in range(rng.randint(0, 30)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (side[u] != side[v] or not bipartite):
            edges.append((u, v))
    return build_graph(n, edges), side


# -- general five-class bound ------------------------------------------------------

def test_general_k4():
    g = complete_graph(4)
    d = decompose_general(g, exact_chromatic_index(g)[1])
    assert _certified(d) and d.part_count <= 2


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def test_general_petersen():
    g = _petersen()
    d = decompose_general(g, vizing_color(g))
    assert _certified(d) and d.part_count <= 2


def test_general_max_degree_two_bipartite_single_part():
    g = cycle_graph(6)
    d = decompose_general(g, EdgeColoring(g, (1, 2, 1, 2, 1, 2)))
    assert _certified(d) and d.part_count == 1


def test_general_certifies_c5_with_a_chord_in_five_classes():
    # C_5 plus a chord in classes (3,4,3,4,5,1): the first split puts classes 1
    # and 3 on side B, and side A (classes 4-5) is a path, so no odd cycle is
    # absorbed; the result is certified in at most 2 parts
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    coloring = EdgeColoring(g, (3, 4, 3, 4, 5, 1))
    d = decompose_general(g, coloring)
    assert _certified(d) and d.part_count <= 2


def test_general_certifies_c5_in_three_classes():
    # C_5 colored (1,2,1,2,3): side A is the lone class-3 edge and side B the
    # path of classes 1-2, so no odd cycle reaches side A; 2 certified parts
    g = cycle_graph(5)
    d = decompose_general(g, EdgeColoring(g, (1, 2, 1, 2, 3)))
    assert _certified(d) and d.part_count == 2


def test_general_rejects_another_graphs_coloring():
    other = cycle_graph(4)
    with pytest.raises(GraphError, match="^coloring belongs to a different graph$"):
        decompose_general(complete_graph(4), EdgeColoring(other, (1, 2, 1, 2)))


# Odd-cycle absorption.  With all five classes in a component, the first class
# split puts 1-2 on side B and 3-5 on the subcubic side A, where an odd cycle
# needs a borrowed B edge at one of its vertices.

def _colored(n, colored_edges):
    g = build_graph(n, [e for e, _ in colored_edges])
    return g, EdgeColoring(g, tuple(c for _, c in colored_edges))


def _first_split(g, coloring):
    return thickness._split_component(g, list(range(g.edge_count)), coloring.colors,
                                      {1, 2}, {3, 4, 5})


def _decompose_counting_splits(monkeypatch, g, coloring):
    """decompose_general's result and how many component splits it tried."""
    calls = []
    original = thickness._split_component

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(thickness, "_split_component", counting)
    return decompose_general(g, coloring), len(calls)


def test_general_absorbs_an_odd_cycle_grown_from_a_subcubic_part(monkeypatch):
    # triangle 0-1-2 on classes 3-5, path 3-4-5 on 3-4; the growth from the
    # path borrows 5-6 and 6-0 and attaches the triangle at 0; chord 3-5 stays on B
    g, coloring = _colored(7, [((0, 1), 3), ((1, 2), 4), ((2, 0), 5), ((3, 4), 3),
                               ((4, 5), 4), ((5, 6), 1), ((6, 0), 2), ((3, 5), 2)])
    a_side, b_side = _first_split(g, coloring)
    assert sorted(a_side) == [0, 1, 2, 3, 4, 5, 6] and sorted(b_side) == [7]
    d, splits = _decompose_counting_splits(monkeypatch, g, coloring)
    assert splits == 1
    assert reference_verify_decomposition(g, d).interval and d.part_count == 2


def test_general_absorbs_odd_cycles_seeded_from_an_edge_between_them(monkeypatch):
    # two triangles on classes 3-5 and no other subcubic part: B edge 0-3 is
    # colored first and both triangles hang off its ends; 1-4 joins two host
    # vertices and stays on B
    g, coloring = _colored(6, [((0, 1), 3), ((1, 2), 4), ((2, 0), 5), ((3, 4), 3),
                               ((4, 5), 4), ((5, 3), 5), ((0, 3), 1), ((1, 4), 2)])
    a_side, b_side = _first_split(g, coloring)
    assert sorted(a_side) == [0, 1, 2, 3, 4, 5, 6] and sorted(b_side) == [7]
    d, splits = _decompose_counting_splits(monkeypatch, g, coloring)
    assert splits == 1
    assert reference_verify_decomposition(g, d).interval and d.part_count == 2


def test_general_resplits_a_lone_odd_cycle_whose_b_edges_are_chords(monkeypatch):
    # C_5 on classes 3-5 with its three B edges all chords: the first split is
    # stuck, and another split of the five classes is taken
    g, coloring = _colored(5, [((0, 1), 3), ((1, 2), 4), ((2, 3), 3), ((3, 4), 4),
                               ((4, 0), 5), ((0, 2), 1), ((1, 3), 1), ((1, 4), 2)])
    with pytest.raises(thickness._AbsorbStuck):
        _first_split(g, coloring)
    d, splits = _decompose_counting_splits(monkeypatch, g, coloring)
    assert splits >= 2
    assert reference_verify_decomposition(g, d).interval and d.part_count <= 2


@st.composite
def odd_cycles_paths_and_matchings(draw):
    """A proper 5-coloring: vertex-disjoint odd cycles colored 3,4,...,3,4,5 and
    paths colored 3,4,..., then random matchings on classes 1 and 2."""
    n = draw(st.integers(3, 24))
    order = draw(st.permutations(range(n)))
    edges, i = [], 0
    for length, is_cycle in draw(st.lists(st.tuples(st.integers(1, 3), st.booleans()),
                                          max_size=8)):
        size = 2 * length + 1 if is_cycle else length + 1
        if i + size > n:
            break
        vs = order[i:i + size]
        i += size
        edges += [((vs[j], vs[j + 1]), 3 + j % 2) for j in range(size - 1)]
        if is_cycle:
            edges.append(((vs[-1], vs[0]), 5))
    for c in (1, 2):
        vs = draw(st.permutations(range(n)))
        k = draw(st.integers(0, n // 2))
        edges += [((vs[2 * j], vs[2 * j + 1]), c) for j in range(k)]
    return _colored(n, edges)


@given(odd_cycles_paths_and_matchings())
@settings(max_examples=150, deadline=None)
def test_general_absorbs_every_odd_cycle(graph_and_coloring):
    g, coloring = graph_and_coloring
    if g.edge_count == 0:
        return
    d = decompose_general(g, coloring)
    assert reference_verify_decomposition(g, d).interval and d.part_count <= 2


@st.composite
def properly_colored_multigraphs(draw):
    """A random multigraph (n <= 14, m <= 30) colored edge by edge in a random
    order, each edge taking a random color free at both ends among 1..2*Delta;
    a group may be disconnected and its side A may hold odd cycles."""
    n = draw(st.integers(2, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=30))
    g = build_graph(n, pairs)
    used = [set() for _ in range(n)]
    colors = [0] * g.edge_count
    for e in draw(st.permutations(range(g.edge_count))):
        u, v = g.edges[e]
        colors[e] = c = draw(st.sampled_from(
            [c for c in range(1, 2 * g.max_degree + 1) if c not in used[u] | used[v]]))
        used[u].add(c)
        used[v].add(c)
    return g, EdgeColoring(g, tuple(colors))


@given(properly_colored_multigraphs())
@settings(max_examples=300, deadline=None)
def test_general_matches_the_per_component_part_count(graph_and_coloring):
    g, coloring = graph_and_coloring
    d = decompose_general(g, coloring)
    assert reference_verify_decomposition(g, d).interval
    assert d.part_count == reference_decompose_general(g, coloring).part_count


def _general_input(kind, rng):
    """A graph and the coloring the five-class-general row colors it with:
    - "fan": a multigraph of more than 20 edges beside one to three odd cycles,
      some with parallel copies, so that a group may hold an odd cycle on its
      three-class side;
    - "konig": a bipartite multigraph;
    - "exact": a multigraph of at most 20 edges beside odd cycles, or odd cycles
      alone, whose groups no vertex meets three classes of."""
    if kind == "konig":
        g = bipartite_up_to(rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 60),
                            rng.randint(1, 14), rng, simple=rng.random() < 0.3)
        return g, konig_color(g)
    n = rng.randint(3, 12)
    edges = [tuple(rng.sample(range(n), 2))
             for _ in range(rng.randint(21, 60) if kind == "fan" else rng.randint(0, 20))]
    for _ in range(rng.randint(1, 3)):
        cycle = range(n, n + rng.choice((3, 5, 7)))
        edges += [(v, v + 1 if v + 1 in cycle else cycle[0]) for v in cycle
                  for _ in range(rng.choice((1, 1, 2)))]
        n = cycle[-1] + 1
    g = build_graph(n, edges[-20:] if kind == "exact" else edges)
    if kind == "exact":
        return g, exact_chromatic_index(g)[1]
    return g, vizing_color(g) if g.is_simple else shannon_color(g)


@given(st.sampled_from(["fan", "konig", "exact"]), st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_general_row_matches_the_group_level_reference(kind, seed):
    # the row reads its groups off the Kempe state its engine kept; the
    # reference hands each three-class side to subcubic_colors and assembles dicts
    g, coloring = _general_input(kind, random.Random(seed))
    assume(kind == "konig" or bipartition(g) is None)
    assert (g.edge_count > 20) == (kind == "fan") or kind == "konig"
    expected = reference_general_by_groups(g, coloring)
    assert run_named_method(g, "five-class-general")[0] == expected
    assert decompose_general(g, coloring) == expected


@given(properly_colored_multigraphs(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_general_on_relabeled_caller_colorings_matches_the_group_level_reference(
        graph_and_coloring, rng):
    # the caller's labels are mapped one to one into -10..29: zero, negative and
    # gapped labels, and groups in another order than the classes' own
    g, coloring = graph_and_coloring
    labels = sorted(set(coloring.colors))
    label = dict(zip(labels, rng.sample(range(-10, 30), len(labels))))
    relabeled = EdgeColoring(g, tuple(label[c] for c in coloring.colors))
    assert decompose_general(g, relabeled) == reference_general_by_groups(g, relabeled)


def test_general_reference_inputs_reach_both_group_splits(monkeypatch):
    # the inputs above split some groups as a whole and some by component
    whole, by_component = [], []
    side_a, split = thickness._side_a, thickness._split_component

    def counting_side_a(*args):
        got = side_a(*args)
        if got is not None:
            whole.append(1)
        return got

    monkeypatch.setattr(thickness, "_side_a", counting_side_a)
    monkeypatch.setattr(thickness, "_split_component",
                        lambda *a: by_component.append(1) or split(*a))
    for kind in ("fan", "konig", "exact"):
        whole.clear()
        by_component.clear()
        for seed in range(30):
            g, _ = _general_input(kind, random.Random(seed))
            run_named_method(g, "five-class-general")
        assert whole and (by_component or kind == "konig")


def test_general_keeps_one_part_when_no_vertex_meets_three_classes():
    # classes 1, 2 and 5 in one group, and no vertex meets all three: each
    # component has at most two classes, so the whole group is one side B;
    # the group-level split would put class 5 on a side A of its own
    g, coloring = _colored(14, [((6, 2), 1), ((0, 4), 5), ((6, 12), 2)])
    d = decompose_general(g, coloring)
    assert reference_verify_decomposition(g, d).interval and d.part_count == 1
    assert reference_decompose_general(g, coloring).part_count == 1


def _triangle_chain(k):
    """k triangles on classes 3-5, each joined to the next by one edge; the
    joining edges alternate classes 1 and 2."""
    edges = []
    for i in range(k):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [((a, b), 3), ((b, c), 4), ((c, a), 5)]
        if i + 1 < k:
            edges.append(((b, a + 3), 1 + i % 2))
    return _colored(3 * k, edges)


def test_general_absorption_of_a_triangle_chain_is_linear():
    # 2000 triangles, about 8k edges: the absorption loop that restarted its
    # search from the whole host for every cycle took 11.5 s here
    g, coloring = _triangle_chain(2000)
    start = time.perf_counter()
    d = decompose_general(g, coloring)
    assert time.perf_counter() - start < 1.0
    assert d.part_count <= 2


def test_general_rejects_improper():
    g = cycle_graph(4)
    with pytest.raises(GraphError):
        decompose_general(g, EdgeColoring(g, (1, 1, 1, 1)))


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_general_random_simple(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    seen = set()
    for _ in range(rng.randint(3, 24)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            seen.add((min(u, v), max(u, v)))
    g = build_graph(n, sorted(seen))
    if g.edge_count == 0:
        return
    coloring = vizing_color(g)
    d = decompose_general(g, coloring)
    t = coloring.colors_used()
    assert _certified(d)
    assert d.part_count <= 2 * -(-t // 5)


def test_named_general_reports_last_group_bound():
    # the doubled triangle needs 6 colors: one full group of five gives 2 parts
    # and the single class left over gives 1 more, not 2
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)] * 2)
    d, trace = run_named_method(g, "five-class-general")
    assert trace.bound_value == 3 and trace.bound_formula == "2*floor(6/5) + 1 = 3"
    assert _certified(d) and d.part_count <= 3


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_named_general_within_reported_bound(seed):
    g, _ = _random_connected(random.Random(seed), bipartite=False)
    d, trace = run_named_method(g, "five-class-general")
    assert _certified(d) and d.part_count <= trace.bound_value


# -- bipartite thirds -----------------------------------------------------------------

def test_bipartite_k44_balanced_parts():
    g = complete_bipartite_graph(4, 4)
    d = decompose_bipartite(g)
    assert _certified(d) and d.part_count == 2
    for v in range(8):
        assert {_part_degree(d, p, v) for p in range(2)} == {2}


def test_bipartite_delta3_single_part():
    g = complete_bipartite_graph(3, 3)
    d = decompose_bipartite(g)
    assert _certified(d) and d.part_count == 1


def test_bipartite_k77_three_parts():
    d = decompose_bipartite(complete_bipartite_graph(7, 7))
    assert _certified(d) and d.part_count == 3


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_bipartite_balance_property(seed):
    rng = random.Random(seed)
    g = bipartite_up_to(rng.randint(2, 12), rng.randint(2, 12), rng.randint(4, 40),
                        rng.randint(2, 10), rng, simple=False)
    if g.edge_count == 0:
        return
    d = decompose_bipartite(g)
    assert _certified(d)
    assert d.part_count <= max(1, -(-g.max_degree // 3))
    for v in range(g.vertex_count):
        degs = [_part_degree(d, p, v) for p in range(d.part_count)]
        if degs:
            assert max(degs) - min(degs) <= 1


# -- eulerian bipartite ------------------------------------------------------------------

def test_eulerian_k44_single_part():
    d = decompose_eulerian_bipartite(complete_bipartite_graph(4, 4))
    assert _certified(d) and d.part_count == 1
    cert = EdgeColoring(d.graph, d.colors)
    assert all(sorted(cert.palette(v)) == [1, 2, 3, 4] for v in range(8))


def test_eulerian_c6_single_part():
    d = decompose_eulerian_bipartite(cycle_graph(6))
    assert _certified(d) and d.part_count == 1


def test_eulerian_rejects_odd_degree():
    with pytest.raises(GraphError):
        decompose_eulerian_bipartite(complete_bipartite_graph(3, 3))


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_eulerian_random(seed):
    rng = random.Random(seed)
    g = random_eulerian_bipartite(rng.randint(2, 7), rng.randint(2, 7),
                                  rng.randint(1, 6), rng.randint(1, 4), 12, rng)
    if g.edge_count == 0:
        return
    d = decompose_eulerian_bipartite(g)
    assert _certified(d)
    assert d.part_count <= -(-g.max_degree // 4)


@given(st.integers(0, 100_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_eulerian_matches_the_per_pair_reference(seed, spread):
    # one walk over the (vertex, factor) slots colors every pair of factors as
    # two_factor_pair_colors colors each pair on its own
    rng = random.Random(seed)
    g = random_eulerian_bipartite(rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 8),
                                  rng.randint(1, 5), rng.choice((2, 4, 6, 8, 12)), rng)
    if spread:
        g = _spread(g, rng)
    assert decompose_eulerian_bipartite(g) == reference_decompose_eulerian_bipartite(g)


# -- biregular -----------------------------------------------------------------------------

@pytest.mark.parametrize("a,b,bound", [(3, 6, 2), (3, 9, 2), (4, 8, 2), (5, 10, 3)])
def test_biregular_bounds(a, b, bound):
    g = random_biregular(a, b, 2, random.Random(17))
    d = decompose_biregular(g)
    assert _certified(d) and d.part_count <= bound


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("r", range(2, 5))
@pytest.mark.parametrize("multigraph", [True, False])
def test_biregular_part_count_is_its_formula(k, r, multigraph):
    # configuration pairing at this scale gives parallel edges; K_{kr,k} is simple
    g = (random_biregular(k, k * r, 2, random.Random(10 * k + r)) if multigraph
         else complete_bipartite_graph(k * r, k))
    d = decompose_biregular(g)
    assert _certified(d) and d.part_count == max(2, k - 2)


def test_biregular_k63():
    d = decompose_biregular(complete_bipartite_graph(6, 3))
    assert _certified(d) and d.part_count == 2


def test_biregular_orients_each_component_by_its_own_degrees():
    # K_{6,3} beside K_{3,6}: the first component's smallest vertex has degree 3,
    # the second's degree 6, so they lie on opposite sides of the (3,6) shape
    k63, k36 = complete_bipartite_graph(6, 3), complete_bipartite_graph(3, 6)
    g = build_graph(18, k63.edges + tuple((u + 9, v + 9) for u, v in k36.edges))
    d = decompose_biregular(g)
    assert _certified(d) and d.part_count == 2
    d, trace = run_named_method(g, "biregular")
    assert _certified(d) and d.part_count == 2
    assert trace.bound_formula == "max(2, 3-2) = 2"


def test_biregular_rejects_wrong_shape():
    with pytest.raises(GraphError):
        decompose_biregular(complete_bipartite_graph(4, 4))
    # each component is (k,kr)-biregular, but with different pairs
    k63, k84 = complete_bipartite_graph(6, 3), complete_bipartite_graph(8, 4)
    g = build_graph(21, k63.edges + tuple((u + 9, v + 9) for u, v in k84.edges))
    with pytest.raises(GraphError, match="components differ in side degrees"):
        decompose_biregular(g)


@pytest.mark.parametrize("call", [
    konig_color, lambda g: equalized_bipartite_color(g, 2), decompose_bipartite,
    decompose_eulerian_bipartite, decompose_biregular, color_low_even_bipartite,
], ids=["konig_color", "equalized_bipartite_color", "decompose_bipartite",
        "decompose_eulerian_bipartite", "decompose_biregular", "color_low_even_bipartite"])
def test_bipartite_entries_name_an_odd_cycle(call):
    with pytest.raises(GraphError, match=r"^graph is not bipartite: odd cycle ") as info:
        call(cycle_graph(5))
    cycle = str(info.value).rsplit(" ", 1)[1].split("-")
    assert sorted(map(int, cycle)) == [0, 1, 2, 3, 4]


@given(st.integers(0, 100_000), st.integers(3, 6), st.integers(2, 4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_star_matching_is_one_edge_per_small_vertex_and_r_per_big_one(seed, k, r, isolated):
    # edges flipped at random and isolated vertices mixed in, so neither the edge
    # orientation nor the vertex ids say which side a vertex is on
    rng = random.Random(seed)
    h = random_biregular(k, k * r, rng.randint(1, 3), rng)
    label = list(range(h.vertex_count + isolated))
    rng.shuffle(label)
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
             for u, v in h.edges]
    g = build_graph(len(label), edges)
    classes = equalized_bipartite_color(g, k).colors
    for c in range(1, k + 1):
        met = Counter(v for e, ce in enumerate(classes) if ce == c for v in g.edges[e])
        for v in range(g.vertex_count):
            assert met[v] == {0: 0, k: 1, k * r: r}[g.degree(v)]


# -- complete multipartite --------------------------------------------------------------------

def test_multipartite_recurrence_values():
    assert multipartite_part_count(2) == 1
    assert multipartite_part_count(4) == 2
    assert multipartite_part_count(8) == 3
    assert multipartite_part_count(5) == 3


@pytest.mark.parametrize("sizes,parts", [
    ([2, 3], 1), ([1, 2, 3, 1], 2), ([2] * 8, 3), ([1] * 5, 3),
])
def test_multipartite_exact_part_counts(sizes, parts):
    d, _ = run_named_method(complete_multipartite_graph(sizes), "complete-multipartite")
    assert _certified(d) and d.part_count == parts == multipartite_part_count(len(sizes))


def _shuffled(g, rng):
    """g with its vertices relabelled and its edges reordered at random."""
    label = list(range(g.vertex_count))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return build_graph(g.vertex_count, edges)


@given(st.lists(st.integers(1, 3), min_size=2, max_size=40), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_multipartite_row_on_random_part_sizes(sizes, seed):
    g = _shuffled(complete_multipartite_graph(sizes), random.Random(seed))
    d, trace = run_named_method(g, "complete-multipartite")
    assert _certified(d) and d.part_count == trace.bound_value == (len(sizes) - 1).bit_length()


@given(st.sampled_from([2, 4, 8, 16, 32]), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_multipartite_levels_of_a_power_of_two_are_the_halvings(r, seed):
    # the highest differing bit of two part indices is the halving that splits them
    rng = random.Random(seed)
    g = _shuffled(complete_multipartite_graph([rng.randint(1, 3) for _ in range(r)]), rng)
    parts = detect_complete_multipartite(g)
    assert thickness._multipartite_dicts(g, parts) == reference_multipartite_dicts(g, parts)


@given(st.lists(st.integers(1, 3), min_size=2, max_size=12), st.integers(0, 10_000),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_multipartite_near_misses_are_refused_as_by_the_pair_check(sizes, seed, remove):
    # one edge removed or added; the result is complete multipartite again only
    # when two singleton parts lose their edge or a part of two gains one
    rng = random.Random(seed)
    g = complete_multipartite_graph(sizes)
    part_of = {v: len(p) for p in multipartite_parts(sizes) for v in p}
    edges = list(g.edges)
    if remove:
        u, v = edges.pop(rng.randrange(len(edges)))
        still = part_of[u] == part_of[v] == 1 and len(sizes) > 2
    else:
        u, v = rng.sample(range(g.vertex_count), 2)
        edges.append((u, v))
        still = part_of[u] == 2 and (u, v) not in g.edges and (v, u) not in g.edges
    h = _shuffled(build_graph(g.vertex_count, edges), rng)
    parts = detect_complete_multipartite(h)
    assert parts == reference_detect_complete_multipartite(h)
    assert (parts is not None) == still


def test_multipartite_row_calls_no_kernel_per_split(monkeypatch):
    # one pass over the edges: a kernel call per split of the 100 parts would
    # scan all 11,125 edges 99 times
    calls = []
    for name in ("staircase_bipartite_colors", "latin_bipartite_colors",
                 "balanced_multipartite_colors"):
        kernel = getattr(thickness, name)
        monkeypatch.setattr(thickness, name,
                            lambda *args, _kernel=kernel: calls.append(1) or _kernel(*args))
    d, _ = run_named_method(complete_multipartite_graph([1, 2] * 50), "complete-multipartite")
    assert calls == [] and _certified(d) and d.part_count == 7


def test_detect_complete_multipartite():
    g = complete_bipartite_graph(6, 3)
    parts = detect_complete_multipartite(g)
    assert parts is not None and sorted(map(len, parts)) == [3, 6]
    assert detect_complete_multipartite(cycle_graph(5)) is None


@given(st.lists(st.integers(1, 4), min_size=2, max_size=5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_detect_complete_multipartite_after_relabelling(sizes, seed):
    # the 2*Delta < V shortcut must not reject a complete multipartite graph
    rng = random.Random(seed)
    g = complete_multipartite_graph(sizes)
    label = list(range(g.vertex_count))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in g.edges]
    rng.shuffle(edges)
    parts = detect_complete_multipartite(build_graph(g.vertex_count, edges))
    expected = {frozenset(label[v] for v in part) for part in multipartite_parts(sizes)}
    assert parts is not None and set(map(frozenset, parts)) == expected


# -- balanced families ------------------------------------------------------------------------

def test_balanced_k33_two_parts():
    d, _ = run_named_method(complete_multipartite_graph([3] * 3), "balanced-multipartite")
    assert _certified(d) and d.part_count == 2


def test_balanced_even_single_part():
    d, _ = run_named_method(complete_multipartite_graph([2] * 4), "balanced-multipartite")
    assert _certified(d) and d.part_count == 1


def test_odd_complete_k5_is_k4_plus_star():
    d, _ = run_named_method(complete_graph(5), "balanced-multipartite")
    assert _certified(d) and d.part_count == 2
    sizes = sorted(len(d.part_edges(p)) for p in range(2))
    assert sizes == [4, 6]  # the star at the removed vertex and K_4


def test_semiregular_even_full_palettes():
    d, _ = run_named_method(complete_multipartite_graph([2, 2, 4]), "semiregular-multipartite")
    assert _certified(d) and d.part_count == 1
    cert = EdgeColoring(d.graph, d.colors)
    for v in range(4):
        assert sorted(cert.palette(v)) == [1, 2, 3, 4, 5, 6]


def test_semiregular_odd_three_parts():
    d, _ = run_named_method(complete_multipartite_graph([1, 1, 1, 3]),
                            "semiregular-multipartite")
    assert _certified(d) and d.part_count <= 3


def _relabelled(sizes, rng):
    """K_{sizes} with its vertex labels permuted and its edges in random order."""
    g = complete_multipartite_graph(sizes)
    label = list(range(g.vertex_count))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return build_graph(g.vertex_count, edges)


@given(st.integers(0, 100_000), st.booleans())
@settings(max_examples=40, deadline=None)
def test_balanced_and_semiregular_rows_color_any_labelling(seed, semiregular):
    rng = random.Random(seed)
    if semiregular:
        n, r = rng.randint(1, 4), rng.randint(2, 5)
        sizes, method, bound = [n] * r + [n * r], "semiregular-multipartite", 3
    else:
        n, r = rng.randint(1, 6), rng.randint(2, 7)
        sizes, method, bound = [n] * r, "balanced-multipartite", 2
    if n * r % 2 == 0:
        bound = 1
    g = _relabelled(sizes, rng)
    d, trace = run_named_method(g, method)
    assert reference_verify_decomposition(g, d).interval
    assert d.part_count == trace.bound_value == bound
    d, trace = dispatch_theta_upper(g)
    assert reference_verify_decomposition(g, d).interval
    assert d.part_count <= bound


def test_balanced_and_semiregular_rows_one_part_whenever_nr_even():
    for n in range(1, 7):
        for r in range(2, 8):
            if n * r % 2 == 0:
                g = complete_multipartite_graph([n] * r)
                d, _ = run_named_method(g, "balanced-multipartite")
                assert _certified(d) and d.part_count == 1, (n, r)
                if n <= 4 and r <= 5:
                    g = complete_multipartite_graph([n] * r + [n * r])
                    d, _ = run_named_method(g, "semiregular-multipartite")
                    assert _certified(d) and d.part_count == 1, (n, r)


@pytest.mark.parametrize("sizes", [[2] * 5, [4] * 3, [6] * 3, [2] * 7,
                                   [4] * 3 + [12], [2] * 5 + [10]])
def test_odd_r_multipartite_with_nr_even_in_one_part(sizes):
    g = complete_multipartite_graph(sizes)
    d, trace = dispatch_theta_upper(g)
    assert reference_verify_decomposition(g, d).interval
    assert d.part_count == trace.bound_value == 1


# -- forest peel -------------------------------------------------------------------------------

def test_forest_peel_tree():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert decompose_forest_peel(g).part_count == 1


def test_forest_peel_k5_reaches_arboricity():
    d = decompose_forest_peel(complete_graph(5))
    assert _certified(d) and d.part_count == 3


def test_forest_peel_c4_plus_chord():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    d = decompose_forest_peel(g)
    assert _certified(d) and d.part_count == 2


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_forest_peel_matches_the_subgraph_reference(seed):
    rng = random.Random(seed)
    g = cactus_like_graph(rng, seed % 4) if seed % 5 else _random_connected(rng, seed % 2)[0]
    assert decompose_forest_peel(g) == reference_forest_peel(g)


def test_forest_peel_builds_no_subgraph(monkeypatch):
    def refused(self, edge_ids):
        raise AssertionError("decompose_forest_peel built a subgraph")

    monkeypatch.setattr(multigraph.Multigraph, "subgraph", refused)
    g = complete_graph(6)
    assert decompose_forest_peel(g).part_count == 3


# -- cyclic split ------------------------------------------------------------------------------

def test_split_cyclic_c5():
    g = cycle_graph(5)
    d = split_cyclic(g, EdgeColoring(g, (1, 2, 3, 4, 5)), 5)
    assert _certified(d) and d.part_count == 2
    assert sorted(len(d.part_edges(p)) for p in range(2)) == [1, 4]


def test_split_cyclic_interval_input_single_part():
    g = cycle_graph(6)
    d = split_cyclic(g, EdgeColoring(g, (1, 2, 1, 2, 1, 2)), 2)
    assert _certified(d) and d.part_count == 1


def test_split_cyclic_search_found_circular_complete():
    g = circular_complete_graph(7, 2)
    t = 2 * g.max_degree - 2
    col = exact_cyclic_interval_coloring(g, t)
    assert col is not None
    d = split_cyclic(g, col, t)
    assert _certified(d) and d.part_count <= 2


def test_split_cyclic_rejects_small_t():
    g = complete_bipartite_graph(3, 3)
    col = exact_cyclic_interval_coloring(g, 3)
    assert col is not None
    with pytest.raises(GraphError):
        split_cyclic(g, col, 3)


def test_split_cyclic_rejects_a_coloring_that_is_not_cyclic():
    g = cycle_graph(5)
    with pytest.raises(GraphError, match="^coloring is not a cyclic interval coloring$"):
        split_cyclic(g, EdgeColoring(g, (1, 3, 1, 3, 2)), 5)


# -- dispatcher --------------------------------------------------------------------------------

def test_dispatch_k33():
    d, trace = dispatch_theta_upper(complete_bipartite_graph(3, 3))
    assert d.part_count == 1 and trace.certified


def test_dispatch_k5_cites_odd_complete():
    d, trace = dispatch_theta_upper(complete_graph(5))
    assert d.part_count == 2
    assert "odd complete" in trace.bound_formula


def test_dispatch_three_colored_cubic_graphs_take_the_subcubic_row():
    # above 20 edges the subcubic row reads the fan engine's coloring, which
    # uses 3 colors on these non-bipartite class-1 graphs in generator order
    for seed in range(20):
        g, _ = random_cubic_class1(30, random.Random(seed))
        d, trace = dispatch_theta_upper(g)
        assert d.part_count == 1 and trace.method == "subcubic"
        d, trace = run_named_method(g, "subcubic")
        assert _certified(d) and d.part_count == 1


def test_dispatch_computes_one_proper_coloring(monkeypatch):
    # the subcubic and five-class-general rows share the dispatch's one coloring
    calls = []
    original = thickness.exact_chromatic_index

    def counting(g, *args):
        calls.append(g.edge_count)
        return original(g, *args)

    monkeypatch.setattr(thickness, "exact_chromatic_index", counting)
    d, trace = dispatch_theta_upper(_petersen())
    assert calls == [15]
    assert d.part_count == 2 and trace.method == "five-class-general"


def test_dispatch_empty_graph():
    d, trace = dispatch_theta_upper(build_graph(3, []))
    assert d.part_count == 0 and trace.method == "empty"


@given(st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_dispatch_random_delta7(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 12)
    seen = set()
    deg = [0] * n
    for _ in range(40):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and deg[u] < 7 and deg[v] < 7 and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    g = build_graph(n, sorted(seen))
    if g.edge_count == 0:
        return
    d, trace = dispatch_theta_upper(g)
    assert _certified(d)
    assert d.part_count <= 2 * -(-8 // 5)  # Vizing instantiation at Delta <= 7
    assert d.part_count <= trace.bound_value


def test_dispatch_requirement_graph():
    from intcolor.timetable import RequirementMatrix
    B = RequirementMatrix.from_rows([[2, 1], [1, 2]])
    g = build_requirement_graph(B)
    d, trace = dispatch_theta_upper(g)
    assert _certified(d) and d.part_count == 1  # Delta = 3


# -- oracle dominance ---------------------------------------------------------------------------

@given(st.integers(0, 100_000))
@settings(max_examples=15, deadline=None)
def test_dispatch_never_beats_exact_theta(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    edges = []
    for _ in range(rng.randint(1, 9)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    g = build_graph(n, edges[:9])
    if g.edge_count == 0:
        return
    d, _ = dispatch_theta_upper(g)
    assert d.part_count >= exact_theta(g)


def test_bipartite_thirds_of_a_hub_is_linear():
    # K_{1,6000} makes 2000 classes of 3 edges; Konig state sized by the
    # host's 6001 vertices for each class made this quadratic
    start = time.perf_counter()
    d, _ = run_named_method(complete_bipartite_graph(1, 6000), "bipartite-thirds")
    assert time.perf_counter() - start < 1.0
    assert _certified(d) and d.part_count == 2000


def _spread(g, rng):
    """g with its vertices spread among 2E isolated ones, so relabel really renumbers."""
    n = 2 * g.edge_count + g.vertex_count
    spread = sorted(rng.sample(range(n), g.vertex_count))
    return build_graph(n, [(spread[u], spread[v]) for u, v in g.edges])


@given(st.integers(0, 100_000), st.sampled_from(["any", "subcubic", "hub"]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_bipartite_thirds_match_the_per_class_reference(seed, shape, spread):
    # the one pass over (vertex, class) slots colors every class as the per-class
    # construction does: renumbered onto its own vertices, Konig 3-colored and
    # given to the T-graph labeler
    rng = random.Random(seed)
    if shape == "hub":
        g = complete_bipartite_graph(rng.randint(1, 3), rng.randint(4, 40))
    else:
        g = bipartite_up_to(rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 40),
                            3 if shape == "subcubic" else rng.randint(4, 12), rng,
                            simple=rng.random() < 0.3)
    if spread:
        g = _spread(g, rng)
    assert decompose_bipartite(g) == reference_decompose_bipartite(g)


def test_bipartite_thirds_make_one_konig_3_coloring(monkeypatch):
    # no class is renumbered, Konig colored or given to subcubic_colors on its own
    calls = []
    konig, relabel = thickness._konig_state, thickness.relabel
    monkeypatch.setattr(thickness, "_konig_state",
                        lambda n, edges, k: calls.append(("konig", k)) or konig(n, edges, k))
    monkeypatch.setattr(thickness, "relabel",
                        lambda edges, eids: calls.append("relabel") or relabel(edges, eids))
    monkeypatch.setattr(thickness, "subcubic_colors", None)
    rng = random.Random(3)
    for g in (_spread(random_bipartite(8, 8, 60, 12, rng, simple=False), rng),
              complete_bipartite_graph(3, 3), complete_bipartite_graph(1, 300)):
        calls.clear()
        d = decompose_bipartite(g)
        assert calls == ["relabel", ("konig", 3)]
        assert _certified(d) and d.part_count == -(-g.max_degree // 3)


def test_bipartite_with_parallel_edges():
    # lecture multigraphs have parallel edges whenever b_ij > 1
    g = build_graph(4, [(0, 2), (0, 2), (0, 3), (1, 2), (1, 3), (1, 3), (0, 3), (1, 2)])
    d = decompose_bipartite(g)
    assert _certified(d)
    assert d.part_count <= max(1, -(-g.max_degree // 3))


def test_decomposers_are_deterministic():
    g = complete_bipartite_graph(5, 7)
    assert decompose_bipartite(g) == decompose_bipartite(g)
    assert decompose_forest_peel(g) == decompose_forest_peel(g)
    d1, t1 = dispatch_theta_upper(g)
    d2, t2 = dispatch_theta_upper(g)
    assert d1 == d2 and t1 == t2


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_dispatch_floors_bound_their_decomposers(seed):
    rng = random.Random(seed)
    g, side = _random_connected(rng, bipartite=True)
    side_max = [max(g.degree(v) for v in range(g.vertex_count) if side[v] == s)
                for s in (0, 1)]
    assert decompose_bipartite(g).part_count == max(1, -(-g.max_degree // 3))
    assert decompose_forest_peel(g).part_count <= min(side_max)
    h = _random_connected(rng, bipartite=False)[0]
    assert decompose_forest_peel(h).part_count <= h.max_degree
    for x in (g, h):
        assert decompose_forest_peel(x).part_count >= -(-x.edge_count // (x.vertex_count - 1))


@given(st.integers(0, 100_000), st.booleans())
@settings(max_examples=40, deadline=None)
def test_forest_peel_reports_its_proven_bound(seed, bipartite):
    g, side = _random_connected(random.Random(seed), bipartite)
    d, trace = run_named_method(g, "forest-peel")
    if bipartition(g) is None:
        assert trace.bound_formula == f"Delta = {g.max_degree}"
    else:
        bound = min(max(g.degree(v) for v in range(g.vertex_count) if side[v] == s)
                    for s in (0, 1))
        assert trace.bound_formula == f"min-side max degree = {bound}"
    assert d.part_count <= trace.bound_value


def test_dispatch_skips_candidates_that_cannot_win(monkeypatch):
    def must_be_skipped(*args, **kwargs):
        raise RuntimeError("ran a candidate that cannot beat the best so far")

    # the row calls the core, not the public entry that re-checks the coloring
    monkeypatch.setattr(thickness, "_decompose_general", must_be_skipped)
    monkeypatch.setattr(thickness, "decompose_forest_peel", must_be_skipped)
    assert dispatch_theta_upper(random_tree(2000, random.Random(3)))[0].part_count == 1
    assert dispatch_theta_upper(cycle_graph(8))[0].part_count == 1
    # K_7 is 6-regular of odd order, so 2 parts is already a lower bound
    d, trace = dispatch_theta_upper(complete_graph(7))
    assert d.part_count == 2 and trace.method == "balanced-multipartite"


def test_dispatch_propagates_internal_faults(monkeypatch):
    def broken(g):
        raise AssertionError("broken kernel")

    monkeypatch.setattr(thickness, "color_cactus", broken)
    with pytest.raises(AssertionError, match="broken kernel"):
        dispatch_theta_upper(_CACTUS)


def test_cactus_row_refuses_a_cycle_by_its_counts(monkeypatch):
    # Delta <= 2 with E >= V is a cycle: the cactus row refuses it before any walk
    def must_not_run(g):
        raise RuntimeError("the cactus kernel walked a cycle")

    monkeypatch.setattr(thickness, "color_cactus", must_not_run)
    assert [dispatch_theta_upper(cycle_graph(n))[0].part_count for n in (5, 8)] == [2, 1]
    with pytest.raises(GraphError, match="^a bare cycle is not a cactus instance$"):
        run_named_method(cycle_graph(6), "cactus")


def _disjoint_union(pieces, isolated=0):
    edges, offset = [], 0
    for p in pieces:
        edges.extend((u + offset, v + offset) for u, v in p.edges)
        offset += p.vertex_count
    return build_graph(offset + isolated, edges)


def _clash_at_one_vertex(kernel):
    """kernel with its output corrupted: two edges at one vertex share a color."""
    def corrupted(g, *args):
        colors = list(kernel(g, *args).colors)
        first, second = next(inc for inc in g.incidence if len(inc) >= 2)[:2]
        colors[second] = colors[first]
        return EdgeColoring(g, tuple(colors))
    return corrupted


def _clash(edges, eids, colors):
    """colors with two of the edges eids that meet at a vertex given one color."""
    at = {}
    for e in eids:
        for v in edges[e]:
            at.setdefault(v, []).append(e)
    first, second = next(es for es in at.values() if len(es) >= 2)[:2]
    colors[second] = colors[first]
    return colors


def _clash_in_slots(kernel):
    """_slot_pass or _factor_walk with its output corrupted: the first two edges
    at one vertex share a color.  The vertices of _slot_pass are slots: (vertex,
    class) pairs under decompose_bipartite, the vertices of a group's side A
    under five-class-general."""
    return lambda edges, *state: _clash(edges, range(len(edges)), kernel(edges, *state))


def _general_from_konig(g):
    return decompose_general(g, konig_color(g))


def _trees(count):
    return [random_tree(12, random.Random(seed)) for seed in range(count)]


# two triangles joined by a bridge whose ends carry a pendant edge each: Delta = 4
_CACTUS = build_graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (2, 6), (3, 7)])


@pytest.mark.parametrize("kernel,g,run,method", [
    ("color_forest", random_tree(30, random.Random(1)), dispatch_theta_upper, "forest"),
    ("color_cactus", _CACTUS, dispatch_theta_upper, "cactus"),
    ("color_low_even_bipartite", complete_bipartite_graph(2, 4), dispatch_theta_upper,
     "low-even-bipartite"),
    ("color_subcubic", complete_bipartite_graph(3, 3), dispatch_theta_upper, "subcubic"),
    ("_slot_pass", complete_bipartite_graph(5, 5), decompose_bipartite, None),
    ("color_forest", _disjoint_union(_trees(3)), dispatch_theta_upper, "componentwise"),
    ("_slot_pass", complete_bipartite_graph(5, 5), _general_from_konig, None),
    ("color_subcubic", _disjoint_union(map(cycle_graph, (4, 2, 6, 4))), dispatch_theta_upper,
     "componentwise"),
    ("_factor_walk", complete_bipartite_graph(4, 4), decompose_eulerian_bipartite, None),
])
def test_corrupted_kernel_output_fails_certification(monkeypatch, kernel, g, run, method):
    # kernels do not check their own output; the certification of the result does
    if method is not None:
        assert dispatch_theta_upper(g)[1].method == method
    corrupt = {"_slot_pass": _clash_in_slots,
               "_factor_walk": _clash_in_slots}.get(kernel, _clash_at_one_vertex)
    monkeypatch.setattr(thickness, kernel, corrupt(getattr(thickness, kernel)))
    with pytest.raises(AssertionError, match="failed certification"):
        run(g)


def test_dispatch_certifies_each_result_once(monkeypatch):
    checked = []
    original = thickness.verify_decomposition

    def counting(g, d):
        checked.append(g.edge_count)
        return original(g, d)

    monkeypatch.setattr(thickness, "verify_decomposition", counting)
    dispatch_theta_upper(random_tree(12, random.Random(0)))
    assert len(checked) == 1
    checked.clear()
    # the tree components are closed by one forest run and one check; the merge of
    # certified components is not re-checked
    dispatch_theta_upper(_disjoint_union(_trees(3)))
    assert checked == [33]


def test_dispatch_batches_trees_and_even_cycles(monkeypatch):
    checked, alone = [], []
    verify_original = thickness.verify_decomposition
    connected_original = thickness._dispatch_connected

    def counting_verify(g, d):
        checked.append(g.edge_count)
        return verify_original(g, d)

    def counting_connected(g):
        alone.append(g.edge_count)
        return connected_original(g)

    monkeypatch.setattr(thickness, "verify_decomposition", counting_verify)
    monkeypatch.setattr(thickness, "_dispatch_connected", counting_connected)
    pieces = [_CACTUS, cycle_graph(4)] + _trees(2) + [cycle_graph(6), _CACTUS, cycle_graph(2)]
    d, trace = dispatch_theta_upper(_disjoint_union(pieces, isolated=2))
    # one batch of the two cacti's 18 edges, one of 22 tree edges and one of 12
    # even-cycle edges, one check each; nothing is dispatched alone
    assert sorted(checked) == [12, 18, 22] and alone == []
    assert d.part_count == 1 and _certified(d)
    assert trace.bound_formula == "max over 7 components: cactus [cactus: 1]"


_PIECE_KINDS = ("edge", "path", "tree", "even-cycle", "odd-cycle", "cactus", "k33", "isolated")


def _piece(kind, rng):
    if kind == "edge":
        return build_graph(2, [(0, 1)])
    if kind == "path":
        n = rng.randint(3, 7)
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "tree":
        return random_tree(rng.randint(2, 10), rng)
    if kind == "even-cycle":
        return cycle_graph(rng.choice((2, 4, 6, 8)))     # 2: a parallel pair
    if kind == "odd-cycle":
        return cycle_graph(rng.choice((3, 5, 7)))
    if kind == "cactus":
        return random_cactus(rng.randint(1, 3), rng)
    if kind == "k33":
        return complete_bipartite_graph(3, 3)
    return build_graph(1, [])


def _shuffled_union(pieces, rng):
    """The disjoint union of pieces with its vertex labels, edge ids and edge
    ends shuffled."""
    g = _disjoint_union(pieces)
    label = list(range(g.vertex_count))
    rng.shuffle(label)
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
             for u, v in g.edges]
    rng.shuffle(edges)
    return build_graph(g.vertex_count, edges)


@given(st.lists(st.sampled_from(_PIECE_KINDS), min_size=1, max_size=8), st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_batched_componentwise_matches_one_dispatch_per_component(kinds, seed):
    rng = random.Random(seed)
    g = _shuffled_union([_piece(kind, rng) for kind in kinds], rng)
    assume(g.edge_count > 0)
    d, trace = thickness._dispatch_componentwise(g)
    ref_d, ref_trace = reference_dispatch_componentwise(g)
    assert d.parts == ref_d.parts and d.colors == ref_d.colors
    assert repr(trace) == repr(ref_trace)


# two triangles at one vertex, a theta graph and K_4: near misses that the cactus
# batch takes in by their counts and the cactus kernel then refuses (K_4 has too
# many edges and is never taken in)
_NEAR_MISSES = {
    "bowtie": build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
    "theta": build_graph(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)]),
    "k4": complete_graph(4),
}
_BATCH_KINDS = ("cactus", "tree", "path", "even-cycle", "odd-cycle", *_NEAR_MISSES)


def _batch_piece(kind, rng):
    if kind == "cactus":
        # cycles of 2 to 6 edges, a digon among them now and then
        while True:
            g = cactus_like_graph(rng, 0)
            if 3 <= g.max_degree <= 4:
                return g
    if kind in _NEAR_MISSES:
        return _NEAR_MISSES[kind]
    if kind in ("tree", "path"):
        return _piece(kind, rng)
    return cycle_graph(rng.choice((2, 4, 6) if kind == "even-cycle" else (3, 5, 7)))


@given(st.lists(st.sampled_from(_BATCH_KINDS), min_size=1, max_size=8), st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_cactus_batch_matches_one_dispatch_per_component(kinds, seed):
    rng = random.Random(seed)
    g = _shuffled_union([_batch_piece(kind, rng) for kind in kinds], rng)
    d, trace = thickness._dispatch_componentwise(g)
    ref_d, ref_trace = reference_dispatch_componentwise(g)
    assert d.parts == ref_d.parts and d.colors == ref_d.colors
    assert repr(trace) == repr(ref_trace)


def test_a_refused_cactus_batch_dispatches_every_member_alone(monkeypatch):
    refused, alone = [], []
    cactus_original = thickness.color_cactus
    connected_original = thickness._dispatch_connected

    def counting_cactus(g):
        try:
            return cactus_original(g)
        except GraphError:
            refused.append(g.edge_count)
            raise

    monkeypatch.setattr(thickness, "color_cactus", counting_cactus)
    monkeypatch.setattr(thickness, "_dispatch_connected",
                        lambda g: alone.append(g.edge_count) or connected_original(g))
    k = 5
    pieces = [random_cactus(blocks, random.Random(blocks)) for blocks in range(1, k + 1)]
    g = _disjoint_union(pieces + [_NEAR_MISSES["bowtie"]])
    d, trace = dispatch_theta_upper(g)
    # the batch of all k + 1 members is refused once, at the bowtie, and then
    # every member is dispatched alone, where the bowtie is refused again
    assert refused == [g.edge_count, 6]
    assert sorted(alone) == sorted([p.edge_count for p in pieces] + [6])
    ref_d, ref_trace = reference_dispatch_componentwise(g)
    assert d.parts == ref_d.parts and d.colors == ref_d.colors
    assert repr(trace) == repr(ref_trace)


def test_dispatch_closes_a_union_of_cacti_in_one_run(monkeypatch):
    checked, alone = [], []
    verify_original = thickness.verify_decomposition
    connected_original = thickness._dispatch_connected
    monkeypatch.setattr(thickness, "verify_decomposition",
                        lambda g, d: checked.append(g.edge_count) or verify_original(g, d))
    monkeypatch.setattr(thickness, "_dispatch_connected",
                        lambda g: alone.append(g.edge_count) or connected_original(g))
    pieces = [random_cactus(blocks, random.Random(blocks)) for blocks in range(1, 8)]
    g = _disjoint_union(pieces)
    d, trace = dispatch_theta_upper(g)
    assert checked == [g.edge_count] and alone == []
    assert d.part_count == 1 and _certified(d)
    assert trace.bound_formula == "max over 7 components: cactus [cactus: 1]"


def test_dispatch_disconnected_is_componentwise():
    # K_{7,7} is interval colorable (1 part) and K_3 needs 2: the merge needs 2
    k77 = complete_bipartite_graph(7, 7)
    edges = list(k77.edges) + [(14, 15), (15, 16), (16, 14)]
    g = build_graph(17, edges)
    d, trace = dispatch_theta_upper(g)
    assert _certified(d)
    assert d.part_count == 2
    assert trace.method == "componentwise"


def test_dispatch_ignores_isolated_vertex():
    k77 = complete_bipartite_graph(7, 7)
    g = build_graph(15, list(k77.edges))
    d, trace = dispatch_theta_upper(g)
    assert _certified(d)
    assert d.part_count == 1
    assert trace == dispatch_theta_upper(k77)[1]


def _small_random_graph(rng):
    n = rng.randint(2, 7)
    edges = [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                 for _ in range(rng.randint(1, 12))) if u != v]
    return build_graph(n, edges)


@given(st.integers(0, 100_000), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_dispatch_union_takes_max_of_components(seed, isolated):
    rng = random.Random(seed)
    pieces = [_small_random_graph(rng) for _ in range(rng.randint(2, 3))]
    pieces = [p for p in pieces if p.edge_count]
    if not pieces:
        return
    d, _ = dispatch_theta_upper(_disjoint_union(pieces, isolated))
    assert _certified(d)
    assert d.part_count == max(dispatch_theta_upper(p)[0].part_count for p in pieces)


def test_loops_raise_instead_of_hanging():
    # forest peeling would never end on a loop, and no graph can hold one
    with pytest.raises(GraphError, match="edge 1 is a loop"):
        build_graph(2, [(0, 1), (1, 1)])
    with pytest.raises(GraphError, match="edge 0 is a loop"):
        build_graph(1, [(0, 0)])


@st.composite
def bipartite_multigraph(draw):
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)),
                          min_size=1, max_size=24))
    return build_graph(nx + ny, [(x, nx + y) for x, y in pairs])


@given(bipartite_multigraph())
def test_general_count_on_bipartite_graphs_is_its_bound(g):
    # the dispatcher's five-class-general floor on bipartite input
    coloring = konig_color(g)
    assert coloring.colors_used() == g.max_degree
    d = decompose_general(g, coloring)
    assert d.part_count == thickness._general_bound(g.max_degree)[0]


def test_cactus_guard_admits_every_generated_cactus():
    for seed in range(30):
        for blocks in (1, 3, 6, 12):
            g = random_cactus(blocks, random.Random(seed))
            assert g.edge_count <= g.vertex_count - 1 + g.vertex_count // 2
            d, trace = dispatch_theta_upper(g)
            assert d.part_count == 1
            if g.max_degree > 3:
                assert trace.method == "cactus"


def _plain_edge_components(g, eids):
    left, out = list(eids), []
    while left:
        comp = [left.pop(0)]
        verts = set(g.edges[comp[0]])
        grown = True
        while grown:
            joining = [e for e in left if verts & set(g.edges[e])]
            grown = bool(joining)
            for e in joining:
                left.remove(e)
                comp.append(e)
                verts.update(g.edges[e])
        out.append(sorted(comp))
    return out


@given(st.integers(0, 100_000))
def test_edge_components_match_plain_definition(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    edges = [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                 for _ in range(rng.randint(0, 16))) if u != v]
    g = build_graph(n, edges)
    eids = rng.sample(range(len(edges)), rng.randint(0, len(edges)))
    # components come ordered by their smallest edge, whatever order eids has
    assert traverse(g, eids).components == _plain_edge_components(g, sorted(eids))


@pytest.mark.parametrize("spec,parts", [("path(n=16001)", 1), ("cycle(n=16001)", 2)])
def test_dispatch_of_a_walk_ordered_path_and_odd_cycle_is_linear(spec, parts):
    # a 16k-edge path and C_16001 with their edges in walk order; the dict
    # union-find the dispatcher once used took 8-9 s on each
    g = generate(FamilySpec.parse(spec)).graph
    start = time.perf_counter()
    d, _ = dispatch_theta_upper(g)
    assert time.perf_counter() - start < 1.0
    assert d.part_count == parts


@pytest.mark.parametrize("method", ["low-even-bipartite", "five-class-general"])
def test_disjoint_short_paths_are_linear(method):
    # 16k disjoint 2-edge paths: each path is walked on its own, so state sized
    # by the host's vertex count instead of by the path would cost 48k per path
    k = 16_000
    g = build_graph(3 * k, [e for i in range(k)
                            for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2))])
    start = time.perf_counter()
    d, _ = run_named_method(g, method)
    assert time.perf_counter() - start < 2.0
    assert d.part_count == 1


def _gadgets(k):
    """k gadgets: a center on a spine colored 1,2 alternately, pendants 3,4,5
    and a star 8,9,10 at the center, and edges 6,7 at the star's 8-leaf.  Each
    gadget is a component of its own in the group of classes 6-10."""
    edges, colors = [], []
    for i in range(k):
        c = 9 * i
        if i:
            edges.append((c - 9, c))
            colors.append(1 + i % 2)
        edges += [(c, c + 1), (c, c + 2), (c, c + 3), (c, c + 4), (c, c + 5), (c, c + 6),
                  (c + 4, c + 7), (c + 4, c + 8)]
        colors += [3, 4, 5, 8, 9, 10, 6, 7]
    g = build_graph(9 * k, edges)
    return g, EdgeColoring(g, tuple(colors))


def test_general_subcubic_side_per_gadget_is_linear():
    # the subcubic kernel takes its degree-3 path on the 4000 gadgets; state
    # sized by the host's 36k vertices instead of by the subset would cost 36k
    # per call when a group is split one component at a time
    g, coloring = _gadgets(4000)
    start = time.perf_counter()
    d = decompose_general(g, coloring)
    assert time.perf_counter() - start < 3.0
    assert d.part_count == 4


def test_general_splits_a_group_whole_without_a_traversal(monkeypatch):
    # in both groups a center meets three classes and side A is stars, so
    # neither group is traversed; split one component at a time, the 4000
    # gadgets cost 2 group traversals and 4001 component ones
    calls = []
    original = thickness.traverse

    def counting(g, eids=None):
        calls.append(eids)
        return original(g, eids)

    monkeypatch.setattr(thickness, "traverse", counting)
    g, coloring = _gadgets(4000)
    d = decompose_general(g, coloring)
    assert len(calls) == 0
    assert d.part_count == 4 and reference_verify_decomposition(g, d).interval


def test_dispatch_traverses_the_graph_once(monkeypatch):
    # the host once, and each component subgraph at most once on its own
    whole = []
    original = multigraph.traverse

    def counting(g, eids=None):
        if eids is None:
            whole.append(g)
        return original(g, eids)

    monkeypatch.setattr(multigraph, "traverse", counting)
    monkeypatch.setattr(thickness, "dispatch_theta_upper",
                        lambda g: pytest.fail("componentwise dispatch re-entered"))
    pieces = _trees(2) + [complete_bipartite_graph(3, 3), complete_bipartite_graph(2, 4)]
    g = _disjoint_union(pieces, 2)
    d, trace = dispatch_theta_upper(g)
    assert trace.method == "componentwise" and d.part_count == 1
    assert whole[0] is g and len(set(map(id, whole))) == len(whole)


@given(st.integers(2, 60), st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_a_spanning_tree_is_answered_before_any_traversal(n, seed):
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
             for u, v in random_tree(n, rng).edges]
    rng.shuffle(edges)
    g = build_graph(n, edges)
    d, trace = dispatch_theta_upper(g)
    assert "traversal" not in g.__dict__
    ref_d, ref_trace = thickness._dispatch_connected(build_graph(n, edges))
    assert (d.parts, d.colors) == (ref_d.parts, ref_d.colors)
    assert repr(trace) == repr(ref_trace)


@pytest.mark.parametrize("g", [
    build_graph(4, [(0, 1), (1, 2), (2, 0)]),
    build_graph(3, [(0, 1), (1, 0)]),
], ids=["triangle-and-isolated-vertex", "doubled-edge-and-isolated-vertex"])
def test_a_cycle_with_v_minus_one_edges_falls_through_the_tree_exit(g):
    d, trace = dispatch_theta_upper(g)
    ref_d, ref_trace = reference_dispatch_componentwise(build_graph(g.vertex_count, g.edges))
    assert (d.parts, d.colors) == (ref_d.parts, ref_d.colors)
    assert repr(trace) == repr(ref_trace)
    assert trace.method != "forest"


@given(st.integers(2, 12), st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_v_minus_one_edges_match_the_componentwise_reference(n, seed):
    # loopless multigraphs with E = V - 1: trees take the exit, the rest (a
    # cycle or parallel pair, hence a second component) fall through
    rng = random.Random(seed)
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(n - 1)]
    g = build_graph(n, edges)
    d, trace = dispatch_theta_upper(g)
    ref_d, ref_trace = reference_dispatch_componentwise(build_graph(n, edges))
    assert (d.parts, d.colors) == (ref_d.parts, ref_d.colors)
    assert repr(trace) == repr(ref_trace)
    assert ("traversal" in g.__dict__) == (trace.method != "forest")


def test_forest_row_rejects_a_graph_with_as_many_edges_as_vertices():
    with pytest.raises(GraphError, match="fewer edges than vertices"):
        run_named_method(cycle_graph(4), "forest")


def test_floors_are_read_only_while_the_best_is_above_lower(monkeypatch):
    read = []
    rows = tuple((m, (lambda fl, m=m: lambda f: read.append(m) or fl(f))(fl), run)
                 for m, fl, run in thickness.CANDIDATES)
    monkeypatch.setattr(thickness, "CANDIDATES", rows)
    dispatch_theta_upper(random_tree(12, random.Random(0)))
    assert read == []
    dispatch_theta_upper(complete_graph(5))     # best 2 parts = lower from the start
    assert read == []
    # the biregular row's 2 parts are above lower = 1: later rows read their floors
    d, trace = dispatch_theta_upper(random_biregular(3, 6, 3, random.Random(0)))
    assert trace.method == "biregular" and d.part_count == 2
    assert read == ["eulerian-bipartite", "bipartite-thirds", "five-class-general",
                    "forest-peel"]


# -- lower bound -------------------------------------------------------------------

def test_overfull_lower_bound_k5_minus_an_edge():
    # not regular, but 9 edges > Delta * floor(V/2) = 4 * 2
    g = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)])
    assert _Facts(g).lower == 2


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_lower_bound_never_exceeds_exact_theta(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g = build_graph(n, [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 10))])
    assert _Facts(g).lower <= exact_theta(g)


# -- the candidate table -------------------------------------------------------------

def _random_multipartite(rng):
    n, r = rng.randint(1, 3), rng.randint(2, 4)
    sizes = rng.choice([[n] * r, [n] * r + [n * r], [rng.randint(1, 3) for _ in range(r)]])
    return complete_multipartite_graph(sizes)


@given(st.integers(0, 100_000), st.sampled_from(["any", "bipartite", "multipartite"]))
@settings(max_examples=40, deadline=None)
def test_every_row_certifies_within_its_bound_or_does_not_apply(seed, kind):
    rng = random.Random(seed)
    if kind == "multipartite":
        g = _random_multipartite(rng)
    else:
        g, _ = _random_connected(rng, bipartite=kind == "bipartite")
    for method in thickness.METHODS:
        try:
            d, trace = run_named_method(g, method)
        except GraphError:      # BudgetExceeded and InfeasibleSpec included
            continue
        assert reference_verify_decomposition(g, d).interval, method
        assert trace.method == method and d.part_count == trace.parts <= trace.bound_value


def test_named_method_names_are_the_rows():
    assert thickness.METHODS == tuple(m for m, _, _ in thickness.CANDIDATES)
    with pytest.raises(GraphError, match="auto, forest, cactus, subcubic"):
        run_named_method(cycle_graph(4), "bipartite")
    d, trace = run_named_method(complete_bipartite_graph(3, 6), "bipartite-thirds")
    assert trace.bound_formula == "ceil(6/3) = 2" and d.part_count <= 2
    with pytest.raises(GraphError, match="not bipartite"):
        run_named_method(cycle_graph(5), "bipartite-thirds")


def _with_extra_part(d):
    """d with part 0's top color class moved into a part of its own: still certified."""
    top = max(c for p, c in zip(d.parts, d.colors) if p == 0)
    moved = [p == 0 and c == top for p, c in zip(d.parts, d.colors)]
    return Decomposition(d.graph,
                         tuple(d.part_count if m else p for m, p in zip(moved, d.parts)),
                         tuple(1 if m else c for m, c in zip(moved, d.colors)))


def test_row_above_its_own_bound_raises(monkeypatch):
    original = thickness.decompose_bipartite

    def one_part_too_many(g):
        d = _with_extra_part(original(g))
        assert _certified(d)
        return d

    monkeypatch.setattr(thickness, "decompose_bipartite", one_part_too_many)
    g = generate(FamilySpec.parse("bipartite_random(nx=20,ny=20,edges=120,max_degree=9)")).graph
    with pytest.raises(AssertionError, match="above its bound"):
        run_named_method(g, "bipartite-thirds")
    with pytest.raises(AssertionError, match="above its bound"):
        dispatch_theta_upper(g)
    # a star's one forest meets the bound: the min-side max degree is 1
    peel = thickness.decompose_forest_peel
    monkeypatch.setattr(thickness, "decompose_forest_peel", lambda g: _with_extra_part(peel(g)))
    with pytest.raises(AssertionError, match="above its bound"):
        run_named_method(complete_bipartite_graph(1, 3), "forest-peel")


# -- every row earns its place -----------------------------------------------------

def _family(text):
    spec = FamilySpec.parse(text)
    return [generate(FamilySpec(spec.family, spec.params, seed)).graph for seed in (0, 1)]


def _low_even_witness():
    """A (2,4)-biregular graph with one degree-2 vertex split into two leaves:
    degrees {1, 2, 4}, so not biregular and not Eulerian."""
    g = random_biregular(2, 4, 5, random.Random(0))
    v = next(v for v in range(g.vertex_count) if g.degree(v) == 2)
    moved = g.incidence[v][1]
    return [build_graph(g.vertex_count + 1,
                        [tuple(g.vertex_count if x == v else x for x in g.edges[e])
                         if e == moved else g.edges[e] for e in range(g.edge_count)])]


def _forest_peel_witness():
    """3 hubs and 13 degree-2 vertices, vertex i joined to hubs i mod 3 and
    (i+1) mod 3: bipartite with sides of max degree 9 and 2."""
    return [build_graph(16, [(3 + i, h) for i in range(13) for h in (i % 3, (i + 1) % 3)])]


# each row's witnesses get more parts from the dispatcher without that row
ROW_WITNESSES = {
    "subcubic": lambda: _family("cubic_class1(n=30)"),
    "cactus": lambda: _family("cactus(blocks=6)"),
    "low-even-bipartite": _low_even_witness,
    "interval-oracle": lambda: _family("biregular(a=3,b=6,scale=2)"),
    "balanced-multipartite": lambda: _family("balanced(n=2,r=4)"),
    "semiregular-multipartite": lambda: _family("semiregular(n=2,r=2)"),
    "complete-multipartite": lambda: _family("complete_multipartite(sizes=3+1+2+4+2)"),
    "biregular": lambda: _family("biregular(a=5,b=10,scale=2)"),
    "eulerian-bipartite":
        lambda: _family("eulerian_bipartite(nx=6,ny=6,walks=5,walk_len=4,max_degree=8)"),
    # Delta = 6: ceil(6/3) = 2 parts, where five-class-general gives 3
    "bipartite-thirds": lambda: _family("bipartite_random(nx=10,ny=10,edges=40,max_degree=6)"),
    "five-class-general": lambda: _family("circular_complete(p=9,q=3)"),
    "forest-peel": _forest_peel_witness,
}
# rows that never lower a part count, with what they win instead
ROW_EXEMPTIONS = {
    "forest": "time: a 32k-vertex random tree takes 0.04 s here and 0.05 s by cactus "
              "(best of 7 on fresh graphs, 2-CPU Xeon, Python 3.11.7)",
}


def test_witness_tables_name_rows():
    assert not set(ROW_WITNESSES) & set(ROW_EXEMPTIONS)
    assert set(ROW_WITNESSES) | set(ROW_EXEMPTIONS) <= set(thickness.METHODS)


@pytest.mark.parametrize("method", thickness.METHODS)
def test_every_row_earns_its_place(method, monkeypatch):
    if method in ROW_EXEMPTIONS:
        return
    assert method in ROW_WITNESSES, f"row {method} has neither a witness nor an exemption"
    graphs = ROW_WITNESSES[method]()
    with_row = [dispatch_theta_upper(g)[0].part_count for g in graphs]
    monkeypatch.setattr(thickness, "CANDIDATES",
                        tuple(row for row in thickness.CANDIDATES if row[0] != method))
    assert all(dispatch_theta_upper(g)[0].part_count > k for g, k in zip(graphs, with_row))


# -- hubs: memory and work linear in E ---------------------------------------------

def _wheel(n):
    """A hub joined to every vertex of an n-cycle."""
    return build_graph(n + 1, [(0, v) for v in range(1, n + 1)]
                       + [(v, v % n + 1) for v in range(1, n + 1)])


def _triangle_star(n):
    """n triangles sharing one vertex, the hub."""
    return build_graph(2 * n + 1, [e for v in range(1, 2 * n, 2)
                                   for e in ((0, v), (0, v + 1), (v, v + 1))])


_HUBS = {"wheel": _wheel, "triangle-star": _triangle_star,
         "K_1,n": lambda n: complete_bipartite_graph(1, n),
         "K_2,n": lambda n: complete_bipartite_graph(2, n)}


def _named_peak(method, g):
    """The tracemalloc peak of one run of the named row on g."""
    g.traversal     # cached on the graph, not part of the row's state
    tracemalloc.start()
    try:
        run_named_method(g, method)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method,shape", [("five-class-general", shape) for shape in _HUBS]
                         + [("bipartite-thirds", "K_1,n"), ("bipartite-thirds", "K_2,n")])
def test_hub_rows_allocate_linearly_in_the_edges(method, shape):
    """The allocation peak of a row run by name grows at most 8x when a hub graph
    grows 4x: rows linear in E grow about 5x, while a Kempe table of n*(k+1)
    slots on a hub of degree k ~ n grows about 15x.  Peaks repeat exactly from
    run to run, where times on a shared machine do not.  The bipartite shapes
    are the ones bipartite-thirds applies to.  eulerian-bipartite is left out:
    it regularizes a hub with about n*Delta/2 loops, so its peak stays quadratic
    until the loops at a vertex are colored as one bundle."""
    small, large = (_named_peak(method, _HUBS[shape](n)) for n in (250, 1000))
    assert large <= 8 * small


def test_general_on_a_wheel_passes_each_side_a_edge_to_the_slot_pass_once(monkeypatch):
    # every group's side A is gathered for the vertices it touches alone, so the
    # slots over all groups are at most two per edge, not V per group
    slots = []
    slot_pass = thickness._slot_pass
    monkeypatch.setattr(thickness, "_slot_pass",
                        lambda edges, used, *rest: slots.append(len(used)) or
                        slot_pass(edges, used, *rest))
    g = _wheel(1200)
    d, _ = run_named_method(g, "five-class-general")
    assert len(slots) > 200 and sum(slots) <= 2 * g.edge_count
    assert _certified(d)


# -- the census of small multigraphs -------------------------------------------------

def _census():
    """Every loopless multigraph on 2-4 vertices with 1-9 edges and no isolated
    vertex, once up to isomorphism: by edge count, each graph as its smallest
    sorted edge list over all relabelings."""
    out = []
    for n in range(2, 5):
        pairs = list(itertools.combinations(range(n), 2))
        labels = list(itertools.permutations(range(n)))
        seen = set()
        for m in range(1, 10):
            for edges in itertools.combinations_with_replacement(pairs, m):
                if len({v for e in edges for v in e}) < n:
                    continue
                canon = min(tuple(sorted(tuple(sorted((s[u], s[v]))) for u, v in edges))
                            for s in labels)
                if canon not in seen:
                    seen.add(canon)
                    out.append(build_graph(n, canon))
    return out


def test_census_of_small_multigraphs_pins_the_gaps():
    # no dispatch falls below theta_int, and the gaps above it may only shrink:
    # the pin {1: 58, 2: 29} is 87 gaps of at least 1 and 29 of at least 2, so
    # a gap that narrows from 2 to 1 still passes; all but one of the 87 come
    # from five-class-general
    graphs = _census()
    assert len(graphs) == 305
    gaps = Counter()
    for g in graphs:
        parts, theta = dispatch_theta_upper(g)[0].part_count, exact_theta(g)
        assert parts >= theta
        gaps[parts - theta] += 1
    at_least = [sum(count for gap, count in gaps.items() if gap >= k) for k in (1, 2, 3)]
    assert at_least[0] <= 58 + 29 and at_least[1] <= 29 and at_least[2] == 0
