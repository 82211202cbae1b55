import ast
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from intcolor import oracles
from intcolor.generators import (FIXTURES, complete_bipartite_graph, complete_graph,
                                 cycle_graph, path_graph, random_cubic_class1, random_tree,
                                 sharpness_graph)
from intcolor.multigraph import EdgeColoring, build_graph, verify
from intcolor.oracles import (BudgetExceeded, _color_sweep, exact_chromatic_index,
                              exact_cyclic_interval_coloring, exact_interval_colorable,
                              exact_theta, nash_williams_arboricity)
from reference_checkers import (reference_chromatic_index,
                                reference_cyclic_interval_colorable,
                                reference_interval_colorable)


def _random_small_graph(seed, max_edges=9):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return build_graph(n, edges[:max_edges])


# -- interval colorability -------------------------------------------------------

@pytest.mark.parametrize("name,expected", [
    ("k3", False), ("c5", False), ("c7", False), ("sharpness", False),
    ("c4", True), ("k33", True), ("k4", True), ("octahedron", True),
])
def test_fixture_verdicts(name, expected):
    g = FIXTURES[name][0]
    witness = exact_interval_colorable(g)
    assert (witness is not None) == expected
    if witness is not None:
        assert verify(g, witness).interval


def test_sharpness_graph_is_class1_but_not_colorable():
    g = sharpness_graph()
    assert exact_chromatic_index(g)[0] == 4 == g.max_degree
    assert exact_interval_colorable(g) is None


def test_interval_budget():
    with pytest.raises(BudgetExceeded):
        exact_interval_colorable(complete_graph(7))


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_witnesses_always_verify(seed):
    g = _random_small_graph(seed)
    w = exact_interval_colorable(g)
    if w is not None:
        assert verify(g, w).interval


@st.composite
def small_multigraph(draw):
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=8))
    return build_graph(n, pairs)


def _component_graphs(g):
    """The subgraph of each component of g that has an edge."""
    return [g.subgraph(sorted({e for v in comp for e in g.incidence[v]}))[0]
            for comp in g.components() if len(comp) > 1]


@given(small_multigraph())
@settings(max_examples=150, deadline=None)
def test_interval_verdict_matches_brute_force(g):
    assert (exact_interval_colorable(g) is not None) == reference_interval_colorable(g)


@given(small_multigraph())
@settings(max_examples=150, deadline=None)
def test_color_sweep_matches_brute_force_on_each_component(g):
    # called directly, without the chromatic index check in front
    for sub in _component_graphs(g):
        found = _color_sweep(sub)
        assert (found is not None) == reference_interval_colorable(sub)
        if found is not None:
            assert verify(sub, EdgeColoring(sub, tuple(found))).interval


def _petersen():
    return build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


@pytest.mark.parametrize("g,colorable", [
    (random_tree(17, random.Random(5)), True),
    (path_graph(17), True),
    (complete_bipartite_graph(1, 16), True),
    (cycle_graph(16), True),
    (random_cubic_class1(10, random.Random(3))[0], True),
    (complete_bipartite_graph(3, 3), True),
    (cycle_graph(15), False),
    (_petersen(), False),
], ids=["tree16", "p17", "k1_16", "c16", "cubic10", "k33", "c15", "petersen"])
def test_sweep_decides_the_construction_families(g, colorable):
    # forests, paths, even cycles and 3-edge-colorable subcubic graphs are decided
    # by the chromatic index check and the sweep, not by their constructions
    start = time.perf_counter()
    witness = exact_interval_colorable(g)
    assert time.perf_counter() - start < 1.0
    assert (witness is not None) == colorable
    if witness is not None:
        assert verify(g, witness).interval


def test_oracles_import_no_construction():
    # neither the constructions nor the coloring engines: the graph and its verifier only
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = {("." * node.level) + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    ours = {m for m in imported if m.startswith(".") or m.split(".")[0] == "intcolor"}
    assert ours <= {".multigraph", "intcolor.multigraph"}, ours


@st.composite
def disjoint_union(draw):
    """Up to three small multigraphs side by side, isolated vertices between them."""
    edges, n = [], draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(2, 4))
        pairs = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
                              .filter(lambda p: p[0] != p[1]), min_size=1, max_size=5))
        edges += [(n + u, n + v) for u, v in pairs]
        n += k + draw(st.integers(0, 2))
    return build_graph(n, edges)


@given(disjoint_union(), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_union_verdict_is_the_conjunction_of_its_components(g, extra):
    parts = _component_graphs(g)
    w = exact_interval_colorable(g)
    assert (w is not None) == all(reference_interval_colorable(sub) for sub in parts)
    if w is not None:
        assert verify(g, w).interval
    t = max(g.max_degree, 1) + extra
    w = exact_cyclic_interval_coloring(g, t)
    assert (w is not None) == all(reference_cyclic_interval_colorable(sub, t) for sub in parts)
    if w is not None:
        assert verify(g, w, "cyclic", t=t).cyclic_interval


# -- chromatic index ------------------------------------------------------------------

def _assert_chromatic_index(g, chi):
    found, witness = exact_chromatic_index(g)
    assert found == chi
    assert verify(g, witness, "proper").proper
    assert witness.colors_used() == chi


@given(st.one_of(small_multigraph(), disjoint_union()))
@settings(max_examples=200, deadline=None)
def test_chromatic_index_matches_the_reference(g):
    _assert_chromatic_index(g, reference_chromatic_index(g))


@pytest.mark.parametrize("g,chi", [
    (_petersen(), 4),
    (complete_graph(5), 5),
    (build_graph(7, [e for e in complete_graph(7).edges if set(e) != {0, 1}]), 7),
    (build_graph(3, [(0, 1), (1, 2), (2, 0)] * 6), 18),
    # the proper sweep uses every one of its colors, so each component needs its own
    # k: one k for both would ask five colors of the single edge
    (build_graph(7, list(complete_graph(5).edges) + [(5, 6)]), 5),
], ids=["petersen", "k5", "k7_minus_edge", "fat_triangle", "k5_and_k2"])
def test_chromatic_index_fixed_cases(g, chi):
    assert reference_chromatic_index(g) == chi
    _assert_chromatic_index(g, chi)


def test_color_sweep_refutes_a_hard_multigraph():
    # 13 edges, chromatic index = max degree = 5: the chromatic index check
    # cannot refute it, the full search must
    g = build_graph(8, [(2, 3), (4, 1), (2, 7), (1, 0), (0, 1), (7, 3), (2, 3), (4, 0),
                        (2, 6), (6, 2), (4, 3), (3, 5), (0, 4)])
    assert exact_chromatic_index(g)[0] == g.max_degree == 5
    assert exact_interval_colorable(g) is None


def test_color_sweep_colors_a_multi_star():
    # one class, eight teachers, 14 lessons: the leaves' intervals tile the center's
    g = build_graph(9, [(0, 1 + j) for j, k in enumerate([1, 1, 3, 3, 1, 1, 1, 3])
                        for _ in range(k)])
    w = exact_interval_colorable(g)
    assert w is not None and verify(g, w).interval


# -- exact theta ------------------------------------------------------------------

@pytest.mark.parametrize("graph,theta", [
    (complete_graph(3), 2),
    (cycle_graph(4), 1),
    (cycle_graph(7), 2),
])
def test_exact_theta_values(graph, theta):
    assert exact_theta(graph) == theta


def test_exact_theta_budget():
    with pytest.raises(BudgetExceeded):
        exact_theta(complete_graph(6))


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_theta_one_iff_colorable(seed):
    g = _random_small_graph(seed, max_edges=7)
    assert (exact_theta(g) <= 1) == (exact_interval_colorable(g) is not None)


def test_theta_monotone_under_edge_addition_on_catalog():
    # adding one edge cannot raise theta by more than one: the edge is its own part
    for name in ("k3", "c4", "c5"):
        g = FIXTURES[name][0]
        base = exact_theta(g)
        bigger = build_graph(g.vertex_count + 1,
                             list(g.edges) + [(0, g.vertex_count)])
        assert exact_theta(bigger) <= base + 1


# -- arboricity ---------------------------------------------------------------------

def test_arboricity_tree():
    assert nash_williams_arboricity(random_tree(10, random.Random(1))) == 1


def test_arboricity_k5_and_k7():
    assert nash_williams_arboricity(complete_graph(5)) == 3
    assert nash_williams_arboricity(complete_graph(7)) == 4


def test_arboricity_budget():
    with pytest.raises(BudgetExceeded):
        nash_williams_arboricity(build_graph(15, [(0, 1)]))


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_arboricity_density_lower_bound(seed):
    g = _random_small_graph(seed)
    comps = [c for c in g.components() if len(c) > 1]
    if len(comps) != 1 or len(comps[0]) != g.vertex_count:
        return
    dense = -(-g.edge_count // (g.vertex_count - 1))
    assert nash_williams_arboricity(g) >= dense


# -- cyclic search ---------------------------------------------------------------------

def test_cyclic_search_c5():
    g = cycle_graph(5)
    w = exact_cyclic_interval_coloring(g, 5)
    assert w is not None
    assert verify(g, w, "cyclic", t=5).cyclic_interval


def test_cyclic_search_infeasible_t():
    g = complete_bipartite_graph(1, 3)
    assert exact_cyclic_interval_coloring(g, 2) is None


@given(small_multigraph(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_cyclic_verdict_matches_brute_force(g, extra):
    t = g.max_degree + extra
    w = exact_cyclic_interval_coloring(g, t)
    assert (w is not None) == reference_cyclic_interval_colorable(g, t)
    if w is not None:
        assert verify(g, w, "cyclic", t=t).cyclic_interval


@pytest.mark.parametrize("n", range(3, 14))
def test_cyclic_search_on_cycles_matches_closed_form(n):
    # an even cycle alternates two colors; along an odd cycle the colors step by
    # +-1 mod t, n odd steps summing to a nonzero multiple of t, so t is odd and
    # 3 <= t <= n
    g = cycle_graph(n)
    for t in range(1, n + 3):
        expected = (t >= 2) if n % 2 == 0 else (t % 2 == 1 and 3 <= t <= n)
        w = exact_cyclic_interval_coloring(g, t)
        assert (w is not None) == expected, t
        if w is not None:
            assert verify(g, w, "cyclic", t=t).cyclic_interval


@pytest.mark.parametrize("t,colorable", [(13, True), (14, False), (15, False)])
def test_cyclic_search_decides_c13_without_empty_colors(t, colorable):
    # with an empty color the coloring is an interval one within t-1 colors, which
    # the chromatic index refutes on an odd cycle; without one, t colors need t edges
    g = cycle_graph(13)
    start = time.process_time()
    w = exact_cyclic_interval_coloring(g, t)
    assert time.process_time() - start < 0.5
    assert (w is not None) == colorable
    if w is not None:
        assert verify(g, w, "cyclic", t=t).cyclic_interval


def test_theta_of_empty_graph_is_zero():
    assert exact_theta(build_graph(3, [])) == 0


def test_interval_oracle_on_disconnected_input():
    g = build_graph(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    assert exact_interval_colorable(g) is None  # the triangle component decides
