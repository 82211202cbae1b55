import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from intcolor.edge_coloring import (_KempeState, _konig_state, equalized_bipartite_color,
                                    konig_color, petersen_two_factorization,
                                    shannon_color, vizing_color)
from intcolor.generators import (complete_bipartite_graph, complete_graph,
                                 cycle_graph)
from intcolor.multigraph import GraphError, build_graph, verify
from intcolor.oracles import BudgetExceeded, exact_chromatic_index

from reference_checkers import (bipartite_up_to, reference_equalized_colors,
                                reference_fan_colors, reference_konig_colors,
                                reference_petersen_factors, two_pass_swap_chain)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def shannon_triangle():
    # three pairwise double edges; every pair of edges is adjacent
    return build_graph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])


# -- konig ------------------------------------------------------------------

def test_konig_c4_uses_two_colors():
    g = cycle_graph(4)
    col = konig_color(g)
    assert col.colors_used() == 2 and verify(g, col, "proper").proper


def test_konig_k33_three_perfect_matchings():
    g = complete_bipartite_graph(3, 3)
    col = konig_color(g)
    assert col.colors_used() == 3
    assert verify(g, col, "proper").proper
    by_color = Counter(col.colors)
    assert set(by_color.values()) == {3}


def test_konig_star_needs_degree_colors():
    g = complete_bipartite_graph(1, 5)
    assert konig_color(g).colors_used() == 5


def test_konig_rejects_non_bipartite():
    with pytest.raises(GraphError):
        konig_color(complete_graph(3))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_konig_exactly_delta_on_random_bipartite(seed):
    rng = random.Random(seed)
    g = bipartite_up_to(rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 20),
                        rng.randint(1, 8), rng, simple=False)
    if g.edge_count == 0:
        return
    col = konig_color(g)
    assert verify(g, col, "proper").proper
    assert col.colors_used() == g.max_degree


def test_konig_core_raises_on_a_closed_chain():
    # a triangle is not bipartite: its third edge's Kempe chain returns to it
    with pytest.raises(AssertionError, match="a Kempe chain closed in a bipartite graph"):
        _konig_state(3, [(0, 1), (1, 2), (2, 0)], 2)


def test_fold_with_no_fan_vertex_to_take_the_old_color_raises():
    # folding edge 1 from color 1 to 2 needs a fan vertex missing 1; vertex 1 has it
    st = _KempeState(4, [(0, 1), (0, 2), (1, 3)], 3)
    st.set_color(1, 1)
    st.set_color(2, 1)
    with pytest.raises(AssertionError, match="no earlier fan vertex"):
        st.fold(0, [0, 1], [1, 2])


# -- vizing / shannon --------------------------------------------------------

def test_vizing_k3_uses_three():
    g = complete_graph(3)
    col = vizing_color(g)
    assert verify(g, col, "proper").proper and col.colors_used() == 3


def test_vizing_k4_within_bound():
    g = complete_graph(4)
    col = vizing_color(g)
    assert verify(g, col, "proper").proper and col.colors_used() <= 4


def test_vizing_petersen_within_bound():
    g = petersen_graph()
    col = vizing_color(g)
    assert verify(g, col, "proper").proper and col.colors_used() <= 4


def test_vizing_rejects_multigraph():
    with pytest.raises(GraphError):
        vizing_color(build_graph(2, [(0, 1), (0, 1)]))


def test_shannon_triple_edge():
    g = build_graph(2, [(0, 1)] * 3)
    col = shannon_color(g)
    assert verify(g, col, "proper").proper and col.colors_used() == 3


def test_shannon_triangle_needs_six():
    g = shannon_triangle()
    assert exact_chromatic_index(g)[0] == 6  # brute force: all six edges pairwise adjacent
    col = shannon_color(g)
    assert verify(g, col, "proper").proper
    assert col.colors_used() <= 3 * g.max_degree // 2 == 6


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_shannon_bound_on_random_multigraphs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 18))]
    edges = [(u, v) for u, v in edges if u != v]
    if not edges:
        return
    g = build_graph(n, edges)
    col = shannon_color(g)
    assert verify(g, col, "proper").proper
    assert col.max_color() <= 3 * g.max_degree // 2


# -- equalized ----------------------------------------------------------------

def test_equalized_star_center_counts():
    g = complete_bipartite_graph(1, 5)
    col = equalized_bipartite_color(g, 2)
    assert sorted(Counter(col.palette(0)).values()) == [2, 3]


def test_equalized_k33_each_class_one_regular():
    g = complete_bipartite_graph(3, 3)
    col = equalized_bipartite_color(g, 3)
    for v in range(6):
        assert sorted(Counter(col.palette(v)).values()) == [1, 1, 1]


def test_equalized_k1_single_class():
    g = complete_bipartite_graph(2, 3)
    col = equalized_bipartite_color(g, 1)
    assert set(col.colors) == {1}


@given(st.integers(0, 10_000), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_equalized_counts_within_one(seed, k):
    rng = random.Random(seed)
    g = bipartite_up_to(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 18),
                        rng.randint(1, 9), rng, simple=False)
    col = equalized_bipartite_color(g, k)
    assert all(1 <= c <= k for c in col.colors)
    for v in range(g.vertex_count):
        counts = Counter(col.palette(v))
        if counts:
            assert max(counts.values()) - min(counts.values()) <= 1


# -- petersen two-factorization -------------------------------------------------

def _assert_two_factorization(n, edges, factors, r):
    assert len(factors) == r
    all_edges = [e for f in factors for e in f]
    assert sorted(all_edges) == list(range(len(edges)))
    for f in factors:
        # a loop meets its vertex twice
        assert Counter(v for e in f for v in edges[e]) == Counter({v: 2 for v in range(n)})


def test_petersen_identity_on_c6():
    g = cycle_graph(6)
    _assert_two_factorization(6, g.edges, petersen_two_factorization(6, g.edges), 1)


def test_petersen_k5_two_factors():
    g = complete_graph(5)
    _assert_two_factorization(5, g.edges, petersen_two_factorization(5, g.edges), 2)


def test_petersen_two_loops():
    factors = petersen_two_factorization(1, [(0, 0), (0, 0)])
    assert sorted(map(len, factors)) == [1, 1]


def test_petersen_rejects_irregular():
    with pytest.raises(GraphError):
        petersen_two_factorization(3, [(0, 1), (1, 2)])


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_petersen_on_random_regular_multigraphs(seed, r):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    # union of 2r random closed walks covering all vertices keeps degrees even;
    # build a 2r-regular multigraph as a union of r Hamiltonian-style cycles
    edges = []
    for _ in range(r):
        perm = list(range(n))
        rng.shuffle(perm)
        edges.extend((perm[i], perm[(i + 1) % n]) for i in range(n))
    g = build_graph(n, edges)
    _assert_two_factorization(n, g.edges, petersen_two_factorization(n, g.edges), r)


# -- the bitmask engine against the set-based reference --------------------------
# Same smallest common color, same chain, same fan: every coloring must be
# identical.  A wide case puts a hub of degree >= 70 in the graph, so the color
# masks are wider than a machine word.

WIDE = 70


def _ordered(rng, edges):
    """edges sorted or shuffled; sorted, the edges at a vertex come in a run."""
    if rng.random() < 0.5:
        return sorted(edges)
    rng.shuffle(edges)
    return edges


def _random_bipartite_multigraph(rng, wide):
    """Random sides, random cross edges, and some vertices left isolated."""
    n = rng.randint(2, 12)
    sides = [0] + [rng.randrange(2) for _ in range(n - 2)] + [1]
    side = [[v for v in range(n) if sides[v] == s] for s in (0, 1)]
    edges = [(rng.choice(side[0]), rng.choice(side[1])) for _ in range(rng.randint(1, 40))]
    if wide:
        edges += [(0, rng.choice(side[1])) for _ in range(WIDE)]
    edges = _ordered(rng, edges)
    extra = rng.randint(0, 3)     # isolated vertices at the end
    return build_graph(n + extra, edges)


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_konig_matches_set_based_engine(seed, wide):
    g = _random_bipartite_multigraph(random.Random(seed), wide)
    assert not wide or g.max_degree >= WIDE
    assert konig_color(g).colors == reference_konig_colors(g)


@given(st.integers(0, 10_000), st.booleans())
@example(5687, False)   # a Kempe interchange with two common colors to choose from
@settings(max_examples=60, deadline=None)
def test_vizing_matches_set_based_engine(seed, wide):
    # dense graphs make the fan recolor: Kempe interchanges, with a choice of colors
    rng = random.Random(seed)
    n = rng.randint(WIDE + 1, WIDE + 10) if wide else rng.randint(2, 16)
    p = rng.random() / (8 if wide else 1)
    edges = [pair for pair in combinations(range(n), 2)
             if rng.random() < p or wide and pair[0] == 0 and pair[1] <= WIDE]
    if not edges:
        return
    g = build_graph(n, _ordered(rng, edges))
    assert not wide or g.max_degree >= WIDE
    delta = g.max_degree
    k = min(delta + 1, max(3 * delta // 2, 1))
    assert vizing_color(g).colors == reference_fan_colors(g, k)


@given(st.integers(0, 10_000), st.booleans())
@example(4372, False)   # a Kempe interchange with two common colors to choose from
@settings(max_examples=60, deadline=None)
def test_shannon_matches_set_based_engine(seed, wide):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    most = rng.randint(1, 12)
    edges = [pair for pair in combinations(range(n), 2) for _ in range(rng.randint(0, most))]
    if wide:
        edges += [(0, rng.randrange(1, n)) for _ in range(WIDE)]
    if not edges:
        return
    g = build_graph(n, _ordered(rng, edges))
    assert not wide or g.max_degree >= WIDE
    delta = g.max_degree
    mu = max(Counter(g.edges).values())     # every edge is listed as (u, v) with u < v
    assert shannon_color(g).colors == reference_fan_colors(g, min(delta + mu, 3 * delta // 2))


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=30, deadline=None)
def test_equalized_matches_set_based_engine(seed, wide):
    g = _random_bipartite_multigraph(random.Random(seed), wide)
    for k in range(1, g.max_degree + 2):
        assert equalized_bipartite_color(g, k).colors == reference_equalized_colors(g, k)


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=40, deadline=None)
def test_petersen_matches_set_based_engine(seed, wide):
    # each round adds v -> perm[v] for every v: 2 to every degree, a loop at a fixed
    # point and a double edge on a 2-cycle
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    r = rng.randint(WIDE // 2, WIDE // 2 + 3) if wide else rng.randint(1, 4)
    edges = []
    for _ in range(r):
        perm = list(range(n))
        rng.shuffle(perm)
        edges.extend((v, perm[v]) for v in range(n))
    # a bare list: only a Multigraph rejects loops
    assert Counter(v for e in edges for v in e) == Counter({v: 2 * r for v in range(n)})
    assert petersen_two_factorization(n, edges) == reference_petersen_factors(n, edges)


# -- one-pass chain swap against the two-pass reference ---------------------------

def _kempe_outputs(rng):
    """Konig, every equalized, Vizing, Shannon and Petersen coloring of random inputs."""
    bip = _random_bipartite_multigraph(rng, rng.random() < 0.2)
    n = rng.randint(2, 16)
    simple = build_graph(n, [pair for pair in combinations(range(n), 2) if rng.random() < 0.5])
    m = rng.randint(2, 6)
    multi = build_graph(m, [pair for pair in combinations(range(m), 2)
                            for _ in range(rng.randint(0, 6))])
    regular = [(v, w) for _ in range(rng.randint(1, 5))
               for v, w in enumerate(rng.sample(range(n), n))]
    return (konig_color(bip).colors,
            [equalized_bipartite_color(bip, k).colors for k in range(1, bip.max_degree + 1)],
            vizing_color(simple).colors, shannon_color(multi).colors,
            petersen_two_factorization(n, regular))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_one_pass_chain_swap_matches_the_two_pass_reference(seed):
    one = _kempe_outputs(random.Random(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_KempeState, "swap_chain", two_pass_swap_chain)
        assert _kempe_outputs(random.Random(seed)) == one


def _chain_state():
    # the path 0-1-2-3-4 colored 1, 2, 1, 2 and the edge 4-5 colored 3: the
    # 2/1-chain from 0 is the path, and it ends at 4
    st = _KempeState(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 3)
    for eid, c in enumerate((1, 2, 1, 2, 3)):
        st.set_color(eid, c)
    return st


def _snapshot(st):
    return list(st.colors), list(st.used), list(st.at)


def test_chain_swap_in_one_pass_leaves_the_two_pass_state():
    one, two = _chain_state(), _chain_state()
    assert one.swap_chain(0, 2, 1, 5) and two_pass_swap_chain(two, 0, 2, 1, 5)
    assert _snapshot(one) == _snapshot(two)
    assert one.colors == [2, 1, 2, 1, 3]
    # every vertex keeps its colors but the chain's ends, whose color changed
    assert one.used == [0b100, 0b110, 0b110, 0b110, 0b1010, 0b1000]


def test_chain_swap_ending_at_the_anchor_changes_nothing():
    st = _chain_state()
    before = _snapshot(st)
    assert not st.swap_chain(0, 2, 1, 4)
    assert _snapshot(st) == before


# -- exact chromatic index -------------------------------------------------------

@pytest.mark.parametrize("graph,expected", [
    (complete_graph(3), 3),
    (complete_graph(4), 3),
    (complete_bipartite_graph(3, 3), 3),
])
def test_exact_chi_small(graph, expected):
    chi, witness = exact_chromatic_index(graph)
    assert chi == expected
    assert verify(graph, witness, "proper").proper
    assert witness.colors_used() == chi


def test_exact_chi_budget():
    with pytest.raises(BudgetExceeded):
        exact_chromatic_index(complete_bipartite_graph(5, 5))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_exact_chi_matches_konig_on_bipartite(seed):
    rng = random.Random(seed)
    g = bipartite_up_to(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 12),
                        rng.randint(1, 6), rng, simple=False)
    if not 0 < g.edge_count <= 14:
        return
    assert exact_chromatic_index(g)[0] == max(konig_color(g).colors_used(), 1)
