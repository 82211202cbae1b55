import ast
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from intcolor import subcubic, thickness
from intcolor.edge_coloring import konig_color
from intcolor.generators import (complete_bipartite_graph, complete_graph,
                                 cycle_graph, random_cubic_class1)
from intcolor.multigraph import EdgeColoring, GraphError, Multigraph, build_graph, verify
from intcolor.oracles import exact_chromatic_index
from intcolor.subcubic import OddCycleComponent, color_subcubic, subcubic_colors
import reference_checkers
from reference_checkers import reference_subcubic_colors


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
    # Delta = 3, so the C_5 is seen as an auxiliary cycle whose labels do not
    # close and that no inner matching-covered vertex can repair
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


def _greedy_subset(rng, valid):
    """Random host edges, a subset of them and its colors from a palette of three
    of 1..8.  Valid: proper colors on a dense, near-cubic, mostly non-bipartite
    subset.  Otherwise sparser, with occasional improper or fourth colors and
    degree-4 vertices."""
    n = rng.randint(2, 14)
    palette = rng.sample(range(1, 9), 3)
    limit = 3 if valid or rng.random() < 0.85 else 4
    degree = [0] * n
    edges, eids, c3 = [], [], []
    for _ in range(rng.randint(0, (12 if valid else 4) * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if degree[u] < limit and degree[v] < limit and rng.random() < 0.8:
            taken = {c for e, c in zip(eids, c3) if {u, v} & set(edges[e])}
            free = [c for c in palette if c not in taken]
            if free and (valid or rng.random() < 0.97):
                c3.append(rng.choice(free))
            elif not valid:
                c3.append(rng.randint(1, 8))
            if len(c3) > len(eids):
                degree[u] += 1
                degree[v] += 1
                eids.append(len(edges))
        edges.append((u, v))
    return edges, eids, c3


def _odd_cycles_subset(rng):
    """One to three properly 3-colored odd cycles with pendant edges, mostly of
    the matching's color, on vertex ids shuffled among unused ones: their
    auxiliary cycles mostly need the repair, and a bare one is refused."""
    palette = sorted(rng.sample(range(1, 9), 3))
    often = rng.choice((0.15, 0.4, 0.9))
    edges, c3, n = [], [], 0
    for _ in range(rng.randint(1, 3)):
        length = rng.randrange(3, 12, 2)
        cols: list[int] = []
        for i in range(length):
            taken = {cols[-1], cols[0]} if i == length - 1 else set(cols[-1:])
            cols.append(rng.choice([c for c in palette if c not in taken]))
        if rng.random() < 0.5:      # one long path of the other two colors
            cols = [palette[0], *palette[1:] * (length // 2)]
        cycle, n = range(n, n + length), n + length
        edges += [(v, cycle[i - 1]) for i, v in enumerate(cycle)]
        c3 += cols[-1:] + cols[:-1]
        for i, v in enumerate(cycle):
            free = next(c for c in palette if c not in (cols[i], cols[i - 1]))
            if rng.random() < (often if free == palette[0] else 0.1):
                # a matching pendant may go on as a path of the other two colors,
                # so that the vertex it hangs from may be labelled B
                tail = rng.choice((0, 1, 2, 2, 4)) if free == palette[0] else 0
                path = [v, *range(n, n + tail + 1)]
                edges += zip(path, path[1:])
                c3 += [free, *(palette[j % 2 - 2] for j in range(tail))]
                n += tail + 1
    ids = rng.sample(range(2 * n), n)
    return [(ids[u], ids[v]) for u, v in edges], list(range(len(edges))), c3


def _random_subset(rng):
    """A host edge list, an edge subset of it and the subset's colors: half the
    time odd cycles, otherwise a greedy subset, valid or not; the subset is
    listed in shuffled order half the time."""
    shape = rng.randrange(4)
    edges, eids, c3 = _odd_cycles_subset(rng) if shape > 1 else _greedy_subset(rng, shape)
    if rng.random() < 0.5:
        order = rng.sample(range(len(eids)), len(eids))
        eids, c3 = [eids[i] for i in order], [c3[i] for i in order]
    return edges, eids, c3


def _same_as_reference(edges, eids, c3):
    """subcubic_colors agrees with the T-graph labeler on the subset: the same
    colors, or the same error class and text; the reference's error class, if any."""
    try:
        expected = reference_subcubic_colors(edges, eids, c3)
    except GraphError as exc:
        with pytest.raises(GraphError) as info:
            subcubic_colors(edges, eids, c3)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return type(exc)
    assert subcubic_colors(edges, eids, c3) == expected
    return None


@given(st.integers(0, 1_000_000))
@settings(max_examples=300, deadline=None)
def test_slot_pass_matches_the_t_graph_reference(seed):
    # the one slot pass colors every subset as the T-graph labeler does, repairs
    # included, and refuses the same subsets with the same error
    _same_as_reference(*_random_subset(random.Random(seed)))


def test_identity_inputs_reach_repairs_and_odd_cycles(monkeypatch):
    # the reference repairs an auxiliary cycle through _choose_break, so the
    # inputs above do exercise the repair and the odd-cycle refusal; a fixed
    # thousand of them also reach rare ties, such as two paths' ends at one
    # distance from their inner vertices
    breaks = []
    choose = reference_checkers._choose_break
    monkeypatch.setattr(reference_checkers, "_choose_break",
                        lambda *args: breaks.append(args) or choose(*args))
    refused = Counter(_same_as_reference(*_random_subset(random.Random(seed)))
                      for seed in range(1000))
    assert len(breaks) >= 300 and refused[OddCycleComponent] >= 100


def test_one_slot_pass_behind_subcubic_colors_and_bipartite_thirds(monkeypatch):
    # subcubic builds on the graph module alone, and decompose_bipartite runs
    # the very pass subcubic_colors runs
    tree = ast.parse(Path(subcubic.__file__).read_text(encoding="utf-8"))
    assert {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level} == {"multigraph"}
    assert thickness._slot_pass is subcubic._slot_pass
    runs = []
    slot_pass = subcubic._slot_pass

    def counting(edges, *state):
        runs.append(len(edges))
        return slot_pass(edges, *state)

    monkeypatch.setattr(subcubic, "_slot_pass", counting)
    monkeypatch.setattr(thickness, "_slot_pass", counting)
    g = complete_bipartite_graph(3, 3)
    assert verify(g, color_subcubic(g, konig_color(g))).interval
    thickness.decompose_bipartite(complete_bipartite_graph(5, 5))
    assert runs == [9, 25]
