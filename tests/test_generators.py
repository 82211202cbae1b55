import random
import re
import sys

import pytest

from intcolor import generators
from intcolor.generators import (FIXTURES, FamilySpec, InfeasibleSpec,
                                 circular_complete_graph, generate, random_biregular)
from intcolor.multigraph import bipartition, verify


def test_spec_parsing():
    spec = FamilySpec.parse("biregular(a=3,b=6,scale=2,seed=7)")
    assert spec.family == "biregular"
    assert spec.params == {"a": 3, "b": 6, "scale": 2}
    assert spec.seed == 7
    assert FamilySpec.parse("fixture(name=k5)").params == {"name": "k5"}


def test_spec_from_json():
    spec = FamilySpec.from_json({"family": "tree", "n": 9, "seed": 3})
    assert spec == FamilySpec("tree", {"n": 9}, 3)


def test_determinism():
    a = generate(FamilySpec.parse("bipartite_random(nx=8,ny=8,edges=20,max_degree=5,seed=11)"))
    b = generate(FamilySpec.parse("bipartite_random(nx=8,ny=8,edges=20,max_degree=5,seed=11)"))
    c = generate(FamilySpec.parse("bipartite_random(nx=8,ny=8,edges=20,max_degree=5,seed=12)"))
    assert a.graph == b.graph
    assert a.graph != c.graph


def test_circular_complete_5_2_is_the_odd_cycle():
    g = circular_complete_graph(5, 2)
    assert g.vertex_count == 5 and g.edge_count == 5
    assert all(g.degree(v) == 2 for v in range(5))
    assert bipartition(g) is None


def test_circular_complete_rejects_empty():
    with pytest.raises(InfeasibleSpec):
        circular_complete_graph(3, 2)


def test_balanced_2_3_is_the_octahedron():
    g = generate(FamilySpec.parse("balanced(n=2,r=3)")).graph
    assert g.vertex_count == 6 and g.edge_count == 12
    assert all(g.degree(v) == 4 for v in range(6))


def test_biregular_degree_profile():
    g = generate(FamilySpec.parse("biregular(a=3,b=9,scale=2,seed=4)")).graph
    sides = bipartition(g)
    assert sides is not None
    degs = {s: {g.degree(v) for v, side in enumerate(sides) if side == s and g.degree(v)}
            for s in (0, 1)}
    assert degs[0] == {3} and degs[1] == {9}


def test_eulerian_bipartite_degrees_even():
    g = generate(FamilySpec.parse("eulerian_bipartite(nx=5,ny=5,walks=4,walk_len=4,"
                                  "max_degree=8,seed=2)")).graph
    assert g.edge_count > 0
    assert all(g.degree(v) % 2 == 0 for v in range(g.vertex_count))
    assert g.max_degree <= 8


def test_cubic_class1_comes_with_its_coloring():
    gen = generate(FamilySpec.parse("cubic_class1(n=20,seed=9)"))
    g = gen.graph
    assert all(g.degree(v) == 3 for v in range(20))
    assert gen.three_coloring is not None
    assert verify(g, gen.three_coloring, "proper").proper
    assert gen.three_coloring.colors_used() == 3


def test_tree_is_acyclic_and_connected():
    g = generate(FamilySpec.parse("tree(n=25,seed=1)")).graph
    assert g.edge_count == 24
    assert len(g.components()) == 1


def test_cactus_properties():
    g = generate(FamilySpec.parse("cactus(blocks=5,seed=3)")).graph
    assert len([c for c in g.components() if len(c) > 1]) == 1
    assert g.max_degree >= 3


def test_fixture_catalog_contents():
    for name in ("k3", "c5", "c7", "sharpness", "k5", "octahedron", "bireg36"):
        assert name in FIXTURES
    sharp, expected = FIXTURES["sharpness"]
    assert sharp.vertex_count == 6 and sharp.edge_count == 9 and sharp.max_degree == 4
    assert expected["interval_colorable"] is False


@pytest.mark.parametrize("spec,message", [
    ("tree(n=99999999999999999999)", "tree parameter n must be at most"),
    ("path(n=99999999999999999999)", "path parameter n must be at most"),
    ("balanced(n=2,r=99999999999999999999)", "balanced parameter r must be at most"),
    ("complete_multipartite(sizes=2+99999999999999999999)",
     "complete_multipartite sizes must be at most"),
])
def test_a_parameter_beyond_an_index_is_infeasible(spec, message, monkeypatch):
    # a builder reached with such a value would grow a list until killed
    for builder in ("random_tree", "path_graph", "complete_multipartite_graph"):
        monkeypatch.setattr(generators, builder, lambda *args: pytest.fail("sized a graph"))
    with pytest.raises(InfeasibleSpec, match=f"^{re.escape(message)} {sys.maxsize}$"):
        generate(FamilySpec.parse(spec))


@pytest.mark.parametrize("build,name", [
    (lambda rng: generators.random_cactus(0, rng), "blocks"),
    (lambda rng: generators.random_cactus(-3, rng), "blocks"),
    (lambda rng: generators.random_bipartite(2, 2, -3, 4, rng), "edges"),
    (lambda rng: generators.random_eulerian_bipartite(-1, 3, 4, 4, 8, rng), "nx"),
    (lambda rng: generators.random_eulerian_bipartite(3, 0, 4, 4, 8, rng), "ny"),
    (lambda rng: generators.random_eulerian_bipartite(3, 3, -1, 4, 8, rng), "walks"),
    (lambda rng: generators.random_eulerian_bipartite(3, 3, 4, 0, 8, rng), "walk_len"),
    (lambda rng: generators.random_eulerian_bipartite(3, 3, 4, -2, 8, rng), "walk_len"),
], ids=["blocks=0", "blocks=-3", "edges=-3", "nx=-1", "ny=0", "walks=-1", "walk_len=0",
        "walk_len=-2"])
def test_a_size_below_its_least_is_infeasible_before_any_draw(build, name):
    # an object without methods stands in for the generator, so a draw would
    # raise AttributeError instead
    with pytest.raises(InfeasibleSpec, match=f" {name} >= "):
        build(object())


@pytest.mark.parametrize("args,simple,room", [
    ((1, 1, 5, 1), True, 1), ((3, 4, 13, 4), True, 12), ((3, 4, 10, 2), True, 6),
    ((2, 5, 13, 6), False, 12), ((2, 2, 1, 0), False, 0),
])
def test_bipartite_random_refuses_more_edges_than_its_sides_hold(args, simple, room):
    # simple: min(nx*min(d,ny), ny*min(d,nx)); multigraph: d*min(nx,ny)
    with pytest.raises(InfeasibleSpec, match=f"at most {room} edges .* edges={args[2]}$"):
        generators.random_bipartite(*args, object(), simple=simple)


def test_bipartite_random_completes_a_placement_that_stalls_short():
    # a perfect matching of K_{6,6} by random draws: at seed 8 its 220 draws place
    # 5 edges, and the sixth is drawn among the pairs still open
    for seed in (8, 0):
        g = generators.random_bipartite(6, 6, 6, 1, random.Random(seed))
        assert g.edge_count == 6 and g.max_degree == 1
    # a 6-cycle on K_{3,3}: at seed 2 the placement is left a pair that is taken,
    # so a placed edge gives way to two
    g = generators.random_bipartite(3, 3, 6, 2, random.Random(2))
    assert g.edge_count == 6 and g.is_simple and set(g.degrees) == {2}
    assert len(g.traversal.components) == 1


@pytest.mark.parametrize("spec", ["cactus(blocks=1)", "bipartite_random(edges=0)",
                                  "eulerian_bipartite(nx=1,ny=1,walks=0,walk_len=1)"])
def test_the_least_sizes_are_feasible(spec):
    assert generate(FamilySpec.parse(spec)).graph.vertex_count > 0


def test_unknown_family_and_fixture():
    with pytest.raises(InfeasibleSpec):
        generate(FamilySpec("nonsense", {}))
    with pytest.raises(InfeasibleSpec):
        generate(FamilySpec("fixture", {"name": "missing"}))


@pytest.mark.parametrize("family,n,edges", [("path", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
                                            ("cycle", 4, [(0, 1), (1, 2), (2, 3), (3, 0)])])
def test_path_and_cycle_list_their_edges_in_walk_order(family, n, edges):
    assert generate(FamilySpec.parse(f"{family}(n={n})")).graph.edges == tuple(edges)


@pytest.mark.parametrize("a,b,scale", [(4, 8, 16), (5, 10, 10), (3, 9, 9)])
@pytest.mark.parametrize("seed", range(5))
def test_simple_biregular_repairs_repeated_pairs(a, b, scale, seed):
    g = random_biregular(a, b, scale, random.Random(seed), simple=True)
    sides = bipartition(g)
    assert g.is_simple and sides is not None
    assert {(s, g.degree(v)) for v, s in enumerate(sides)} == {(0, a), (1, b)}


def test_simple_biregular_keeps_a_draw_without_repeats():
    # 11 of these 20 seeds draw a pairing without repeats; it is returned as drawn
    kept = 0
    for seed in range(20):
        drawn = random_biregular(2, 3, 10, random.Random(seed))
        if drawn.is_simple:
            assert random_biregular(2, 3, 10, random.Random(seed), simple=True) == drawn
            kept += 1
    assert kept == 11
