"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget."""
import random
import time

from intcolor.edge_coloring import konig_color, vizing_color
from intcolor.generators import (FIXTURES, circular_complete_graph,
                                 complete_multipartite_graph, cycle_graph,
                                 random_biregular, random_cubic_class1,
                                 random_eulerian_bipartite)
from intcolor.multigraph import EdgeColoring, build_graph, verify, verify_decomposition
from intcolor.oracles import (exact_chromatic_index, exact_cyclic_interval_coloring,
                              exact_interval_colorable, exact_theta, nash_williams_arboricity)
from intcolor.subcubic import color_subcubic
from intcolor.thickness import (decompose_bipartite, decompose_biregular,
                                decompose_eulerian_bipartite,
                                decompose_forest_peel, decompose_general,
                                dispatch_theta_upper, multipartite_part_count,
                                run_named_method, split_cyclic)
from intcolor.timetable import (RequirementMatrix, daily_loads,
                                decomposition_to_timetable, make_weekly_timetable,
                                timetable_to_decomposition, verify_timetable)

from reference_checkers import bipartite_up_to


class _Criterion:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def finish(self, ok: bool) -> None:
        elapsed = time.perf_counter() - self.t0
        in_budget = elapsed < self.budget
        status = "PASS" if (ok and in_budget) else "FAIL"
        print(f"[criterion {self.number:2d}] {status}  "
              f"{elapsed:6.1f}s / {self.budget:.0f}s  {self.label}")
        assert ok, f"criterion {self.number} assertions failed"
        assert in_budget, f"criterion {self.number} exceeded {self.budget}s ({elapsed:.1f}s)"


def _certified(d) -> bool:
    return verify_decomposition(d.graph, d).interval


def test_criterion_01_fixture_verdicts():
    c = _Criterion(1, "fixture verdicts match the recorded statements", 60)
    ok = True
    for name in ("k3", "c5", "c7", "sharpness"):
        ok &= exact_interval_colorable(FIXTURES[name][0]) is None
    sharp = FIXTURES["sharpness"][0]
    ok &= exact_chromatic_index(sharp)[0] == 4 == sharp.max_degree
    for name in ("c4", "k33", "k4", "octahedron"):
        w = exact_interval_colorable(FIXTURES[name][0])
        ok &= w is not None and verify(FIXTURES[name][0], w).interval
    ok &= exact_theta(FIXTURES["k3"][0]) == 2
    ok &= exact_theta(FIXTURES["c5"][0]) == 2
    ok &= exact_theta(FIXTURES["k5"][0]) == 2
    c.finish(ok)


def test_criterion_02_subcubic_colorings():
    c = _Criterion(2, "subcubic constructions: 400 instances, <= 6 colors", 30)
    ok = True
    for seed in range(200):
        g, c3 = random_cubic_class1(20, random.Random(seed))
        col = color_subcubic(g, c3)
        ok &= verify(g, col).interval and len(set(col.colors)) <= 6
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        g = bipartite_up_to(rng.randint(2, 12), rng.randint(2, 12),
                            rng.randint(1, 30), 3, rng, simple=False)
        if g.edge_count == 0:
            continue
        col = color_subcubic(g, konig_color(g))
        ok &= verify(g, col).interval and len(set(col.colors)) <= 6
    c.finish(ok)


def test_criterion_03_bipartite_thirds():
    c = _Criterion(3, "bipartite ceil(Delta/3) with balanced part degrees", 60)
    ok = True
    for seed in range(300):
        rng = random.Random(seed)
        g = bipartite_up_to(rng.randint(1, 25), rng.randint(1, 25),
                            rng.randint(1, 80), rng.randint(1, 10), rng, simple=False)
        if g.edge_count == 0:
            continue
        d = decompose_bipartite(g)
        ok &= _certified(d)
        ok &= d.part_count <= max(1, -(-g.max_degree // 3))
        for v in range(g.vertex_count):
            degs = [sum(d.parts[e] == p for e in g.incidence[v]) for p in range(d.part_count)]
            if degs:
                ok &= max(degs) - min(degs) <= 1
    c.finish(ok)


def test_criterion_04_eulerian_quarters():
    c = _Criterion(4, "Eulerian bipartite ceil(Delta/4)", 60)
    ok = True
    produced = 0
    for seed in range(100):
        rng = random.Random(seed)
        g = random_eulerian_bipartite(rng.randint(2, 8), rng.randint(2, 8),
                                      rng.randint(1, 8), rng.randint(1, 5), 12, rng)
        if g.edge_count == 0:
            continue
        produced += 1
        d = decompose_eulerian_bipartite(g)
        ok &= _certified(d) and d.part_count <= -(-g.max_degree // 4)
    ok &= produced >= 90
    c.finish(ok)


def test_criterion_05_biregular():
    c = _Criterion(5, "(3,6),(3,9),(4,8),(5,10)-biregular bounds", 60)
    ok = True
    for (a, b, bound) in ((3, 6, 2), (3, 9, 2), (4, 8, 2), (5, 10, 3)):
        for seed in range(10):
            g = random_biregular(a, b, 2, random.Random(seed))
            d = decompose_biregular(g)
            ok &= _certified(d) and d.part_count <= bound
    c.finish(ok)


def test_criterion_06_general_bound():
    c = _Criterion(6, "general 2*ceil(t/5) on 100 random simple graphs", 120)
    ok = True
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        deg = [0] * n
        chosen = set()
        for _ in range(rng.randint(4, 50)):
            u, v = rng.randrange(n), rng.randrange(n)
            key = (min(u, v), max(u, v))
            if u != v and deg[u] < 9 and deg[v] < 9 and key not in chosen:
                chosen.add(key)
                deg[u] += 1
                deg[v] += 1
        g = build_graph(n, sorted(chosen))
        if g.edge_count == 0:
            continue
        coloring = vizing_color(g)
        d = decompose_general(g, coloring)
        ok &= _certified(d)
        ok &= d.part_count <= 2 * -(-coloring.colors_used() // 5)
    c.finish(ok)


def test_criterion_07_complete_multipartite():
    c = _Criterion(7, "complete multipartite T(r) and balanced family table", 60)
    ok = True
    rng = random.Random(7)
    for r in range(2, 13):
        sizes = [rng.randint(1, 4) for _ in range(r)]
        d, _ = run_named_method(complete_multipartite_graph(sizes), "complete-multipartite")
        ok &= _certified(d) and d.part_count == multipartite_part_count(r)
    for n, r in ((1, 2), (3, 2), (2, 3), (1, 4), (2, 4), (3, 4), (1, 6), (2, 6)):
        d, _ = run_named_method(complete_multipartite_graph([n] * r), "balanced-multipartite")
        ok &= _certified(d) and d.part_count == 1 and (n * r) % 2 == 0
    for n, r in ((1, 3), (3, 3), (1, 5), (5, 3)):
        d, _ = run_named_method(complete_multipartite_graph([n] * r), "balanced-multipartite")
        ok &= _certified(d) and d.part_count == 2 and (n * r) % 2 == 1
    for n, r in ((1, 2), (2, 2), (1, 4)):
        d, _ = run_named_method(complete_multipartite_graph([n] * r + [n * r]),
                                "semiregular-multipartite")
        ok &= _certified(d) and d.part_count == 1
    for n, r in ((1, 3), (3, 3)):
        d, _ = run_named_method(complete_multipartite_graph([n] * r + [n * r]),
                                "semiregular-multipartite")
        ok &= _certified(d) and d.part_count <= 3
    c.finish(ok)


def test_criterion_08_cyclic_split():
    c = _Criterion(8, "cyclic split: odd cycles and circular complete graphs", 30)
    ok = True
    for k in range(1, 7):
        g = cycle_graph(2 * k + 1)
        t = 2 * k + 1
        d = split_cyclic(g, EdgeColoring(g, tuple(range(1, t + 1))), t)
        ok &= _certified(d) and d.part_count == 2
    for p, q in ((7, 2), (8, 3)):
        g = circular_complete_graph(p, q)
        t = 2 * g.max_degree - 2
        col = exact_cyclic_interval_coloring(g, t)
        ok &= col is not None
        if col is not None:
            d = split_cyclic(g, col, t)
            ok &= _certified(d) and d.part_count <= 2
    c.finish(ok)


def test_criterion_09_oracle_dominance():
    c = _Criterion(9, "decomposers never beat the exact oracles", 120)
    ok = True
    instances = [FIXTURES[k][0] for k in
                 ("k3", "c4", "c5", "c7", "k4", "k33", "k5", "sharpness")]
    rng = random.Random(99)
    while len(instances) < 58:
        n = rng.randint(3, 7)
        edges = []
        for _ in range(rng.randint(1, 9)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        g = build_graph(n, edges[:9])
        if g.edge_count:
            instances.append(g)
    for g in instances:
        theta = exact_theta(g)
        d, _ = dispatch_theta_upper(g)
        ok &= _certified(d) and d.part_count >= theta
        peel = decompose_forest_peel(g)
        ok &= _certified(peel) and peel.part_count >= theta
        ok &= peel.part_count >= nash_williams_arboricity(g)
    ok &= nash_williams_arboricity(FIXTURES["k5"][0]) == 3
    from intcolor.generators import complete_graph
    ok &= nash_williams_arboricity(complete_graph(7)) == 4
    c.finish(ok)


def test_criterion_10_timetable_round_trip():
    c = _Criterion(10, "timetable round trips and even spread", 30)
    ok = True
    for seed in range(50):
        rng = random.Random(seed)
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        B = RequirementMatrix.from_rows(
            [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)])
        S, _ = make_weekly_timetable(B, "fewest_days")
        ok &= verify_timetable(B, S).interval
        d = timetable_to_decomposition(B, S)
        ok &= decomposition_to_timetable(B, d) == S
        S2, _ = make_weekly_timetable(B, "even_spread")
        ok &= verify_timetable(B, S2).interval
        cl, tl = daily_loads(S2, B.n_classes, B.m_teachers)
        for loads in cl + tl:
            if loads:
                ok &= max(loads) - min(loads) <= 1
    c.finish(ok)
