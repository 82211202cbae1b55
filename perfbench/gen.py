"""Seeded input generators for the benchmark's three workloads.

Nothing here imports ``intcolor``: the workloads stay fixed however the
library's own generators change.  Every graph is relabelled by a random vertex
permutation, its edges are shuffled and each edge is oriented at random, so no
construction benefits from generator order.  Inputs are emitted as the text a
user would hand the program: graph JSON or requirement-matrix CSV.
"""
from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One user request: the input text and what the checker needs to know."""
    size_class: str
    family: str          # warm-up runs the smallest job of each family
    kind: str            # "graph" or "timetable"
    mode: str            # make_weekly_timetable mode; "" for graphs
    text: str
    vertices: int
    edges: int           # lectures, for timetables
    max_degree: int


Edges = list[tuple[int, int]]
Graph = tuple[int, Edges]    # (vertex count, edge list)

WHY = {  # the same one-line reasons as in BENCHMARK.json
    "sparse": "disjoint unions of 25-100 small components plus long trees: componentwise "
              "dispatch, subgraph, verify, kernels and the interval oracle carry the load",
    "general": "connected non-bipartite graphs, multigraphs, K_2n+1 and cubic graphs: no "
               "bipartite path applies; the fan engine, decompose_general and forest "
               "peeling carry the load",
    "timetable": "requirement matrices run as fewest_days and even_spread jobs: Konig, "
                 "equalized coloring, bipartite decomposers and the timetable translation "
                 "carry the load",
}


# ---------------------------------------------------------------------------
# Graph shapes: (vertex_count, edge list) pairs before shuffling.

def _tree(n: int, rng: random.Random) -> Edges:
    return [(rng.randrange(v), v) for v in range(1, n)]


def _path(m: int) -> Edges:
    return [(i, i + 1) for i in range(m)]


def _cycle(n: int) -> Edges:
    return [(i, (i + 1) % n) for i in range(n)]


def _cactus(rng: random.Random) -> Graph:
    """Connected cactus with vertex-disjoint cycles, a bridge and max degree >= 3."""
    edges = [(0, 1)]
    n = 2
    on_cycle: set[int] = set()
    for b in range(rng.randint(2, 3)):
        anchors = [v for v in range(n) if v not in on_cycle]
        if anchors and (b == 0 or rng.random() < 0.5):
            v = rng.choice(anchors)
            length = rng.randint(3, 4)
            ring = [v] + list(range(n, n + length - 1))
            n += length - 1
            on_cycle.update(ring)
            edges.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
        else:
            edges.append((rng.randrange(n), n))
            n += 1
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if max(deg) < 3:
        edges.append((min(on_cycle), n))
        n += 1
    return n, edges


def _small_component(rng: random.Random) -> Graph:
    shape = rng.randrange(4)
    if shape == 0:
        n = rng.randint(4, 12)
        return n, _tree(n, rng)
    if shape == 1:
        m = rng.randint(3, 12)
        return m + 1, _path(m)
    if shape == 2:
        n = 2 * rng.randint(2, 6)
        return n, _cycle(n)
    return _cactus(rng)


def _disjoint_union(parts: list[Graph]) -> Graph:
    edges: Edges = []
    n = 0
    for k, es in parts:
        edges.extend((u + n, v + n) for u, v in es)
        n += k
    return n, edges


def _capped_random(n: int, m: int, cap: int, rng: random.Random,
                   simple: bool) -> Edges:
    """Up to m random edges on n vertices with every degree at most cap."""
    deg = [0] * n
    seen: set[tuple[int, int]] = set()
    edges: Edges = []
    for _ in range(20 * m):
        if len(edges) == m:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or deg[u] >= cap or deg[v] >= cap or (simple and key in seen):
            continue
        seen.add(key)
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return edges


def _largest_component(n: int, edges: Edges) -> Graph:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    sizes: dict[int, int] = {}
    for u, _ in edges:
        r = find(u)
        sizes[r] = sizes.get(r, 0) + 1
    root = max(sizes, key=lambda r: (sizes[r], -r))
    keep = [e for e in edges if find(e[0]) == root]
    relabel: dict[int, int] = {}
    for u, v in keep:
        relabel.setdefault(u, len(relabel))
        relabel.setdefault(v, len(relabel))
    return len(relabel), [(relabel[u], relabel[v]) for u, v in keep]


def _is_bipartite(n: int, edges: Edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    for s in range(n):
        if side[s] != -1:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def _simple_general(m: int, cap: int, rng: random.Random) -> Graph:
    n = -(-2 * m // max(1, cap - 1))
    return _largest_component(n, _capped_random(n, m, cap, rng, simple=True))


def _multigraph_general(m: int, cap: int, rng: random.Random) -> Graph:
    """Random multigraph: a simple capped graph with about a tenth of its edges doubled."""
    n = -(-2 * m // (cap - 2))
    base = _capped_random(n, m - m // 10, cap - 2, rng, simple=True)
    deg = [0] * n
    for u, v in base:
        deg[u] += 1
        deg[v] += 1
    doubled: Edges = []
    for u, v in rng.sample(base, len(base)):
        if len(doubled) == m // 10:
            break
        if deg[u] < cap and deg[v] < cap:
            doubled.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return _largest_component(n, base + doubled)


def _complete(n: int) -> Graph:
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def _cubic_class1(n: int, rng: random.Random) -> Graph:
    """Union of three edge-disjoint random perfect matchings (so 3-edge-colorable)."""
    taken: set[tuple[int, int]] = set()
    edges: Edges = []
    while len(edges) < 3 * n // 2:
        verts = list(range(n))
        rng.shuffle(verts)
        m = [(min(a, b), max(a, b)) for a, b in zip(verts[::2], verts[1::2])]
        if any(e in taken for e in m):
            continue
        taken.update(m)
        edges.extend(m)
    return _largest_component(n, edges)


def _non_bipartite(make, rng: random.Random) -> Graph:
    while True:
        n, edges = make(rng)
        if not _is_bipartite(n, edges):
            return n, edges


def _shuffled(n: int, edges: Edges, rng: random.Random) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return n, out


def _graph_job(size_class: str, n: int, edges: Edges, rng: random.Random) -> Job:
    n, edges = _shuffled(n, edges, rng)
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    text = json.dumps({"vertex_count": n,
                       "edges": [{"id": i, "u": u, "v": v} for i, (u, v) in enumerate(edges)]})
    family = size_class.split("-")[0]
    return Job(size_class, family, "graph", "", text, n, len(edges), max(deg, default=0))


# ---------------------------------------------------------------------------
# Requirement matrices.

def _requirement_matrix(n: int, cap: int, unit: int, rng: random.Random) -> list[list[int]]:
    """n x n lecture counts; every class and teacher carries at most cap lessons.

    Each class wants between cap/2 and cap lessons, so job sizes spread evenly
    rather than in steps, and spreads its week over a few preferred teachers,
    so the lecture multigraph has many parallel edges.  Lessons are booked
    ``unit`` at a time: with double lessons every degree is even, so the
    Eulerian decomposer and Euler splitting get work.
    """
    b = [[0] * n for _ in range(n)]
    want = [rng.randint(cap // 2, cap) // unit * unit for _ in range(n)]
    class_load = [0] * n
    teacher_load = [0] * n
    prefs = [rng.sample(range(n), rng.randint(3, 8)) for _ in range(n)]
    for _ in range(3 * n * cap):
        i = rng.randrange(n)
        if class_load[i] + unit > want[i]:
            continue
        j = rng.choice(prefs[i]) if rng.random() < 0.8 else rng.randrange(n)
        if teacher_load[j] + unit > cap:
            continue
        b[i][j] += unit
        class_load[i] += unit
        teacher_load[j] += unit
    return b


def _timetable_jobs(size_class: str, n: int, cap: int, unit: int,
                    rng: random.Random) -> list[Job]:
    b = _requirement_matrix(n, cap, unit, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    b = [[row[j] for j in perm] for row in b]
    rng.shuffle(b)
    text = "\n".join(",".join(str(x) for x in row) for row in b) + "\n"
    lectures = sum(map(sum, b))
    delta = max(max(map(sum, b)), max(sum(row[j] for row in b) for j in range(n)))
    size_class += "-double" if unit == 2 else ""
    return [Job(f"{size_class}-{mode}", mode, "timetable", mode, text, 2 * n, lectures, delta)
            for mode in ("fewest_days", "even_spread")]


# ---------------------------------------------------------------------------
# Workloads.  Each entry: (size class, jobs of that class per pass, maker).
# Sparse job counts put the median inside the tree-n1000 latency band and p90
# inside the band of the largest jobs, away from the steps between size
# classes, so that neither percentile jumps between seeds.

def _sparse_classes():
    def union(c):
        return lambda rng: _disjoint_union([_small_component(rng) for _ in range(c)])

    def tree(n):
        return lambda rng: (n, _tree(n, rng))

    return [(f"union-c{c}", reps, union(c)) for c, reps in ((25, 16), (50, 4), (100, 4))] + \
           [(f"tree-n{n}", reps, tree(n)) for n, reps in ((1000, 8), (2000, 4), (4000, 4))]


def _general_classes():
    out = []
    for m, reps in ((1600, 8), (6400, 4)):
        for cap in (5, 9, 16):
            out.append((f"simple-E{m}-D{cap}", reps,
                        lambda rng, m=m, cap=cap: _non_bipartite(
                            lambda r: _simple_general(m, cap, r), rng)))
    out.append(("multi-E3000-D20", 4,
                lambda rng: _non_bipartite(lambda r: _multigraph_general(3000, 20, r), rng)))
    for k in (5, 10):
        out.append((f"complete-K{2 * k + 1}", 4, lambda rng, k=k: _complete(2 * k + 1)))
    for n, reps in ((200, 8), (800, 4)):
        out.append((f"cubic-n{n}", reps,
                    lambda rng, n=n: _non_bipartite(lambda r: _cubic_class1(n, r), rng)))
    return out


TIMETABLE_CLASSES = [(f"tt-n{n}-L{cap}", reps, n, cap)
                     for n, reps in ((20, 16), (40, 8), (80, 4)) for cap in (15, 30)]

WORKLOADS = ("sparse", "general", "timetable")


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job set for one pass, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    if workload == "timetable":
        for size_class, reps, n, cap in TIMETABLE_CLASSES:
            for r in range(reps):
                jobs.extend(_timetable_jobs(size_class, n, cap, 1 + r % 2, rng))
    else:
        classes = _sparse_classes() if workload == "sparse" else _general_classes()
        for size_class, reps, make in classes:
            for _ in range(reps):
                n, edges = make(rng)
                jobs.append(_graph_job(size_class, n, edges, rng))
    rng.shuffle(jobs)
    return jobs


def describe(workload: str, seed: int, jobs: list[Job]) -> dict:
    """Seed, job count per size class and the spread of V, E and max degree."""
    def spread(values: list[int]) -> dict:
        return {"min": min(values), "median": statistics.median(values), "max": max(values)}

    counts: dict[str, int] = {}
    for j in jobs:
        counts[j.size_class] = counts.get(j.size_class, 0) + 1
    return {"workload": workload, "seed": seed, "why": WHY[workload],
            "jobs_per_pass": dict(sorted(counts.items())),
            "V": spread([j.vertices for j in jobs]),
            "E": spread([j.edges for j in jobs]),
            "max_degree": spread([j.max_degree for j in jobs])}
