"""Deterministic, seeded instance generators for the graph families the decomposers target."""
from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from .multigraph import EdgeColoring, GraphError, Multigraph, _as_int, build_graph


class InfeasibleSpec(GraphError):
    """The requested family parameters cannot be realized."""


MAX_RETRIES = 1000


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        """Parse ``family(key=value,...)``; bare integers stay integers."""
        text = text.strip()
        if "(" not in text:
            return FamilySpec(text, {})
        if not text.endswith(")"):
            raise GraphError(f"malformed family spec {text!r}")
        name, inner = text[:-1].split("(", 1)
        params: dict[str, Any] = {}
        seed = 0
        for piece in filter(None, (p.strip() for p in inner.split(","))):
            if "=" not in piece:
                raise GraphError(f"expected key=value in {piece!r}")
            key, val = (s.strip() for s in piece.split("=", 1))
            parsed: Any = int(val) if val.removeprefix("-").isdecimal() else val
            if key == "seed":
                if not isinstance(parsed, int):
                    raise InfeasibleSpec(f"seed must be an integer, got {val!r}")
                seed = parsed
            else:
                params[key] = parsed
        return FamilySpec(name.strip(), params, seed)

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "FamilySpec":
        if not isinstance(obj, dict) or not isinstance(obj.get("family"), str):
            raise GraphError(f"family spec JSON needs a 'family' name, got {obj!r}")
        params = {k: v for k, v in obj.items() if k not in ("family", "seed")}
        return FamilySpec(obj["family"], params, _as_int(obj.get("seed", 0)))


@dataclass(frozen=True)
class GeneratedGraph:
    """A generated graph, the proper 3-edge-coloring its family builds with it
    (cubic_class1 only) and the family's parameters or a fixture's expected
    values in meta.  Sides of a bipartite family are read with bipartition."""
    graph: Multigraph
    three_coloring: EdgeColoring | None = None
    meta: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Plain builders (shared by other modules).

def path_graph(n: int) -> Multigraph:
    """The path on n vertices, its edges in walk order."""
    if n < 1:
        raise InfeasibleSpec("paths need at least 1 vertex")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Multigraph:
    """The cycle on n vertices, its edges in walk order."""
    if n < 2:
        raise InfeasibleSpec("cycles need at least 2 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Multigraph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Multigraph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def multipartite_parts(sizes: list[int]) -> list[list[int]]:
    parts: list[list[int]] = []
    at = 0
    for s in sizes:
        parts.append(list(range(at, at + s)))
        at += s
    return parts


def complete_multipartite_graph(sizes: list[int]) -> Multigraph:
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise InfeasibleSpec("need at least two nonempty parts")
    parts = multipartite_parts(sizes)
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            edges.extend((u, v) for u in parts[i] for v in parts[j])
    return build_graph(sum(sizes), edges)


def circular_complete_graph(p: int, q: int) -> Multigraph:
    if q < 1 or p < 2 * q:
        raise InfeasibleSpec(f"K_{{{p}/{q}}} has no edges")
    edges = [(i, j) for i in range(p) for j in range(i + 1, p) if q <= j - i <= p - q]
    return build_graph(p, edges)


def sharpness_graph() -> Multigraph:
    # triangle 0,1,2 plus a length-2 path through a new vertex between each pair
    return build_graph(6, [(0, 1), (0, 2), (1, 2),
                           (0, 3), (3, 1), (0, 4), (4, 2), (1, 5), (5, 2)])


# ---------------------------------------------------------------------------
# Seeded random families.

def random_tree(n: int, rng: random.Random) -> Multigraph:
    if n < 1:
        raise InfeasibleSpec("trees need at least one vertex")
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_cactus(blocks: int, rng: random.Random) -> Multigraph:
    """Connected cactus with pairwise vertex-disjoint cycles and a bridge root."""
    if blocks < 1:
        raise InfeasibleSpec(f"cactus needs blocks >= 1, got {blocks}")
    edges: list[tuple[int, int]] = [(0, 1)]
    n = 2
    on_cycle: set[int] = set()
    for b in range(blocks):
        make_cycle = b == 0 or rng.random() < 0.5
        if make_cycle:
            anchors = [v for v in range(n) if v not in on_cycle]
            if not anchors:
                make_cycle = False
        if make_cycle:
            v = rng.choice(anchors)
            length = rng.randint(3, 6)
            ring = [v] + list(range(n, n + length - 1))
            n += length - 1
            on_cycle.update(ring)
            edges.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
        else:
            v = rng.randrange(n)
            edges.append((v, n))
            n += 1
    g = build_graph(n, edges)
    if g.max_degree < 3:
        # guarantee the Delta >= 3 precondition of the cactus kernel
        v = min(on_cycle) if on_cycle else 0
        g = build_graph(n + 1, edges + [(v, n)])
    return g


def random_bipartite(nx: int, ny: int, n_edges: int, max_degree: int,
                     rng: random.Random, simple: bool = True) -> Multigraph:
    """n_edges edges between sides of nx and ny vertices, no degree above
    max_degree, placed by uniform draws of a pair; when those draws run out
    short, the rest are drawn among the pairs still open (both ends below
    max_degree, and not placed yet when simple), and when none is open, among
    the swaps that trade one placed edge for two."""
    if nx < 1 or ny < 1:
        raise InfeasibleSpec("both sides must be nonempty")
    if n_edges < 0:
        raise InfeasibleSpec(f"bipartite_random needs edges >= 0, got {n_edges}")
    d = max(max_degree, 0)
    room = min(nx * min(d, ny), ny * min(d, nx)) if simple else d * min(nx, ny)
    if n_edges > room:
        raise InfeasibleSpec(f"bipartite_random fits at most {room} edges on these sides "
                             f"and max_degree, got edges={n_edges}")
    deg = [0] * (nx + ny)
    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def place(u: int, v: int) -> None:
        seen.add((u, v))
        chosen.append((u, v))
        deg[u] += 1
        deg[v] += 1

    for _ in range(20 * n_edges + 100):
        if len(chosen) == n_edges:
            break
        u, v = rng.randrange(nx), nx + rng.randrange(ny)
        if deg[u] < max_degree and deg[v] < max_degree and not (simple and (u, v) in seen):
            place(u, v)
    while len(chosen) < n_edges:
        xs = [u for u in range(nx) if deg[u] < max_degree]
        ys = [v for v in range(nx, nx + ny) if deg[v] < max_degree]
        open_pairs = [(u, v) for u in xs for v in ys if not (simple and (u, v) in seen)]
        if open_pairs:
            place(*rng.choice(open_pairs))
            continue
        # one swap: a placed x-y gives way to u-y and x-v for a free u and a free v
        swaps = [(i, u, v) for i, (x, y) in enumerate(chosen) for u in xs for v in ys
                 if (u, y) not in seen and (x, v) not in seen]
        if not swaps:
            raise InfeasibleSpec(f"bipartite_random placed {len(chosen)} of edges={n_edges} "
                                 "with no open pair or swap left; try fewer edges")
        i, u, v = rng.choice(swaps)
        x, y = chosen.pop(i)
        seen.remove((x, y))
        deg[x] -= 1
        deg[y] -= 1
        place(u, y)
        place(x, v)
    return build_graph(nx + ny, chosen)


def random_biregular(a: int, b: int, scale: int, rng: random.Random,
                     simple: bool = False) -> Multigraph:
    """(a,b)-biregular bipartite multigraph via configuration pairing.

    With simple=True each repeated pair is repaired by swapping its Y stub with
    that of a random pair such that neither new pair exists yet; swaps keep every
    degree, and a pairing without repeats is kept as drawn."""
    if a < 1 or b < 1 or scale < 1:
        raise InfeasibleSpec("degrees and scale must be positive")
    import math
    g_ = math.gcd(a, b)
    nx, ny = (b // g_) * scale, (a // g_) * scale
    if simple and b > nx:
        raise InfeasibleSpec("simple graph impossible: degree exceeds opposite side")
    xs = [x for x in range(nx) for _ in range(a)]
    ys = [nx + y for y in range(ny) for _ in range(b)]
    rng.shuffle(ys)
    if simple:
        _repair_repeats(xs, ys, rng)
    return build_graph(nx + ny, list(zip(xs, ys)))


def _repair_repeats(xs: list[int], ys: list[int], rng: random.Random) -> None:
    """Swap Y stubs until the pairs (xs[i], ys[i]) are distinct."""
    count = Counter(zip(xs, ys))
    m = len(xs)
    for i in range(m):
        tries = 0
        while count[xs[i], ys[i]] > 1:
            tries += 1
            if tries > MAX_RETRIES:
                raise InfeasibleSpec("could not repair a repeated pair; try other parameters")
            j = rng.randrange(m)
            xi, yi, xj, yj = xs[i], ys[i], xs[j], ys[j]
            if xi == xj or yi == yj or count[xi, yj] or count[xj, yi]:
                continue
            count[xi, yi] -= 1
            count[xj, yj] -= 1
            count[xi, yj] += 1
            count[xj, yi] += 1
            ys[i], ys[j] = yj, yi


def random_eulerian_bipartite(nx: int, ny: int, n_walks: int, walk_len: int,
                              max_degree: int, rng: random.Random) -> Multigraph:
    """Union of closed even walks: every degree even, capped by max_degree."""
    if max_degree < 2 or max_degree % 2:
        raise InfeasibleSpec("max_degree must be even and at least 2")
    for name, value, least in (("nx", nx, 1), ("ny", ny, 1), ("walks", n_walks, 0),
                               ("walk_len", walk_len, 1)):
        if value < least:
            raise InfeasibleSpec(f"eulerian_bipartite needs {name} >= {least}, got {value}")
    deg = [0] * (nx + ny)
    edges: list[tuple[int, int]] = []
    for _ in range(n_walks):
        length = rng.randint(1, walk_len)
        xs, ys = [], []
        ok = True
        for _ in range(length):
            cx = [x for x in range(nx) if deg[x] <= max_degree - 2]
            cy = [ny_ for ny_ in range(nx, nx + ny) if deg[ny_] <= max_degree - 2]
            if not cx or not cy:
                ok = False
                break
            x, y = rng.choice(cx), rng.choice(cy)
            xs.append(x)
            ys.append(y)
            deg[x] += 2
            deg[y] += 2
        if not ok:
            break
        for i in range(length):
            edges.append((xs[i], ys[i]))
            edges.append((ys[i], xs[(i + 1) % length]))
    return build_graph(nx + ny, edges)


def random_cubic_class1(n: int, rng: random.Random) -> tuple[Multigraph, EdgeColoring]:
    """Union of 3 disjoint perfect matchings on n (even) vertices, with its 3-coloring."""
    if n < 4 or n % 2:
        raise InfeasibleSpec("need an even number of vertices, at least 4")

    def matching() -> list[tuple[int, int]]:
        verts = list(range(n))
        rng.shuffle(verts)
        return [(min(a, b), max(a, b)) for a, b in zip(verts[::2], verts[1::2])]

    taken: set[tuple[int, int]] = set()
    matchings: list[list[tuple[int, int]]] = []
    attempts = 0
    while len(matchings) < 3:
        attempts += 1
        if attempts > MAX_RETRIES:
            raise InfeasibleSpec("could not find 3 disjoint perfect matchings")
        m = matching()
        if any(e in taken for e in m):
            continue
        taken.update(m)
        matchings.append(m)
    edges: list[tuple[int, int]] = []
    colors: list[int] = []
    for c, m in enumerate(matchings, start=1):
        edges.extend(m)
        colors.extend([c] * len(m))
    g = build_graph(n, edges)
    return g, EdgeColoring(g, tuple(colors))


# ---------------------------------------------------------------------------
# Fixture catalog with recorded expected verdicts.

def _fixture_catalog() -> dict[str, tuple[Multigraph, dict[str, Any]]]:
    return {
        "k3": (complete_graph(3), {"interval_colorable": False, "theta": 2, "chi": 3}),
        "c4": (cycle_graph(4), {"interval_colorable": True, "theta": 1, "chi": 2}),
        "c5": (cycle_graph(5), {"interval_colorable": False, "theta": 2, "chi": 3}),
        "c7": (cycle_graph(7), {"interval_colorable": False, "theta": 2, "chi": 3}),
        "k4": (complete_graph(4), {"interval_colorable": True, "theta": 1, "chi": 3}),
        "k33": (complete_bipartite_graph(3, 3), {"interval_colorable": True, "theta": 1, "chi": 3}),
        "k5": (complete_graph(5), {"interval_colorable": False, "theta": 2, "chi": 5}),
        "octahedron": (complete_multipartite_graph([2, 2, 2]),
                       {"interval_colorable": True, "theta": 1, "chi": 4}),
        "sharpness": (sharpness_graph(), {"interval_colorable": False, "chi": 4}),
        "bireg36": (complete_bipartite_graph(6, 3), {"theta_upper": 2}),
    }


FIXTURES = _fixture_catalog()


def generate(spec: FamilySpec) -> GeneratedGraph:
    """Instantiate a family spec; same spec always yields the identical graph."""
    rng = random.Random(spec.seed)
    p = spec.params
    fam = spec.family

    def num(key: str, default: int | None = None) -> int:
        val = p.get(key, default)
        if not isinstance(val, int):
            raise InfeasibleSpec(f"{fam} needs an integer parameter {key}, got {val!r}")
        # a larger value cannot size a list; the family would grow one until killed
        if val > sys.maxsize:
            raise InfeasibleSpec(f"{fam} parameter {key} must be at most {sys.maxsize}")
        return val

    if fam == "path":
        return GeneratedGraph(path_graph(num("n", 10)))
    if fam == "cycle":
        return GeneratedGraph(cycle_graph(num("n", 5)))
    if fam == "tree":
        return GeneratedGraph(random_tree(num("n", 10), rng))
    if fam == "cactus":
        return GeneratedGraph(random_cactus(num("blocks", 4), rng))
    if fam == "bipartite_random":
        g = random_bipartite(num("nx", 6), num("ny", 6), num("edges", 12),
                             num("max_degree", 6), rng, simple=bool(num("simple", 1)))
        return GeneratedGraph(g)
    if fam == "biregular":
        a, b = num("a"), num("b")
        g = random_biregular(a, b, num("scale", 2), rng, simple=bool(num("simple", 0)))
        return GeneratedGraph(g, meta={"a": a, "b": b})
    if fam == "eulerian_bipartite":
        g = random_eulerian_bipartite(num("nx", 6), num("ny", 6), num("walks", 4),
                                      num("walk_len", 4), num("max_degree", 8), rng)
        return GeneratedGraph(g)
    if fam == "complete_multipartite":
        given = p.get("sizes")
        pieces = str(given).split("+") if isinstance(given, (str, int)) else given
        try:
            sizes = [int(x) for x in pieces]
        except (TypeError, ValueError):
            raise InfeasibleSpec(f"{fam} needs sizes as integers joined by '+', "
                                 f"got {given!r}") from None
        if max(sizes, default=0) > sys.maxsize:
            raise InfeasibleSpec(f"{fam} sizes must be at most {sys.maxsize}")
        return GeneratedGraph(complete_multipartite_graph(sizes), meta={"sizes": sizes})
    if fam == "balanced":
        n, r = num("n"), num("r")
        return GeneratedGraph(complete_multipartite_graph([n] * r), meta={"n": n, "r": r})
    if fam == "semiregular":
        n, r = num("n"), num("r")
        return GeneratedGraph(complete_multipartite_graph([n] * r + [n * r]),
                              meta={"n": n, "r": r})
    if fam == "circular_complete":
        return GeneratedGraph(circular_complete_graph(num("p"), num("q")))
    if fam == "cubic_class1":
        g, col = random_cubic_class1(num("n", 20), rng)
        return GeneratedGraph(g, three_coloring=col)
    if fam == "odd_complete":
        return GeneratedGraph(complete_graph(2 * num("n", 2) + 1))
    if fam == "fixture":
        name = p.get("name")
        if name not in FIXTURES:
            raise InfeasibleSpec(f"fixture needs a parameter name, one of {sorted(FIXTURES)}; "
                                 f"got {name!r}")
        g, expected = FIXTURES[name]
        return GeneratedGraph(g, meta=dict(expected))
    raise InfeasibleSpec(f"unknown family {fam!r}")
