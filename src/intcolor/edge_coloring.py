"""Proper edge-coloring engines feeding the decompositions.

Konig (bipartite, exactly max-degree colors), a fan/Kempe-chain engine covering
the Vizing and Shannon bounds on multigraphs, equalized bipartite k-colorings and
Petersen 2-factorization.  None of them searches: the exact chromatic index is
`oracles.exact_chromatic_index`.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .multigraph import EdgeColoring, GraphError, Multigraph, require_bipartite


# ---------------------------------------------------------------------------
# Kempe-chain state, shared by Konig and the fan recoloring engine.

def _smallest(mask: int) -> int:
    """The smallest color in a nonempty color bitmask: its lowest set bit."""
    return (mask & -mask).bit_length() - 1


class _Slots(dict):
    """A sparse at table of _KempeState: a slot never written holds no edge."""

    def __missing__(self, key: int) -> int:
        return -1


class _KempeState:
    """Partial proper k-coloring of an edge list on vertices 0..n-1, on flat state:
    colors[e] is the color of edge e (0 while uncolored), used[v] a bitmask of the
    colors present at v (bit c for color c), and at[v*(k+1) + c] the edge holding
    color c at v, or -1.  The free colors of v are missing(v) = full & ~used[v],
    the smallest color of a mask is its lowest set bit, and "c is free at w" is a
    bit test.  Python ints are unbounded, so a palette wider than a machine word
    (k >= 63) needs nothing special.

    at is that flat list while n*(k+1) <= 4*E + n, and otherwise a dict of the
    slots ever written, -1 for the others, so the state stays linear in E on a
    hub, where k is about n.

    Konig colors on it straight from an edge list, so equalized coloring and
    Petersen 2-factorization no longer build a split Multigraph for it; the fan
    engine also reads the graph's incidence and degrees."""

    def __init__(self, n: int, edges: Sequence[tuple[int, int]], k: int):
        self.edges = edges
        self.width = k + 1
        self.full = ((1 << k) - 1) << 1
        self.colors = [0] * len(edges)
        self.used = [0] * n
        self.at = [-1] * (n * (k + 1)) if n * k <= 4 * len(edges) else _Slots()

    def missing(self, v: int) -> int:
        return self.full & ~self.used[v]

    def color_in_order(self, resolve: Callable[[int, int, int], None]) -> list[int]:
        """Give each edge, in id order, the smallest color free at both ends;
        resolve(eid, u, v) colors an edge whose ends have no free color in common."""
        edges, colors, used, at, width, full = (self.edges, self.colors, self.used, self.at,
                                                self.width, self.full)
        for eid, (u, v) in enumerate(edges):
            common = full & ~(used[u] | used[v])
            if not common:
                resolve(eid, u, v)
                continue
            # set_color inlined: eid is uncolored, so there is no old color to clear
            c = (common & -common).bit_length() - 1
            colors[eid] = c
            bit = 1 << c
            at[u * width + c] = eid
            at[v * width + c] = eid
            used[u] |= bit
            used[v] |= bit
        return colors

    def set_color(self, eid: int, c: int) -> None:
        colors, used, at, width = self.colors, self.used, self.at, self.width
        old = colors[eid]
        u, v = self.edges[eid]
        if old:
            for w in (u, v):
                if at[w * width + old] == eid:
                    at[w * width + old] = -1
                    used[w] &= ~(1 << old)
        colors[eid] = c
        bit = 1 << c
        at[u * width + c] = eid
        at[v * width + c] = eid
        used[u] |= bit
        used[v] |= bit

    def swap_chain(self, y: int, a: int, b: int, x: int) -> bool:
        """Swap colors on the maximal a/b-chain from y unless it ends at x.

        y misses a, so the chain is a path from y; its vertices are collected
        while walking it and the swap is one pass: every chain edge flips, every
        chain vertex swaps its a and b slots, and only the two ends flip bits a
        and b of used, since interior vertices keep both colors."""
        edges, colors, used, at, width = self.edges, self.colors, self.used, self.at, self.width
        chain, verts = [], [y]
        z, cur = y, b
        while (e := at[z * width + cur]) >= 0:
            chain.append(e)
            p, q = edges[e]
            z = q if p == z else p
            verts.append(z)
            cur = a if cur == b else b
        if z == x:
            return False
        for e in chain:
            colors[e] = a if colors[e] == b else b
        for w in verts:
            i = w * width
            at[i + a], at[i + b] = at[i + b], at[i + a]
        flip = (1 << a) | (1 << b)
        used[y] ^= flip
        used[z] ^= flip
        return True

    def fold(self, x: int, fan: list[int], rim: list[int]) -> None:
        while True:
            y = rim[-1]
            common = self.missing(x) & self.missing(y)
            if not common:
                raise AssertionError("fan fold found no color free at both ends")
            e_last = fan[-1]
            old = self.colors[e_last]
            self.set_color(e_last, _smallest(common))
            if len(fan) == 1:
                return
            idx = next((i for i, w in enumerate(rim[:-1]) if self.missing(w) >> old & 1), None)
            if idx is None:
                raise AssertionError("no earlier fan vertex misses the color folded away")
            fan, rim = fan[: idx + 1], rim[: idx + 1]

    def color_edge_with_fan(self, g: Multigraph, eid: int) -> None:
        u, v = g.edges[eid]
        x = u if g.degree(u) <= g.degree(v) else v
        y0 = g.other_end(eid, x)
        fan, rim = [eid], [y0]
        rim_missing = self.missing(y0)
        in_fan = {eid}
        while True:
            nxt = None
            for f in g.incidence[x]:
                if f not in in_fan and self.colors[f] and rim_missing >> self.colors[f] & 1:
                    nxt = f
                    break
            if nxt is None:
                raise AssertionError("fan construction stalled; palette too small")
            in_fan.add(nxt)
            fan.append(nxt)
            y = g.other_end(nxt, x)
            rim.append(y)
            rim_missing |= self.missing(y)
            if self.missing(x) & self.missing(y):
                self.fold(x, fan, rim)
                return
            for i, w in enumerate(rim[:-1]):
                common = self.missing(w) & self.missing(y)
                if w != y and common:
                    a, b = _smallest(common), _smallest(self.missing(x))
                    if self.swap_chain(w, a, b, x):
                        self.fold(x, fan[: i + 1], rim[: i + 1])
                    else:
                        if not self.swap_chain(y, a, b, x):
                            raise AssertionError("both Kempe chains reached the anchor")
                        self.fold(x, fan, rim)
                    return


# ---------------------------------------------------------------------------
# Konig: bipartite multigraphs, exactly Delta colors.

def _konig_state(n: int, edges: Sequence[tuple[int, int]], k: int) -> _KempeState:
    """The Kempe state of a proper k-coloring of a bipartite edge list on
    vertices 0..n-1 of maximum degree at most k, the caller's guarantee.

    Each edge gets the smallest color free at both ends, flipping one alternating
    (Kempe) chain when no common free color exists; in a bipartite graph the
    chain never closes back on the other endpoint.
    """
    st = _KempeState(n, edges, k)
    full, used = st.full, st.used

    def flip(eid: int, u: int, v: int) -> None:
        a, b = _smallest(full & ~used[u]), _smallest(full & ~used[v])
        if not st.swap_chain(v, b, a, u):
            raise AssertionError("a Kempe chain closed in a bipartite graph")
        st.set_color(eid, a)

    st.color_in_order(flip)
    return st


def konig_color(g: Multigraph) -> EdgeColoring:
    """Proper coloring of a bipartite multigraph with exactly max_degree colors,
    by _konig_state once require_bipartite passes."""
    require_bipartite(g)
    return EdgeColoring(g, tuple(_konig_state(g.vertex_count, g.edges, g.max_degree).colors))


# ---------------------------------------------------------------------------
# Fan engine: Vizing / Shannon bounds on multigraphs.

def _max_multiplicity(g: Multigraph) -> int:
    counts: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        key = (min(u, v), max(u, v))
        counts[key] = counts.get(key, 0) + 1
    return max(counts.values(), default=0)


def _fan_state(g: Multigraph) -> _KempeState:
    """The fan engine's Kempe state of g with k = min(Delta + mu, floor(3*Delta/2))
    colors, mu the largest multiplicity (1 on a simple graph): Vizing's bound on
    a simple graph, Shannon's on a multigraph."""
    delta = g.max_degree
    mu = 1 if g.is_simple else _max_multiplicity(g)
    st = _KempeState(g.vertex_count, g.edges, min(delta + mu, 3 * delta // 2))
    st.color_in_order(lambda eid, u, v: st.color_edge_with_fan(g, eid))
    return st


def vizing_color(g: Multigraph) -> EdgeColoring:
    """Proper coloring of a simple graph with at most max_degree + 1 colors."""
    if not g.is_simple:
        raise GraphError("vizing_color requires a simple graph")
    return EdgeColoring(g, tuple(_fan_state(g).colors))


def shannon_color(g: Multigraph) -> EdgeColoring:
    """Proper coloring of a multigraph with at most floor(3*Delta/2) colors."""
    return EdgeColoring(g, tuple(_fan_state(g).colors))


def _coloring_state(n: int, edges: Sequence[tuple[int, int]],
                    colors: Sequence[int]) -> _KempeState:
    """The Kempe state of a coloring of a loop-free edge list on vertices
    0..n-1, its classes renumbered 1..t in order; GraphError when the coloring
    is not proper, that is when a vertex meets one class twice."""
    classes = sorted(set(colors))
    st = _KempeState(n, edges, len(classes))
    rank = dict(zip(classes, range(1, len(classes) + 1)))
    for eid, ((u, v), c) in enumerate(zip(edges, map(rank.__getitem__, colors))):
        if (st.used[u] | st.used[v]) >> c & 1:
            raise GraphError("the coloring is not proper")
        st.set_color(eid, c)
    return st


# ---------------------------------------------------------------------------
# Equalized bipartite k-coloring by vertex splitting.

def equalized_bipartite_color(g: Multigraph, k: int) -> EdgeColoring:
    """k-coloring of a bipartite multigraph with per-vertex color counts within 1.

    Not necessarily proper: each vertex is split into copies of degree at most k
    (edges distributed to copies in edge-id order), the split edge list is Konig
    colored with min(k, Delta) colors, and the copies are collapsed back.  Each
    copy keeps its vertex's side, so the list is bipartite once g is, and no
    split Multigraph is built for it.
    """
    if k < 1:
        raise GraphError("k must be positive")
    require_bipartite(g)

    first_copy = [0] * g.vertex_count
    n_h = 0
    for v, inc in enumerate(g.incidence):
        first_copy[v] = n_h
        n_h += max(1, -(-len(inc) // k))

    seen = [0] * g.vertex_count
    h_edges: list[tuple[int, int]] = []
    for u, v in g.edges:
        cu = first_copy[u] + seen[u] // k
        seen[u] += 1
        cv = first_copy[v] + seen[v] // k
        seen[v] += 1
        h_edges.append((cu, cv))
    return EdgeColoring(g, tuple(_konig_state(n_h, h_edges, min(k, g.max_degree)).colors))


# ---------------------------------------------------------------------------
# Euler circuits: Petersen 2-factorization.

def _euler_circuit(incidence: Sequence[Sequence[int]], edges: Sequence[tuple[int, int]],
                   start: int, used: list[bool], ptr: list[int]) -> list[int]:
    """Hierholzer circuit (edge ids in trail order) of start's component."""
    # the trail so far: vertices, and the edge that entered each (-1 at start)
    vstack, estack = [start], [-1]
    circuit: list[int] = []
    while vstack:
        v = vstack[-1]
        inc = incidence[v]
        i = ptr[v]
        while i < len(inc) and used[inc[i]]:
            i += 1
        if i == len(inc):
            ptr[v] = i
            vstack.pop()
            ein = estack.pop()
            if ein >= 0:
                circuit.append(ein)
            continue
        eid = inc[i]
        ptr[v] = i + 1
        used[eid] = True
        a, b = edges[eid]
        vstack.append(b if a == v else a)
        estack.append(eid)
    circuit.reverse()
    return circuit


def petersen_two_factorization(n: int, edges: Sequence[tuple[int, int]]
                               ) -> tuple[tuple[int, ...], ...]:
    """Split a 2r-regular edge list on vertices 0..n-1 into r 2-factors, the
    edge ids of each ascending.

    Loops are allowed and count 2 toward their vertex's degree: they are how
    callers regularize a graph.  Each component's Eulerian circuit is oriented;
    the out/in bipartite edge list of the orientation is r-regular and its Konig
    color classes are the factors.
    """
    incidence: list[list[int]] = [[] for _ in range(n)]
    degs = [0] * n
    for eid, (u, v) in enumerate(edges):
        incidence[u].append(eid)
        if v != u:
            incidence[v].append(eid)    # a loop is listed once and walked once
        degs[u] += 1
        degs[v] += 1
    if degs and (min(degs) != max(degs) or degs[0] % 2):
        raise GraphError("graph must be 2r-regular (loops count 2)")
    r = (degs[0] // 2) if degs else 0
    if r == 0:
        return ()

    used = [False] * len(edges)
    ptr = [0] * n
    arcs: list[tuple[int, int, int]] = []
    for v in range(n):
        if ptr[v] == len(incidence[v]):
            continue    # walked: a circuit leaves every vertex it passes exhausted
        cur = v
        for eid in _euler_circuit(incidence, edges, v, used, ptr):
            a, b = edges[eid]
            head = b if a == cur else a
            arcs.append((cur, head, eid))
            cur = head
        if cur != v:
            raise AssertionError("Euler trail did not close")

    # tails on 0..n-1, heads on n..2n-1: bipartite and r-regular by construction
    colors = _konig_state(2 * n, [(tail, n + head) for tail, head, _ in arcs], r).colors
    factors: list[list[int]] = [[] for _ in range(r)]
    for (_, _, eid), c in zip(arcs, colors):
        factors[c - 1].append(eid)
    return tuple(tuple(sorted(f)) for f in factors)
