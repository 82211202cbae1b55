"""Proper edge-coloring engines feeding the decompositions.

Konig (bipartite, exactly max-degree colors), a fan/Kempe-chain engine covering
the Vizing and Shannon bounds on multigraphs, equalized bipartite k-colorings,
Petersen 2-factorization, and a small exact chromatic-index solver used as an
oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

from .multigraph import (BipartitionCert, EdgeColoring, GraphError, Multigraph,
                         bipartition)


class BudgetExceeded(GraphError):
    """An exact solver was asked to exceed its instance-size budget."""


# ---------------------------------------------------------------------------
# Kempe-chain state, shared by Konig and the fan recoloring engine.

class _KempeState:
    """Partial proper k-coloring: the color of each edge and, at each vertex, the
    edge holding each color.  Konig and the fan engine both color on it."""

    def __init__(self, g: Multigraph, k: int):
        self.g = g
        self.palette = frozenset(range(1, k + 1))
        self.colors = [0] * g.edge_count
        self.at: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]

    def missing(self, v: int) -> set[int]:
        return self.palette - self.at[v].keys()

    def set_color(self, eid: int, c: int) -> None:
        old = self.colors[eid]
        u, v = self.g.edges[eid]
        if old:
            for w in (u, v):
                if self.at[w].get(old) == eid:
                    del self.at[w][old]
        self.colors[eid] = c
        self.at[u][c] = eid
        self.at[v][c] = eid

    def swap_chain(self, y: int, a: int, b: int, x: int) -> bool:
        """Swap colors on the maximal a/b-chain from y unless it ends at x."""
        chain = []
        z, cur = y, b
        while cur in self.at[z]:
            e = self.at[z][cur]
            chain.append(e)
            z = self.g.other_end(e, z)
            cur = a if cur == b else b
        if z == x:
            return False
        old = {e: self.colors[e] for e in chain}
        for e in chain:
            for w in self.g.edges[e]:
                if self.at[w].get(old[e]) == e:
                    del self.at[w][old[e]]
        for e in chain:
            self.colors[e] = a if old[e] == b else b
            p, q = self.g.edges[e]
            self.at[p][self.colors[e]] = e
            self.at[q][self.colors[e]] = e
        return True

    def fold(self, x: int, fan: list[int], rim: list[int]) -> None:
        while True:
            y = rim[-1]
            c = min(self.missing(x) & self.missing(y))
            e_last = fan[-1]
            old = self.colors[e_last]
            self.set_color(e_last, c)
            if len(fan) == 1:
                return
            idx = next(i for i, w in enumerate(rim[:-1]) if old in self.missing(w))
            fan, rim = fan[: idx + 1], rim[: idx + 1]

    def color_edge_with_fan(self, eid: int) -> None:
        g = self.g
        u, v = g.edges[eid]
        x = u if g.degree(u) <= g.degree(v) else v
        y0 = g.other_end(eid, x)
        fan, rim = [eid], [y0]
        rim_missing = self.missing(y0)
        in_fan = {eid}
        while True:
            nxt = None
            for f in g.incidence[x]:
                if f not in in_fan and self.colors[f] and self.colors[f] in rim_missing:
                    nxt = f
                    break
            if nxt is None:
                raise AssertionError("fan construction stalled; palette too small")
            in_fan.add(nxt)
            fan.append(nxt)
            y = g.other_end(nxt, x)
            rim.append(y)
            rim_missing = rim_missing | self.missing(y)
            if self.missing(x) & self.missing(y):
                self.fold(x, fan, rim)
                return
            for i, w in enumerate(rim[:-1]):
                if w != y and (self.missing(w) & self.missing(y)):
                    a = min(self.missing(w) & self.missing(y))
                    b = min(self.missing(x))
                    if self.swap_chain(w, a, b, x):
                        self.fold(x, fan[: i + 1], rim[: i + 1])
                    else:
                        if not self.swap_chain(y, a, b, x):
                            raise AssertionError("both Kempe chains reached the anchor")
                        self.fold(x, fan, rim)
                    return


# ---------------------------------------------------------------------------
# Konig: bipartite multigraphs, exactly Delta colors.

def konig_color(g: Multigraph, cert: BipartitionCert | None = None) -> EdgeColoring:
    """Proper coloring of a bipartite multigraph with exactly max_degree colors.

    Each edge gets a color free at both ends, flipping one alternating
    (Kempe) chain when no common free color exists; in a bipartite graph the
    chain never closes back on the other endpoint.
    """
    if cert is None:
        cert = bipartition(g)
        if cert is None:
            raise GraphError("graph is not bipartite")
    cert.validate(g)
    st = _KempeState(g, g.max_degree)
    for eid, (u, v) in enumerate(g.edges):
        free_u, free_v = st.missing(u), st.missing(v)
        common = free_u & free_v
        if common:
            st.set_color(eid, min(common))
            continue
        a, b = min(free_u), min(free_v)
        if not st.swap_chain(v, b, a, u):
            raise AssertionError("a Kempe chain closed in a bipartite graph")
        st.set_color(eid, a)
    return EdgeColoring(g, tuple(st.colors))


# ---------------------------------------------------------------------------
# Fan engine: Vizing / Shannon bounds on multigraphs.

def _max_multiplicity(g: Multigraph) -> int:
    counts: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        key = (min(u, v), max(u, v))
        counts[key] = counts.get(key, 0) + 1
    return max(counts.values(), default=0)


def _fan_color(g: Multigraph, k: int) -> EdgeColoring:
    st = _KempeState(g, k)
    for eid, (u, v) in enumerate(g.edges):
        both = st.missing(u) & st.missing(v)
        if both:
            st.set_color(eid, min(both))
        else:
            st.color_edge_with_fan(eid)
    return EdgeColoring(g, tuple(st.colors))


def vizing_color(g: Multigraph) -> EdgeColoring:
    """Proper coloring of a simple graph with at most max_degree + 1 colors."""
    if not g.is_simple:
        raise GraphError("vizing_color requires a simple graph")
    delta = g.max_degree
    k = min(delta + 1, max(3 * delta // 2, 1)) if delta else 0
    return _fan_color(g, k)


def shannon_color(g: Multigraph) -> EdgeColoring:
    """Proper coloring of a loopless multigraph with at most floor(3*Delta/2) colors."""
    if g.has_loop():
        raise GraphError("shannon_color does not accept loops")
    delta = g.max_degree
    k = min(delta + _max_multiplicity(g), 3 * delta // 2) if delta else 0
    return _fan_color(g, k)


# ---------------------------------------------------------------------------
# Equalized bipartite k-coloring by vertex splitting.

def equalized_bipartite_color(g: Multigraph, cert: BipartitionCert, k: int) -> EdgeColoring:
    """k-coloring of a bipartite multigraph with per-vertex color counts within 1.

    Not necessarily proper: each vertex is split into copies of degree at most k
    (edges distributed to copies in edge-id order), the split graph is Konig
    colored, and the copies are collapsed back.
    """
    if k < 1:
        raise GraphError("k must be positive")
    cert.validate(g)

    copy_id: list[list[int]] = [[] for _ in range(g.vertex_count)]
    n_h = 0
    for v in range(g.vertex_count):
        slots = max(1, -(-len(g.incidence[v]) // k))
        copy_id[v] = list(range(n_h, n_h + slots))
        n_h += slots

    seen: list[int] = [0] * g.vertex_count
    h_edges: list[tuple[int, int]] = []
    for eid, (u, v) in enumerate(g.edges):
        cu = copy_id[u][seen[u] // k]
        seen[u] += 1
        cv = copy_id[v][seen[v] // k]
        seen[v] += 1
        h_edges.append((cu, cv))

    sides = [0] * n_h
    for v in range(g.vertex_count):
        for c in copy_id[v]:
            sides[c] = cert.sides[v]
    h = Multigraph(n_h, tuple(h_edges))
    hcol = konig_color(h, BipartitionCert(tuple(sides)))
    return EdgeColoring(g, hcol.colors)


# ---------------------------------------------------------------------------
# Euler circuits: Petersen 2-factorization.

def _euler_circuit(g: Multigraph, start: int, used: list[bool], ptr: list[int]) -> list[int]:
    """Hierholzer circuit (edge ids in trail order) of start's component."""
    stack: list[tuple[int, int | None]] = [(start, None)]
    circuit: list[int] = []
    while stack:
        v, ein = stack[-1]
        nxt = None
        while ptr[v] < len(g.incidence[v]):
            eid = g.incidence[v][ptr[v]]
            ptr[v] += 1
            if not used[eid]:
                used[eid] = True
                nxt = eid
                break
        if nxt is None:
            stack.pop()
            if ein is not None:
                circuit.append(ein)
        else:
            stack.append((g.other_end(nxt, v), nxt))
    circuit.reverse()
    return circuit


@dataclass(frozen=True)
class TwoFactorization:
    """Edge-disjoint 2-regular spanning subgraphs covering E (edge ids per factor)."""
    factors: tuple[tuple[int, ...], ...]


def petersen_two_factorization(g: Multigraph) -> TwoFactorization:
    """Split a 2r-regular multigraph (loops allowed) into r 2-factors.

    Each component's Eulerian circuit is oriented; the out/in bipartite graph
    of the orientation is r-regular and its Konig color classes are the factors.
    """
    degs = g.degrees
    if degs and (min(degs) != max(degs) or degs[0] % 2):
        raise GraphError("graph must be 2r-regular (loops count 2)")
    r = (degs[0] // 2) if degs else 0
    if r == 0:
        return TwoFactorization(())

    n = g.vertex_count
    used = [False] * g.edge_count
    ptr = [0] * n
    arcs: list[tuple[int, int, int]] = []
    for v in range(n):
        if all(used[e] for e in g.incidence[v]):
            continue
        circuit = _euler_circuit(g, v, used, ptr)
        cur = v
        for eid in circuit:
            head = g.other_end(eid, cur)
            arcs.append((cur, head, eid))
            cur = head
        if cur != v:
            raise AssertionError("Euler trail did not close")

    b = Multigraph(2 * n, tuple((tail, n + head) for tail, head, _ in arcs))
    cert = BipartitionCert(tuple([0] * n + [1] * n))
    col = konig_color(b, cert)
    factors: list[list[int]] = [[] for _ in range(r)]
    for i, (_, _, eid) in enumerate(arcs):
        factors[col.colors[i] - 1].append(eid)
    return TwoFactorization(tuple(tuple(sorted(f)) for f in factors))


# ---------------------------------------------------------------------------
# Exact chromatic index (desk-scale oracle).

def exact_chromatic_index(g: Multigraph, limit: int = 20) -> tuple[int, EdgeColoring]:
    """Exact chromatic index with a witness, by backtracking with symmetry pruning."""
    if g.has_loop():
        raise GraphError("chromatic index is undefined for loops")
    if g.edge_count > limit:
        raise BudgetExceeded(f"{g.edge_count} edges exceed the budget of {limit}")
    m = g.edge_count
    if m == 0:
        return 0, EdgeColoring(g, ())
    delta = g.max_degree

    # connectivity-first static order improves propagation
    order: list[int] = []
    placed_v: set[int] = set()
    remaining = sorted(range(m), key=lambda e: -(g.degree(g.edges[e][0]) + g.degree(g.edges[e][1])))
    while remaining:
        pick = next((e for e in remaining if g.edges[e][0] in placed_v or g.edges[e][1] in placed_v),
                    remaining[0])
        remaining.remove(pick)
        order.append(pick)
        placed_v.update(g.edges[pick])

    def feasible(k: int) -> list[int] | None:
        colors = [0] * m
        at: list[set[int]] = [set() for _ in range(g.vertex_count)]

        def bt(i: int, max_used: int) -> bool:
            if i == m:
                return True
            eid = order[i]
            u, v = g.edges[eid]
            for c in range(1, min(k, max_used + 1) + 1):
                if c not in at[u] and c not in at[v]:
                    colors[eid] = c
                    at[u].add(c)
                    at[v].add(c)
                    if bt(i + 1, max(max_used, c)):
                        return True
                    at[u].discard(c)
                    at[v].discard(c)
            colors[eid] = 0
            return False

        return colors if bt(0, 0) else None

    k = delta
    while True:
        got = feasible(k)
        if got is not None:
            return k, EdgeColoring(g, tuple(got))
        k += 1
