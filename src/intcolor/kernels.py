"""Direct interval-coloring constructions for the base graph families.

Kernels only construct: the color_* operations return a normalized coloring and
the *_colors helpers host-edge color maps, unchecked.  The callers certify:
thickness._certified every decomposition, the oracles every witness.

One walk, _factor_walk, alternates two colors along the paths and cycles of
every factor of an edge labelling at once; the degree-{1,2,2r} kernel and
thickness.decompose_eulerian_bipartite both color their Petersen factors by it.
Another, _dfs_tree, is the one depth-first walk behind the cactus kernel, which
reads its cycles off the tree, and thickness.decompose_forest_peel, which
colors each forest off it.
"""
from __future__ import annotations

import itertools
from operator import add
from typing import Container, Iterable, Mapping, Sequence

from .edge_coloring import petersen_two_factorization
from .multigraph import EdgeColoring, GraphError, Multigraph, require_bipartite


def _factor_walk(edges: Sequence[tuple[int, int]], vertex_count: int,
                 factor_of: Sequence[int], lows: Sequence[int]) -> list[int]:
    """Colors of one walk over the (vertex, factor) slots, v*r + f, of every edge
    in its factor_of of r = len(lows) factors: factor f alternates lows[f]+1 and
    lows[f]+2 along its paths and cycles.

    A vertex meets a factor in at most two edges, so the edges of a factor are
    paths and cycles.  The paths are walked first, each from its smaller end
    slot, then the cycles, each from its smallest slot by the smaller of the two
    edges there.  An odd cycle closes on a clash, for the caller's
    certification to find.  When the slots outnumber the edge ends, the used
    ones are numbered in ascending order, so the state stays linear in E.
    """
    r = len(lows)
    n = vertex_count * r
    us = [u * r + f for (u, _), f in zip(edges, factor_of)]
    vs = [v * r + f for (_, v), f in zip(edges, factor_of)]
    if n > 2 * len(edges):
        index = {s: i for i, s in enumerate(sorted({*us, *vs}))}
        us, vs, n = [index[s] for s in us], [index[s] for s in vs], len(index)
    # each slot keeps its last edge and the one before it, the smaller of two
    last, other = [-1] * n, [-1] * n
    for e, pair in enumerate(zip(us, vs)):
        for s in pair:
            other[s] = last[s]
            last[s] = e
    across = list(map(add, us, vs))     # edge e leads from slot s to across[e] - s
    # colors[-1] is a colored stand-in for the edge a path's end slot lacks
    colors = [0] * len(edges) + [1]
    starts: Iterable[tuple[int, int]] = enumerate(other)
    # the 2E edge ends fill E slots of two edges unless some slot holds one: a path end
    if n - other.count(-1) != len(edges):
        ends = [(s, e) for s, (e, e2) in enumerate(zip(last, other)) if e2 < 0 <= e]
        starts = itertools.chain(ends, starts)
    for s, e in starts:
        if colors[e]:
            continue
        c, total = lows[factor_of[e]] + 1, 2 * lows[factor_of[e]] + 3
        while not colors[e]:
            colors[e] = c
            c = total - c
            s = across[e] - s
            e = other[s] if last[s] == e else last[s]
    colors.pop()
    return colors


def _dfs_tree(g: Multigraph, live: Container[int]) -> tuple[list[int], list[int]]:
    """Depth-first spanning forest of the edges in live: each vertex's tree edge
    to its parent (-1 at a root) and the vertices in the order the walk reached them.

    Roots are taken in ascending order and each vertex's edges in incidence
    order, so each tree is rooted at its smallest vertex and a vertex's
    children come in the order of their tree edges at it.  Every live edge
    outside the tree joins a vertex to one of its ancestors.
    """
    edges, incidence = g.edges, g.incidence
    parent = [-1] * g.vertex_count
    seen = [False] * g.vertex_count
    order: list[int] = []
    for root in range(g.vertex_count):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        stack = [(root, iter(incidence[root]))]
        while stack:
            v, rest = stack[-1]
            for e in rest:
                a, w = edges[e]
                if w == v:
                    w = a
                if not seen[w] and e in live:
                    seen[w] = True
                    parent[w] = e
                    order.append(w)
                    stack.append((w, iter(incidence[w])))
                    break
            else:
                stack.pop()
    return parent, order


# ---------------------------------------------------------------------------
# Forests.

def color_forest(g: Multigraph) -> EdgeColoring:
    """Interval coloring of a forest: root edges 1..d, then fan out from the entry color.

    Each tree is rooted at its smallest vertex and colored from 1, so a forest
    is colored as its trees would be one at a time.  An edge not yet reached
    has color 0."""
    edges, incidence = g.edges, g.incidence
    colors = [0] * g.edge_count
    visited = [False] * g.vertex_count
    for root in range(g.vertex_count):
        if visited[root]:
            continue
        visited[root] = True
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            v, entry_eid, c = stack.pop()
            for eid in incidence[v]:
                if eid == entry_eid:
                    continue
                u, w = edges[eid]
                if w == v:
                    w = u
                if colors[eid] or visited[w]:
                    raise GraphError("cycle detected; not a forest")
                visited[w] = True
                c += 1
                colors[eid] = c
                stack.append((w, eid, c))
    return EdgeColoring(g, tuple(colors))


# ---------------------------------------------------------------------------
# Complete bipartite pieces.

def staircase_bipartite_colors(g: Multigraph, xs: list[int], ys: list[int]) -> dict[int, int]:
    """Color every xs-ys edge i+j+1; palettes are intervals of length degree."""
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    out: dict[int, int] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u in xi and v in yi:
            out[eid] = xi[u] + yi[v] + 1
        elif v in xi and u in yi:
            out[eid] = xi[v] + yi[u] + 1
    return out


def latin_bipartite_colors(g: Multigraph, xs: list[int], ys: list[int],
                           base: int = 0) -> dict[int, int]:
    """Color every xs-ys edge (i+j mod n)+1 (+base); every palette is the full block."""
    if len(xs) != len(ys):
        raise GraphError("latin coloring needs equal sides")
    n = len(xs)
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    out: dict[int, int] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u in xi and v in yi:
            out[eid] = base + (xi[u] + yi[v]) % n + 1
        elif v in xi and u in yi:
            out[eid] = base + (xi[v] + yi[u]) % n + 1
    return out


# ---------------------------------------------------------------------------
# Incremental growth: pendant edges and cycles glued to a leaf.

class IncrementalHost:
    """Grow an interval-colored edge subset of a fixed host graph.

    A vertex is in the host once an edge at it is colored.  Colors may go below
    1 while growing; callers normalize on emission.  A host vertex's palette is
    an interval, kept as its (smallest, largest) color.
    """

    def __init__(self, g: Multigraph):
        self.g = g
        self.color: dict[int, int] = {}
        self._pal: dict[int, tuple[int, int]] = {}

    def add_colored(self, eid: int, c: int) -> None:
        if eid in self.color:
            raise AssertionError(f"edge {eid} already colored")
        u, v = self.g.edges[eid]
        self.color[eid] = c
        for w in (u, v):
            lo, hi = self._pal.get(w, (c, c))
            self._pal[w] = (min(lo, c), max(hi, c))

    def add_pendant(self, eid: int, anchor: int) -> None:
        """Color eid one above the largest color at its host end anchor."""
        self.add_colored(eid, self._pal[anchor][1] + 1)

    def add_cycle(self, anchor: int, cycle: list[int]) -> list[int]:
        """Attach the cycle on the edges cycle at a leaf of the host, walked from
        anchor out along its smaller edge id: even cycles alternate k+1,k+2; odd
        ones walk k-1, then k,k-1 alternating, closing with k+1.  Returns the
        cycle's vertices in walk order, anchor first."""
        k, hi = self._pal.get(anchor, (0, 1))    # no palette outside the host
        if k != hi:
            raise GraphError(f"cycle anchor {anchor} is not a leaf of the host")
        L = len(cycle)
        if L < 2:
            raise GraphError("cycles need at least 2 edges")
        at: dict[int, list[int]] = {}
        for e in cycle:
            for w in self.g.edges[e]:
                at.setdefault(w, []).append(e)
        walk, verts = [min(at[anchor])], [anchor]
        cur = self.g.other_end(walk[0], anchor)
        while cur != anchor:
            verts.append(cur)
            a, b = at[cur]
            walk.append(b if a == walk[-1] else a)
            cur = self.g.other_end(walk[-1], cur)
        if L % 2 == 0:
            pattern = [k + 1 if i % 2 == 0 else k + 2 for i in range(L)]
        else:
            pattern = [k - 1]
            pattern += [k if i % 2 else k - 1 for i in range(1, L - 1)]
            pattern += [k + 1]
        for eid, c in zip(walk, pattern):
            self.add_colored(eid, c)
        return verts

    def grow(self, entering: Iterable[int], borrow: Container[int],
             cycle_at: Mapping[int, list[int]]) -> None:
        """Enter the given host vertices, then spread from every host vertex:
        each borrow edge whose far end is outside the host becomes a pendant,
        and the far end enters.

        A vertex that enters takes the cycle cycle_at gives it, attached while
        the vertex is still a leaf, and the cycle's vertices enter with it.  A
        pendant adds the color one above its host end's palette and an attached
        cycle keeps its anchor's palette an interval, so every palette stays an
        interval and the host stays interval colored.
        """
        g, pal = self.g, self._pal
        queue: list[int] = []

        def enter(v: int) -> None:
            cycle = cycle_at.get(v)
            if cycle is None:
                queue.append(v)
            else:
                queue.extend(self.add_cycle(v, cycle))

        for v in entering:
            enter(v)
        while queue:
            v = queue.pop()
            for e in g.incidence[v]:
                if e in borrow:
                    w = g.other_end(e, v)
                    if w not in pal:
                        self.add_pendant(e, v)
                        enter(w)


# ---------------------------------------------------------------------------
# Cacti: connected, cycles pairwise vertex-disjoint.

def color_cactus(g: Multigraph) -> EdgeColoring:
    """Interval coloring of a connected cactus (vertex-disjoint cycles, Delta >= 3).

    The cycles are the fundamental cycles of the depth-first tree: a graph is
    such a cactus exactly when those are pairwise vertex-disjoint.  Colors the
    smallest bridge 1 and grows the host over the bridges from its ends: a
    vertex's cycle is attached the moment the vertex enters the host (while it
    is still a leaf), bridge edges are pendant extensions.
    """
    parent, order = _dfs_tree(g, range(g.edge_count))
    roots = parent.count(-1)
    # every tree of the walk has one root, and an isolated vertex is a tree alone
    if roots - g.degrees.count(0) > 1:
        raise GraphError("cactus must be connected")
    if g.edge_count == g.vertex_count - roots:      # the walk's tree holds every edge
        return color_forest(g)
    colors, refused = _cactus_colors(g, parent, order)
    if refused:
        raise refused[0][1]
    return EdgeColoring(g, tuple(colors))


def _cactus_colors(g: Multigraph, parent: list[int], order: list[int]
                   ) -> tuple[list[int], list[tuple[list[int], GraphError]]]:
    """color_cactus on every component of g at once, from g's _dfs_tree walk.

    Each component with a cycle is colored as color_cactus colors it alone,
    from 1, since the walk, the bridges and the growth keep the relative order
    of its vertices and edges; a tree is grown from its smallest edge, where
    color_cactus hands it to color_forest.  A component color_cactus would
    refuse keeps color 0 and is returned with its edges, ascending, and the
    reason, in the order of its smallest vertex.
    """
    edges, degrees = g.edges, g.degrees
    comp_of = [0] * g.vertex_count
    top: list[int] = []     # the maximum degree of each tree of the walk
    for w in order:
        if parent[w] < 0:
            top.append(0)
        comp_of[w] = len(top) - 1
        top[-1] = max(top[-1], degrees[w])
    tree = set(parent)
    position = dict(zip(order, itertools.count()))
    cycle_at: dict[int, list[int]] = {}
    bridges = tree - {-1}
    reasons: dict[int, GraphError] = {}
    for e in sorted(set(range(g.edge_count)) - tree):
        k = comp_of[edges[e][0]]
        if k in reasons:
            continue
        if top[k] <= 2:
            reasons[k] = GraphError("a bare cycle is not a cactus instance")
            continue
        # every chord joins a vertex to its ancestor, which the walk reached first
        anc, v = sorted(edges[e], key=position.__getitem__)
        cycle, verts = [e], [v]
        while v != anc:
            cycle.append(parent[v])
            a, b = edges[parent[v]]
            v = a if b == v else b
            verts.append(v)
        shared = [v for v in verts if v in cycle_at]
        if len({id(cycle_at[v]) for v in shared}) < len(shared):
            reasons[k] = GraphError("two cycles share an edge or a pair of vertices")
        elif shared:
            reasons[k] = GraphError(f"cycles intersect at vertex {shared[0]}")
        else:
            cycle_at.update(dict.fromkeys(verts, cycle))
            bridges.difference_update(cycle)

    host = IncrementalHost(g)
    grown: set[int] = set(reasons)
    for e in sorted(bridges):       # the smallest bridge of each component
        k = comp_of[edges[e][0]]
        if k not in grown:
            grown.add(k)
            host.add_colored(e, 1)
            host.grow(edges[e], bridges, cycle_at)
    low = [1] * len(top)
    for e, c in host.color.items():
        k = comp_of[edges[e][0]]
        low[k] = min(low[k], c)
    colors = [0] * g.edge_count
    for e, c in host.color.items():
        colors[e] = c + 1 - low[comp_of[edges[e][0]]]
    refused: dict[int, list[int]] = {k: [] for k in sorted(reasons)}
    if refused:
        for e, (u, _) in enumerate(edges):
            if comp_of[u] in refused:
                refused[comp_of[u]].append(e)
    if len(host.color) + sum(map(len, refused.values())) != g.edge_count:
        raise AssertionError("construction left edges uncolored")
    return colors, [(eids, reasons[k]) for k, eids in refused.items()]


# ---------------------------------------------------------------------------
# Bipartite graphs with degrees in {1, 2, 2r}: pair palettes per 2-factor.

def color_low_even_bipartite(g: Multigraph) -> EdgeColoring:
    """Interval 2r-coloring with every degree-2 palette a pair {2i-1, 2i}.

    Degree-2 chains are suppressed into single edges (or loops), the remaining
    2r-regular multigraph is split into r 2-factors, and every edge of a chain
    takes its chain's factor.  Degree-1 vertices are paired with a doubled copy
    of the suppressed graph to restore regularity.  A component of maximum
    degree 2 is factor 0.  One _factor_walk colors factor i (counted from 0)
    2i+1, 2i+2 alternately along its paths and cycles.
    """
    require_bipartite(g)
    t = g.traversal
    delta = g.max_degree
    if delta % 2:
        raise GraphError("maximum degree must be even")
    if any(d not in (0, 1, 2, delta) for d in g.degrees):
        raise GraphError("degrees must lie in {1, 2, 2r}")

    factor_of = [0] * g.edge_count
    for comp, comp_edges, side_max in zip(t.vertices, t.components, t.side_max):
        if max(side_max) > 2:
            _suppressed_factors(g, comp, comp_edges, delta // 2, factor_of)
    # every component has factor-0 edges, whose walks start with color 1: no shift
    colors = _factor_walk(g.edges, g.vertex_count, factor_of, range(0, delta, 2))
    return EdgeColoring(g, tuple(colors))


def _suppressed_factors(g: Multigraph, comp: list[int], comp_edges: list[int],
                        r: int, factor_of: list[int]) -> None:
    """Set factor_of of every edge of a component with a vertex of degree 2r >= 4
    to the Petersen factor of its degree-2 chain."""
    anchors = [v for v in comp if g.degree(v) != 2]
    a_index = {v: i for i, v in enumerate(anchors)}

    # walk degree-2 chains between anchors; each becomes one suppressed edge
    chains: list[list[int]] = []
    chain_ends: list[tuple[int, int]] = []     # as indices into anchors
    used: set[int] = set()
    for a in anchors:
        for start in g.incidence[a]:
            if start in used:
                continue
            chain = [start]
            used.add(start)
            cur = g.other_end(start, a)
            while g.degree(cur) == 2:
                nxt = next(e for e in g.incidence[cur] if e not in used)
                chain.append(nxt)
                used.add(nxt)
                cur = g.other_end(nxt, cur)
            chains.append(chain)
            chain_ends.append((a_index[a], a_index[cur]))
    if len(used) != len(comp_edges):
        raise AssertionError("chain walk did not cover the component")

    # doubled graph: two copies plus 2r-1 cross edges per degree-1 anchor
    na = len(anchors)
    d_edges = chain_ends + [(na + a, na + b) for a, b in chain_ends]
    for v in anchors:
        if g.degree(v) == 1:
            d_edges.extend((a_index[v], na + a_index[v]) for _ in range(2 * r - 1))
    factors = petersen_two_factorization(2 * na, d_edges)
    if len(factors) != r:
        raise AssertionError("suppressed component is not 2r-regular")

    for i, factor in enumerate(factors):
        for d_eid in factor:     # the copy and the cross edges lift to no edge
            for e in chains[d_eid] if d_eid < len(chains) else ():
                factor_of[e] = i


# ---------------------------------------------------------------------------
# Balanced complete multipartite graphs.

def round_robin_rounds(k: int) -> list[list[tuple[int, int]]]:
    """Circle-method 1-factorization of K_k (k even): k-1 rounds of disjoint pairs."""
    if k % 2 or k < 2:
        raise GraphError("round robin needs an even number of players")
    rounds = []
    for r in range(k - 1):
        pairs = [(r, k - 1)]
        pairs.extend(((r + i) % (k - 1), (r - i) % (k - 1)) for i in range(1, k // 2))
        rounds.append([(min(a, b), max(a, b)) for a, b in pairs])
    return rounds


def balanced_multipartite_colors(g: Multigraph, parts: list[list[int]]) -> dict[int, int]:
    """Host-edge colors of K_{n*r} on the given r parts of n vertices (nr even),
    every palette [1, (r-1)n]; edges within a part or leaving the parts stay
    uncolored.

    One round robin whose every pair of players gets a latin block.  Even r: the
    players are the parts.  Odd r (so n even): the players are the 2r part halves,
    seated so that round 0 pairs the two halves of each part, and round 0 is
    dropped.
    """
    r, n = len(parts), len(parts[0])
    if any(len(p) != n for p in parts):
        raise GraphError("parts must have equal sizes")
    if (n * r) % 2:
        raise GraphError("nr must be even")
    if r % 2 == 0:
        players, rounds = parts, round_robin_rounds(r)
    else:
        h = n // 2
        players = [p[:h] for p in parts] + [p[h:] for p in reversed(parts)]
        rounds = round_robin_rounds(2 * r)[1:]
    m = len(players[0])
    round_of = {pair: i for i, rnd in enumerate(rounds) for pair in rnd}
    seat = {v: (pi, a) for pi, p in enumerate(players) for a, v in enumerate(p)}
    out: dict[int, int] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u in seat and v in seat:
            (pu, a), (pv, b) = seat[u], seat[v]
            i = round_of.get((min(pu, pv), max(pu, pv)))
            if i is not None:
                out[eid] = i * m + (a + b) % m + 1
    return out
