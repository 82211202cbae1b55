"""Sort-based reference checkers the library's one-pass verifiers are tested against.

They build every vertex's palette (a loop contributes its color twice), sort it
and test it pairwise, the plain way; the library instead compares set sizes and
extremes.  Both must return identical VerifyReports.

The chromatic index reference tries colors 1..k edge by edge; the library
instead sweeps one matching per color.

The set-based Kempe-chain engine is the reference for the library's bitmask
engine: Konig, fan, equalized and Petersen colorings must be identical.  The
two-pass chain swap is the reference for the bitmask engine's one-pass swap:
run on the library's engine in its place, it must give identical colorings.

The walks of paths and cycles behind every reference alternation are plain:
per-vertex lists, each step taking the first unused edge there.  The library
walks every factor of a graph at once over flat (vertex, factor) slots, and
both must give identical colors.

The subcubic construction's reference is a T-graph labeler: it walks the
degree-2 edges for odd cycles, walks the subset minus the matching into paths
and cycles, labels an auxiliary graph of per-vertex lists and repairs its odd
cycles from the walked paths.  The library runs one pass over flat slot state
instead, and both must return identical colors, or the same error.

The bipartite decomposers' references color one equalized class, or one pair
of Petersen factors, at a time: each class renumbered onto its own vertices,
Konig 3-colored and given to the T-graph labeler, each pair of factors walked by
two_factor_pair_colors.  The library colors every class, and every pair, in
one pass over (vertex, class) slots, and both must return identical
decompositions.

The timetable verifier at the end keeps a dict of period lists per teacher and
a min/max per class row; the library's one pass per day keeps bitmasks and
first/last/count instead, and both must return identical VerifyReports.

The componentwise dispatcher at the end dispatches every component on its
own subgraph; the library closes the tree and the even-cycle components in one
batch each, and both must return identical decompositions and traces.

The five-class-general split takes every group one component at a time and
colors each component's 2-class side by alternating walks; the library splits a
group as a whole where it can and colors that side by class, and both must give
the same number of parts.  The group-level reference splits a group as the
library does, but counts every group's edge ends to find a vertex meeting three
classes and hands the three-class side to subcubic_colors, which checks the
colors and ranks them; the library reads both off the coloring's Kempe state
and runs the slot pass itself, and both must return identical decompositions.

The graph-JSON reader checks every edge in Python and converts every value
through build_graph; the library reads a well-formed file in C-level passes,
and both must return the same graph, or the same error.

The cactus reference at the very end finds its cycles as biconnected blocks
(Hopcroft-Tarjan) and the forest-peel reference runs its own DFS per round and
colors each forest by color_forest on its subgraph; the library reads both off
one depth-first walk, and both must return identical colorings and
decompositions, or refuse the same inputs.

The complete-multipartite references at the very end assign each vertex the
non-neighbours after it and check every vertex pair, and halve the list of parts
level by level, one staircase kernel call per split; the library groups the
vertices by neighbourhood and puts every edge on the level of the highest bit in
which its ends' part indices differ, in one pass.  Detection must agree on
every graph, and for a power-of-two number of parts the levels must be
identical.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from intcolor.edge_coloring import (_euler_circuit, _konig_state, equalized_bipartite_color,
                                    petersen_two_factorization)
from intcolor.multigraph import (Decomposition, EdgeColoring, GraphError, Multigraph,
                                 VerifyReport, _is_cyclically_consecutive, build_graph, normalize,
                                 relabel, traverse)
from intcolor.subcubic import OddCycleComponent, subcubic_colors
from intcolor.kernels import IncrementalHost, color_forest, staircase_bipartite_colors
from intcolor.thickness import (BoundTrace, _AbsorbStuck, _assemble, _class_splits,
                                _dispatch_connected, _lift, _split_component)
from intcolor.timetable import RequirementMatrix, Timetable


def _palette(g: Multigraph, colors, eids) -> list[int]:
    out = []
    for eid in eids:
        u, w = g.edges[eid]
        out.append(colors[eid])
        if u == w:
            out.append(colors[eid])
    return out


def _clashing_edges(eids, colors) -> list[int]:
    count = Counter(colors[e] for e in eids)
    return [e for e in eids if count[colors[e]] > 1]


def _is_consecutive(sorted_vals: list[int]) -> bool:
    return all(b == a + 1 for a, b in zip(sorted_vals, sorted_vals[1:]))


def reference_verify(g: Multigraph, c: EdgeColoring, mode: str = "interval",
                     t: int | None = None) -> VerifyReport:
    if mode == "cyclic":
        if t is None or t < 1:
            raise GraphError("cyclic mode requires a period t >= 1")
        for eid, col in enumerate(c.colors):
            if not 1 <= col <= t:
                raise GraphError(f"cyclic mode: edge {eid} colored {col} outside [1, {t}]")
    proper = interval = True
    cyclic: bool | None = True if mode == "cyclic" else None
    bad_vertices: list[int] = []
    bad_edges: set[int] = set()
    for v in range(g.vertex_count):
        pal = sorted(_palette(g, c.colors, g.incidence[v]))
        if not pal:
            continue
        v_proper = len(set(pal)) == len(pal)
        v_interval = v_proper and _is_consecutive(pal)
        v_cyclic = v_proper and _is_cyclically_consecutive(set(pal), t) if mode == "cyclic" else None
        proper &= v_proper
        interval &= v_interval
        if mode == "cyclic":
            cyclic = bool(cyclic) and bool(v_cyclic)
        if not v_proper:
            bad_edges.update(_clashing_edges(g.incidence[v], c.colors))
        failed = {"proper": not v_proper, "interval": not v_interval,
                  "cyclic": not v_cyclic}[mode]
        if failed:
            bad_vertices.append(v)
    return VerifyReport(proper=proper, interval=interval, cyclic_interval=cyclic,
                        offending_vertices=tuple(bad_vertices),
                        offending_edges=tuple(sorted(bad_edges)))


def reference_verify_decomposition(g: Multigraph, d: Decomposition) -> VerifyReport:
    bad_vertices: list[int] = []
    bad_edges: set[int] = set()
    for v, inc in enumerate(g.incidence):
        by_part: dict[int, list[int]] = {}
        for eid in inc:
            by_part.setdefault(d.parts[eid], []).append(eid)
        v_ok = True
        for eids in by_part.values():
            pal = sorted(_palette(g, d.colors, eids))
            if len(set(pal)) != len(pal):
                v_ok = False
                bad_edges.update(_clashing_edges(eids, d.colors))
            elif not _is_consecutive(pal):
                v_ok = False
        if not v_ok:
            bad_vertices.append(v)
    ok = not bad_vertices
    return VerifyReport(proper=ok, interval=ok, cyclic_interval=None,
                        offending_vertices=tuple(bad_vertices),
                        offending_edges=tuple(sorted(bad_edges)))


def reference_interval_colorable(g: Multigraph) -> bool:
    """Whether a loopless graph has an interval coloring, by trying colors edge by edge.

    Every component of an interval colorable graph can be shifted to start at 1 and
    then uses at most |E| colors, so colors 1..|E| suffice.  A partial coloring is
    cut off as soon as a vertex repeats a color or its colors span more than its
    degree; a complete one that passes both tests is an interval coloring.
    """
    m = g.edge_count
    palettes: list[list[int]] = [[] for _ in range(g.vertex_count)]

    def fits(v: int, c: int) -> bool:
        pal = palettes[v] + [c]
        return c not in palettes[v] and max(pal) - min(pal) < g.degree(v)

    def assign(eid: int) -> bool:
        if eid == m:
            return True
        u, v = g.edges[eid]
        for c in range(1, m + 1):
            if fits(u, c) and fits(v, c):
                palettes[u].append(c)
                palettes[v].append(c)
                if assign(eid + 1):
                    return True
                palettes[u].pop()
                palettes[v].pop()
        return False

    return assign(0)


def reference_cyclic_interval_colorable(g: Multigraph, t: int) -> bool:
    """Whether a loopless graph has a cyclic interval t-coloring, by trying colors 1..t
    edge by edge.

    Rotating every color keeps each palette a cyclic arc, so the first edge takes
    color 1.  A partial coloring is cut off as soon as a vertex repeats a color or its
    colors fit in no cyclic arc of deg(v) consecutive colors modulo t; a complete one
    that passes both tests gives every vertex exactly such an arc.
    """
    m = g.edge_count
    palettes: list[set[int]] = [set() for _ in range(g.vertex_count)]

    def fits(v: int, c: int) -> bool:
        pal = palettes[v] | {c}
        return c not in palettes[v] and any(
            all((x - s) % t < g.degree(v) for x in pal) for s in range(1, t + 1))

    def assign(eid: int) -> bool:
        if eid == m:
            return True
        u, v = g.edges[eid]
        for c in range(1, t + 1 if eid else 2):
            if fits(u, c) and fits(v, c):
                palettes[u].add(c)
                palettes[v].add(c)
                if assign(eid + 1):
                    return True
                palettes[u].discard(c)
                palettes[v].discard(c)
        return False

    return assign(0)


def reference_chromatic_index(g: Multigraph) -> int:
    """The chromatic index of a loopless graph: the smallest k from the maximum degree
    up for which trying colors 1..k edge by edge, in edge-id order, finds a proper
    coloring.

    Colors are interchangeable, so an edge takes a color already used or the
    smallest one not yet used.
    """
    m = g.edge_count
    palettes: list[set[int]] = [set() for _ in range(g.vertex_count)]

    def assign(eid: int, k: int, used: int) -> bool:
        if eid == m:
            return True
        u, v = g.edges[eid]
        for c in range(1, min(k, used + 1) + 1):
            if c not in palettes[u] and c not in palettes[v]:
                palettes[u].add(c)
                palettes[v].add(c)
                if assign(eid + 1, k, max(used, c)):
                    return True
                palettes[u].discard(c)
                palettes[v].discard(c)
        return False

    k = g.max_degree
    while not assign(0, k, 0):
        k += 1
    return k


def reference_edge_components(g: Multigraph, eids) -> list[list[int]]:
    """Connected components of an edge subset, as ascending edge-id lists, in the
    order of their first edge in eids: the dict union-find the dispatcher used
    before its one traversal."""
    edges = g.edges
    root: dict[int, int] = {}       # union-find with path halving
    for e in eids:
        u, v = edges[e]
        ru = root.setdefault(u, u)
        while ru != root[ru]:
            root[ru] = ru = root[root[ru]]
        rv = root.setdefault(v, v)
        while rv != root[rv]:
            root[rv] = rv = root[root[rv]]
        if ru != rv:
            root[ru] = rv
    comps: dict[int, list[int]] = {}
    for e in eids:
        r = edges[e][0]
        while r != root[r]:
            r = root[r]
        comps.setdefault(r, []).append(e)
    return [sorted(comp) for comp in comps.values()]


def reference_two_coloring(g: Multigraph, eids) -> dict[int, int] | None:
    """Sides of the vertices of an edge set, found by relaxing edges until every
    vertex is labelled, the smallest of each component 0; None if an edge joins
    two vertices of one side."""
    eids = list(eids)
    side: dict[int, int] = {}
    while len(side) < len({v for e in eids for v in g.edges[e]}):
        side[min(v for e in eids for v in g.edges[e] if v not in side)] = 0
        grown = True
        while grown:
            grown = False
            for e in eids:
                u, v = g.edges[e]
                for a, b in ((u, v), (v, u)):
                    if a in side and b not in side:
                        side[b] = 1 - side[a]
                        grown = True
    if any(side[u] == side[v] for u, v in map(g.edges.__getitem__, eids)):
        return None
    return side


# ---------------------------------------------------------------------------
# Set-based Kempe-chain engine: the reference the bitmask engine must match
# color for color (same smallest common color, same chain, same fan).

class _KempeState:
    """Set-based Kempe-chain state: the color of each edge and, at each vertex, a
    dict from color to the edge holding it; missing() builds a new set on every
    call."""

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


def reference_konig_colors(g: Multigraph) -> tuple[int, ...]:
    """Konig coloring of a bipartite multigraph with max_degree colors, on the
    set-based engine."""
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
    return tuple(st.colors)


def reference_fan_colors(g: Multigraph, k: int) -> tuple[int, ...]:
    """Fan-engine k-coloring (Vizing / Shannon), on the set-based engine."""
    st = _KempeState(g, k)
    for eid, (u, v) in enumerate(g.edges):
        both = st.missing(u) & st.missing(v)
        if both:
            st.set_color(eid, min(both))
        else:
            st.color_edge_with_fan(eid)
    return tuple(st.colors)


def reference_equalized_colors(g: Multigraph, k: int) -> tuple[int, ...]:
    """Equalized k-coloring the old way: split every vertex into copies of degree
    at most k (edges to copies in edge-id order), build the split multigraph and
    Konig color it on the set-based engine."""
    copy_id: list[list[int]] = []
    n_h = 0
    for v in range(g.vertex_count):
        slots = max(1, -(-len(g.incidence[v]) // k))
        copy_id.append(list(range(n_h, n_h + slots)))
        n_h += slots
    seen = [0] * g.vertex_count
    h_edges = []
    for u, v in g.edges:
        cu = copy_id[u][seen[u] // k]
        seen[u] += 1
        cv = copy_id[v][seen[v] // k]
        seen[v] += 1
        h_edges.append((cu, cv))
    return reference_konig_colors(Multigraph(n_h, tuple(h_edges)))


def reference_petersen_factors(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """2-factors of a 2r-regular edge list on vertices 0..n-1 (loops count 2) the
    old way: orient each component's Euler circuit, build the out/in bipartite
    multigraph and Konig color it on the set-based engine."""
    incidence: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        incidence[u].append(eid)
        if v != u:
            incidence[v].append(eid)
    r = len(edges) // n if n else 0     # 2r-regular: r edges per vertex
    used = [False] * len(edges)
    ptr = [0] * n
    arcs = []
    for v in range(n):
        if all(used[e] for e in incidence[v]):
            continue
        cur = v
        for eid in _euler_circuit(incidence, edges, v, used, ptr):
            a, b = edges[eid]
            head = b if a == cur else a
            arcs.append((cur, head, eid))
            cur = head
    colors = reference_konig_colors(Multigraph(2 * n, tuple((t, n + h) for t, h, _ in arcs)))
    factors: list[list[int]] = [[] for _ in range(r)]
    for (_, _, eid), c in zip(arcs, colors):
        factors[c - 1].append(eid)
    return tuple(tuple(sorted(f)) for f in factors)


def two_pass_swap_chain(self, y: int, a: int, b: int, x: int) -> bool:
    """The bitmask engine's chain swap in two passes: every chain edge's old
    color is cleared at both ends, then its new color is set at both ends.
    Run in place of edge_coloring._KempeState.swap_chain."""
    edges, colors, used, at, width = self.edges, self.colors, self.used, self.at, self.width
    chain = []
    z, cur = y, b
    while (e := at[z * width + cur]) >= 0:
        chain.append(e)
        p, q = edges[e]
        z = q if p == z else p
        cur = a if cur == b else b
    if z == x:
        return False
    for e in chain:
        old = colors[e]
        for w in edges[e]:
            if at[w * width + old] == e:
                at[w * width + old] = -1
                used[w] &= ~(1 << old)
    for e in chain:
        c = colors[e] = a if colors[e] == b else b
        bit = 1 << c
        for w in edges[e]:
            at[w * width + c] = e
            used[w] |= bit
    return True


# ---------------------------------------------------------------------------
# The subcubic construction as a T-graph labeler.

A, B = 0, 1


@dataclass
class TGraph:
    """Auxiliary graph on the subset's vertices, as per-vertex lists with -1 for none.

    Red edges are the matching edges: v's partner is red_partner[v], joined by
    edge red_eid[v].  Each maximal path of the subset minus the matching joins
    its two ends by a blue edge when it has an even number of edges, else by a
    green one: path_end[v] is the other end of v's path, path_idx[v] its index
    in paths, and blue[i] whether path i is blue.  A vertex has at most one red
    and one path edge, so every walk alternates the two kinds and the graph has
    maximum degree 2.  labels[v] is A or B once the constraint pass reaches v,
    -1 before.
    """
    red_partner: list[int]
    red_eid: list[int]
    path_end: list[int]
    path_idx: list[int]
    paths: list[tuple[list[int], list[int]]]
    blue: list[bool]
    labels: list[int]


@dataclass(frozen=True)
class _Repair:
    break_eid: int
    good_sequence: tuple[int, ...] | None = None   # the expanded cycle, when even
    pidx: int = -1
    v: int = -1
    u: int = -1
    dist: int = -1


def _build_tgraph(edges: list[tuple[int, int]], n: int, m_eids: list[int],
                  gm_paths: list[tuple[list[int], list[int]]]) -> TGraph:
    t = TGraph([-1] * n, [-1] * n, [-1] * n, [-1] * n, gm_paths,
               [len(eseq) % 2 == 0 for _, eseq in gm_paths], [-1] * n)
    partner, red_eid = t.red_partner, t.red_eid
    for eid in m_eids:
        u, v = edges[eid]
        if partner[u] >= 0 or partner[v] >= 0:
            raise AssertionError("matching class is not a matching")
        partner[u], red_eid[u] = v, eid
        partner[v], red_eid[v] = u, eid
    path_end, path_idx = t.path_end, t.path_idx
    for idx, (vseq, _) in enumerate(gm_paths):
        a, b = vseq[0], vseq[-1]
        path_end[a], path_idx[a] = b, idx
        path_end[b], path_idx[b] = a, idx
    return t


def _cycle_walk(t: TGraph, start: int) -> list[tuple[str, int, int, int]]:
    """Closed walk of a degree-2 component, red edge first: (kind, frm, to, ref)
    per step."""
    walk: list[tuple[str, int, int, int]] = []
    cur = start
    while True:
        nxt = t.red_partner[cur]
        walk.append(("r", cur, nxt, t.red_eid[cur]))
        cur = t.path_end[nxt]
        walk.append(("p", nxt, cur, t.path_idx[nxt]))
        if cur == start:
            return walk


def _label_path_components(t: TGraph) -> None:
    """Label A at the smaller end of every path component of the auxiliary
    graph and carry the label along it, flipping it across each blue edge."""
    partner, path_end, path_idx, blue, labels = (t.red_partner, t.path_end, t.path_idx,
                                                 t.blue, t.labels)
    for v0 in range(len(labels)):
        red = partner[v0] >= 0
        if labels[v0] >= 0 or red == (path_end[v0] >= 0):
            continue        # labelled, or not an end: off the graph or of degree 2
        labels[v0] = lab = A
        cur = v0
        while True:
            if red:
                nxt = partner[cur]
            else:
                nxt = path_end[cur]
                if nxt >= 0 and blue[path_idx[cur]]:
                    lab ^= 1
            if nxt < 0:
                break
            labels[nxt] = lab
            cur, red = nxt, not red


def _propagate_around(t: TGraph, walk: list[tuple[str, int, int, int]],
                      skip: tuple[str, int] | None) -> None:
    if skip is not None:
        j = next(i for i, s in enumerate(walk) if (s[0], s[3]) == skip)
        walk = walk[j + 1:] + walk[:j]
    labels = t.labels
    labels[walk[0][1]] = A
    for kind, frm, to, ref in walk:
        # blue edges flip the label, red and green edges preserve it
        lab = labels[frm] ^ 1 if kind == "p" and t.blue[ref] else labels[frm]
        if labels[to] >= 0 and labels[to] != lab:
            raise AssertionError("inconsistent labels around an even-blue cycle")
        labels[to] = lab


def _expand_cycle(t: TGraph, walk: list[tuple[str, int, int, int]]) -> tuple[int, ...]:
    host_edges: list[int] = []
    for kind, frm, to, ref in walk:
        if kind == "r":
            host_edges.append(ref)
        else:
            vseq, eseq = t.paths[ref]
            host_edges.extend(eseq if frm == vseq[0] else list(reversed(eseq)))
    return tuple(host_edges)


def _choose_break(t: TGraph, walk: list[tuple[str, int, int, int]]) -> tuple[int, int, int, int]:
    """(pidx, v, u, dist) minimizing the distance from a path endpoint v to an
    internal matching-covered vertex u of the same path."""
    best: tuple[int, int, int, int, int] | None = None
    for order, (kind, _, _, ref) in enumerate(walk):
        if kind != "p":
            continue
        vseq, _ = t.paths[ref]
        length = len(vseq) - 1
        for side, v in ((0, vseq[0]), (1, vseq[-1])):
            for d in range(1, length):
                u = vseq[d] if side == 0 else vseq[length - d]
                if t.red_partner[u] >= 0:
                    cand = (d, order, side, ref, v)
                    if best is None or cand < best:
                        best = cand
                    break
    if best is None:
        raise AssertionError("odd cycle without a matching edge nearby; precondition violated")
    d, _, side, ref, v = best
    vseq, _ = t.paths[ref]
    u = vseq[d] if side == 0 else vseq[len(vseq) - 1 - d]
    return ref, v, u, d


def _label_cycle_components(t: TGraph) -> list[_Repair]:
    # after the path pass, an unlabelled vertex with a red edge lies on a cycle
    repairs: list[_Repair] = []
    labels = t.labels
    for v0 in range(len(labels)):
        if labels[v0] >= 0 or t.red_partner[v0] < 0:
            continue
        walk = _cycle_walk(t, v0)
        blue = sum(1 for kind, _, _, ref in walk if kind == "p" and t.blue[ref])
        if blue % 2 == 0:
            _propagate_around(t, walk, skip=None)
            continue

        host_len = sum(1 if kind == "r" else len(t.paths[ref][1])
                       for kind, _, _, ref in walk)
        if host_len % 2 == 0:
            # corresponds to an even host cycle: recolor it alternately later
            break_step = next(s for s in walk if s[0] == "r")
            _propagate_around(t, walk, skip=(break_step[0], break_step[3]))
            repairs.append(_Repair(break_eid=break_step[3],
                                   good_sequence=_expand_cycle(t, walk)))
            continue

        pidx, v, u, d = _choose_break(t, walk)
        partner, break_eid = t.red_partner[v], t.red_eid[v]
        _propagate_around(t, walk, skip=("r", break_eid))
        if labels[v] == labels[partner]:
            raise AssertionError("break edge labels should differ around an odd-blue cycle")
        if labels[u] < 0:
            raise AssertionError("matching-covered path vertex must be labeled before cycles")
        want_equal = d % 2 == 0
        if (labels[u] == labels[v]) != want_equal:
            for w in {s[1] for s in walk}:
                labels[w] ^= 1
        repairs.append(_Repair(break_eid=break_eid, pidx=pidx, v=v, u=u, dist=d))
    return repairs


def plain_walks(edges: Sequence[tuple[int, int]],
                eids: Sequence[int]) -> list[tuple[list[int], list[int], bool]]:
    """(vertex_seq, edge_seq, is_cycle) of the paths and cycles of the edges eids,
    of maximum degree 2: the paths from their smaller end, then the cycles from
    their smallest vertex, closing back on it; each step takes the vertex's
    first unused edge in eids order."""
    inc: dict[int, list[int]] = {}
    for e in eids:
        for x in edges[e]:
            inc.setdefault(x, []).append(e)
    used: set[int] = set()
    out = []

    def walk(v):
        vseq, eseq = [v], []
        while [e for e in inc[v] if e not in used]:
            e = [e for e in inc[v] if e not in used][0]
            used.add(e)
            eseq.append(e)
            v = sum(edges[e]) - v
            vseq.append(v)
        return vseq, eseq

    for v in sorted(inc):
        if len(inc[v]) == 1 and inc[v][0] not in used:
            out.append((*walk(v), False))
    for v in sorted(inc):
        if any(e not in used for e in inc[v]):
            out.append((*walk(v), True))
    return out


def alternating_colors(edges: Sequence[tuple[int, int]], eids: Sequence[int],
                       base: int = 0) -> dict[int, int]:
    """Host-edge colors base+1, base+2 alternating along each of plain_walks'
    paths and cycles of the edges eids; an odd cycle raises GraphError."""
    colors: dict[int, int] = {}
    for _, eseq, is_cycle in plain_walks(edges, eids):
        if is_cycle and len(eseq) % 2:
            raise GraphError("odd cycle component is not interval colorable")
        for i, e in enumerate(eseq):
            colors[e] = base + 1 + (i % 2)
    return colors


def reference_subcubic_colors(edges: Sequence[tuple[int, int]], eids: Sequence[int],
                    c3: Sequence[int]) -> dict[int, int]:
    """Interval colors (at most 6, the smallest 1) of the edges eids of a host,
    keyed by host edge id, from their proper 3-edge-coloring c3 (c3[i] colors
    eids[i]); the subset must have maximum degree 3 and no odd-cycle component,
    which is refused by OddCycleComponent."""
    kept, ends = relabel(edges, eids)
    degrees = Counter(ends)
    if max(degrees.values(), default=0) > 3:
        raise GraphError("maximum degree must be at most 3")
    # proper iff no (endpoint, color) pair repeats; a loop repeats its own
    if len(set(zip(ends, chain.from_iterable(zip(c3, c3))))) != len(ends):
        raise GraphError("the supplied 3-edge-coloring is not proper")
    classes = sorted(set(c3))
    if len(classes) > 3:
        raise GraphError("the supplied coloring uses more than 3 colors")
    local = list(zip(ends[::2], ends[1::2]))
    # a component is an odd cycle iff all its vertices have degree 2, so it is
    # an odd closed walk of the edges whose ends both have degree 2
    two = [e for e, (u, v) in enumerate(local) if degrees[u] == 2 and degrees[v] == 2]
    if any(is_cycle and len(eseq) % 2 for _, eseq, is_cycle in plain_walks(local, two)):
        raise OddCycleComponent("a component is an odd cycle; not interval colorable")
    if max(degrees.values(), default=0) <= 2:
        return alternating_colors(edges, eids)

    matching = classes[0]
    m_eids = [e for e, c in enumerate(c3) if c == matching]
    rest = [e for e, c in enumerate(c3) if c != matching]
    gm_paths: list[tuple[list[int], list[int]]] = []
    gm_cycles: list[list[int]] = []
    for vseq, eseq, is_cycle in plain_walks(local, rest):
        if is_cycle:
            gm_cycles.append(eseq)
        else:
            gm_paths.append((vseq, eseq))

    t = _build_tgraph(local, len(kept), m_eids, gm_paths)
    _label_path_components(t)
    repairs = _label_cycle_components(t)
    labels = t.labels

    colors: list[int | None] = [None] * len(local)
    for vseq, eseq in gm_paths:
        first = 2 if labels[vseq[0]] == A else 3
        for e in eseq[::2]:
            colors[e] = first
        for e in eseq[1::2]:
            colors[e] = 5 - first
        if colors[eseq[-1]] != (2 if labels[vseq[-1]] == A else 3):
            raise AssertionError("path alternation disagrees with its far endpoint label")
    for eseq in gm_cycles:
        for e in eseq[::2]:
            colors[e] = 2
        for e in eseq[1::2]:
            colors[e] = 3

    deferred: set[int] = set()
    for eid in m_eids:
        u, v = local[eid]
        lu = labels[u]
        if lu == labels[v]:
            colors[eid] = 1 if lu == A else 4
        else:
            deferred.add(eid)
    if deferred != {r.break_eid for r in repairs}:
        raise AssertionError("unequal-label matching edges are not the cycle break edges")

    for rep in repairs:
        if rep.good_sequence is not None:
            for i, e in enumerate(rep.good_sequence):
                colors[e] = 2 if i % 2 == 0 else 3
            continue
        vseq, eseq = t.paths[rep.pidx]
        d = rep.dist
        if rep.v == vseq[0]:
            portion = list(reversed(eseq[:d]))       # from u toward v
        else:
            portion = eseq[len(eseq) - d:]
        lu, lv = labels[rep.u], labels[rep.v]
        if d % 2 == 0 and lu == lv == A:
            low, high, break_color = 0, 1, 2
        elif d % 2 == 0 and lu == lv == B:
            low, high, break_color = 5, 4, 3
        elif d % 2 == 1 and lu == A and lv == B:
            low, high, break_color = 0, 1, 1
        elif d % 2 == 1 and lu == B and lv == A:
            low, high, break_color = 5, 4, 4
        else:
            raise AssertionError("uncovered label/parity case in the repair step")
        for i, e in enumerate(portion):
            colors[e] = low if i % 2 == 0 else high
        colors[rep.break_eid] = break_color

    if None in colors:
        raise AssertionError("construction left edges uncolored")
    shift = 1 - min(colors)
    return {e: c + shift for e, c in zip(eids, colors)}


# ---------------------------------------------------------------------------
# Bipartite decomposers one class, or one pair of factors, at a time.

def reference_decompose_bipartite(g: Multigraph) -> Decomposition:
    """ceil(Delta/3) parts the per-class way: a graph of maximum degree at most 3
    Konig 3-colored whole on the host, otherwise each equalized class renumbered
    by relabel onto the vertices it touches and Konig 3-colored there, then
    colored by reference_subcubic_colors and assembled."""
    if g.edge_count == 0:
        return _assemble(g, [])
    delta = g.max_degree
    if delta <= 3:
        c3 = _konig_state(g.vertex_count, g.edges, 3).colors
        return _assemble(g, [reference_subcubic_colors(g.edges, list(range(g.edge_count)), c3)])
    k = -(-delta // 3)
    classes: list[list[int]] = [[] for _ in range(k)]
    for e, c in enumerate(equalized_bipartite_color(g, k).colors):
        classes[c - 1].append(e)
    parts = []
    for eids in classes:
        kept, ends = relabel(g.edges, eids)
        c3 = _konig_state(len(kept), list(zip(ends[::2], ends[1::2])), 3).colors
        parts.append(reference_subcubic_colors(g.edges, eids, c3))
    return _assemble(g, parts)


def two_factor_pair_colors(g: Multigraph, fa: list[int], fb: list[int]) -> dict[int, int]:
    """Host-edge colors: fa cycles alternate 1,2; fb 3,4."""
    if set(fa) & set(fb):
        raise GraphError("factors must be edge-disjoint")
    out = alternating_colors(g.edges, fa)
    out.update(alternating_colors(g.edges, fb, 2))
    return out


def reference_decompose_eulerian_bipartite(g: Multigraph) -> Decomposition:
    """ceil(Delta/4) parts of an even-degree bipartite multigraph the per-pair
    way: loops regularize it, and each consecutive pair of its Petersen factors
    is colored by two_factor_pair_colors."""
    if g.edge_count == 0:
        return _assemble(g, [])
    extra = [(v, v) for v in range(g.vertex_count)
             for _ in range((g.max_degree - g.degree(v)) // 2)]
    factors = [[e for e in f if e < g.edge_count]
               for f in petersen_two_factorization(g.vertex_count, g.edges + tuple(extra))]
    return _assemble(g, [two_factor_pair_colors(g, factors[i], factors[i + 1]
                                                if i + 1 < len(factors) else [])
                         for i in range(0, len(factors), 2)])


def _busy_interruptions(busy: list[int] | set[int]) -> bool:
    return bool(busy) and (max(busy) - min(busy) + 1 != len(busy))


def reference_verify_timetable(B: RequirementMatrix, S: Timetable) -> VerifyReport:
    """Totals, per-period distinctness, and the two-sided no-interruption condition.

    In the report, 'proper' covers the totals and distinctness conditions and
    'interval' additionally requires no interruptions; offending parties are
    listed as vertices of the requirement graph (classes then teachers).
    """
    n, m = B.n_classes, B.m_teachers
    ok_counts = True
    ok_gapless = True
    offenders: set[int] = set()

    counts = [[0] * m for _ in range(n)]
    for day in S.days:
        if len(day) != n:
            raise GraphError("day grid must have one row per class")
        teacher_periods: dict[int, list[int]] = {}
        for i, row in enumerate(day):
            busy = []
            for h, j in enumerate(row):
                if j is None:
                    continue
                if not 0 <= j < m:
                    raise GraphError(f"unknown teacher index {j}")
                counts[i][j] += 1
                busy.append(h)
                teacher_periods.setdefault(j, []).append(h)
            if _busy_interruptions(busy):
                ok_gapless = False
                offenders.add(i)
        for j, periods in teacher_periods.items():
            distinct = set(periods)
            if len(distinct) != len(periods):       # two classes in one period
                ok_counts = False
                offenders.add(n + j)
            if _busy_interruptions(distinct):
                ok_gapless = False
                offenders.add(n + j)
    for i in range(n):
        for j in range(m):
            if counts[i][j] != B.b[i][j]:
                ok_counts = False
                offenders.update((i, n + j))

    return VerifyReport(proper=ok_counts, interval=ok_counts and ok_gapless,
                        cyclic_interval=None,
                        offending_vertices=tuple(sorted(offenders)),
                        offending_edges=())


def reference_dispatch_componentwise(g: Multigraph) -> tuple[Decomposition, BoundTrace]:
    """One dispatch per component, each on its compact subgraph, merged part by part."""
    parts = [0] * g.edge_count
    colors = [0] * g.edge_count
    worst: BoundTrace | None = None
    comps = g.traversal.components
    for i in range(len(comps)):
        sub, ids = g.subgraph(g.traversal.components[i])
        d_sub, t_sub = _dispatch_connected(sub)
        for pos, eid in enumerate(ids):
            parts[eid] = d_sub.parts[pos]
            colors[eid] = d_sub.colors[pos]
        if worst is None or t_sub.parts > worst.parts:
            worst = t_sub
    decomp = Decomposition(g, tuple(parts), tuple(colors))
    assert worst is not None
    if len(comps) == 1:
        return decomp, worst
    trace = BoundTrace("componentwise",
                       f"max over {len(comps)} components: {worst.method} [{worst.bound_formula}]",
                       worst.bound_value, decomp.part_count, True)
    return decomp, trace


def reference_decompose_general(g: Multigraph, coloring: EdgeColoring) -> Decomposition:
    """Five-class-general one group component at a time: each component's
    canonical class split first and the others on _AbsorbStuck, its 2-class
    side colored 1,2 alternately along each path and even cycle."""
    group_of = {c: i // 5 for i, c in enumerate(sorted(set(coloring.colors)))}
    groups: list[list[int]] = [[] for _ in range(-(-len(group_of) // 5))]
    for e, c in enumerate(coloring.colors):
        groups[group_of[c]].append(e)
    part_dicts: list[dict[int, int]] = []
    for group_edges in groups:
        a_side: dict[int, int] = {}
        b_side: dict[int, int] = {}
        for comp in traverse(g, group_edges).components:
            present = sorted({coloring.colors[e] for e in comp})
            for h_cls, f_cls in _class_splits(present):
                try:
                    ca, b_edges = _split_component(g, comp, coloring.colors, h_cls, f_cls)
                except _AbsorbStuck:
                    continue
                a_side.update(ca)
                b_side.update(alternating_colors(g.edges, b_edges))
                break
            else:
                raise GraphError("no class split absorbed every odd cycle of a component")
        part_dicts.extend([a_side, b_side])
    return _assemble(g, part_dicts)


def _by_class(colors: tuple[int, ...], eids: list[int]) -> dict[int, int]:
    """Edges of at most two proper classes as one interval coloring: the
    smaller class 1, the other 2."""
    low = min(map(colors.__getitem__, eids), default=0)
    return {e: 1 if colors[e] == low else 2 for e in eids}


def reference_split_group(g: Multigraph, coloring: EdgeColoring,
                          group_edges: list[int]) -> tuple[dict[int, int], dict[int, int]]:
    """One group's two sides, each as host-edge colors: side A by one
    subcubic_colors call when some vertex meets three of the group's classes
    and side A has no odd-cycle component, else one component at a time."""
    colors = coloring.colors
    # side B holds the classes up to h_top, the larger of the two smallest
    h_top = sorted({colors[e] for e in group_edges})[:2][-1]
    f_edges = [e for e in group_edges if colors[e] > h_top]
    if not f_edges:
        return {}, _by_class(colors, group_edges)
    ends = Counter(itertools.chain.from_iterable(map(g.edges.__getitem__, group_edges)))
    if max(ends.values()) >= 3:
        try:
            a_side = subcubic_colors(g.edges, f_edges, [colors[e] for e in f_edges])
        except OddCycleComponent:
            pass
        else:
            return a_side, _by_class(colors, [e for e in group_edges if colors[e] <= h_top])
    a_side = {}
    b_side: dict[int, int] = {}
    for comp in traverse(g, group_edges).components:
        present = sorted({colors[e] for e in comp})
        if len(present) <= 2:
            b_side.update(_by_class(colors, comp))
            continue
        for h_cls, f_cls in _class_splits(present):
            try:
                ca, cb = _split_component(g, comp, colors, h_cls, f_cls)
            except _AbsorbStuck:
                continue
            a_side.update(ca)
            b_side.update(_by_class(colors, cb))
            break
        else:
            raise GraphError("no class split absorbed every odd cycle of a component")
    return a_side, b_side


def reference_general_by_groups(g: Multigraph, coloring: EdgeColoring) -> Decomposition:
    """decompose_general with each group split by reference_split_group and
    the sides assembled as per-part dicts."""
    colors = coloring.colors
    group_of = {c: i // 5 for i, c in enumerate(sorted(set(colors)))}
    groups: list[list[int]] = [[] for _ in range(-(-len(group_of) // 5))]
    for e, c in enumerate(colors):
        groups[group_of[c]].append(e)
    return _assemble(g, [side for group_edges in groups
                         for side in reference_split_group(g, coloring, group_edges)])


def reference_graph_from_json(obj) -> Multigraph:
    """graph_from_json with every edge checked in one Python loop."""
    if not isinstance(obj, dict) or not isinstance(obj.get("edges"), list):
        raise GraphError("graph JSON needs 'vertex_count' and a list of 'edges'")
    pairs = []
    for i, e in enumerate(obj["edges"]):
        if isinstance(e, dict):
            if e.get("id", i) != i:
                raise GraphError("edge ids must be dense and in order")
            e = (e.get("u"), e.get("v"))
        pairs.append(e)
    if not isinstance(obj.get("allows_loops", False), bool):
        raise GraphError(f"'allows_loops' must be true or false, got {obj['allows_loops']!r}")
    return build_graph(obj.get("vertex_count"), pairs)


def reference_biconnected_blocks(g: Multigraph) -> list[list[int]]:
    """Blocks as edge-id lists (Hopcroft-Tarjan, iterative)."""
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    parent_edge = [-1] * n
    estack: list[int] = []
    blocks: list[list[int]] = []
    counter = 0
    for s in range(n):
        if disc[s] != -1 or not g.incidence[s]:
            continue
        disc[s] = low[s] = counter
        counter += 1
        stack: list[tuple[int, int]] = [(s, 0)]
        while stack:
            v, ptr = stack[-1]
            advanced = False
            while ptr < len(g.incidence[v]):
                eid = g.incidence[v][ptr]
                ptr += 1
                if eid == parent_edge[v]:
                    continue
                w = g.other_end(eid, v)
                if disc[w] == -1:
                    estack.append(eid)
                    parent_edge[w] = eid
                    disc[w] = low[w] = counter
                    counter += 1
                    stack[-1] = (v, ptr)
                    stack.append((w, 0))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    estack.append(eid)
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        e = estack.pop()
                        block.append(e)
                        if e == parent_edge[v]:
                            break
                    blocks.append(block)
    return blocks


def reference_color_cactus(g: Multigraph) -> EdgeColoring:
    """color_cactus with its cycles read off the biconnected blocks: a connected
    cactus (vertex-disjoint cycles, Delta >= 3).

    Colors the smallest bridge 1 and grows the host over the bridges from its
    ends: a vertex's cycle block is attached the moment the vertex enters the
    host (while it is still a leaf), bridge edges are pendant extensions.
    """
    if len(g.traversal.components) > 1:
        raise GraphError("cactus must be connected")

    blocks = reference_biconnected_blocks(g)
    if all(len(b) == 1 for b in blocks):
        return color_forest(g)
    if g.max_degree <= 2:
        raise GraphError("a bare cycle is not a cactus instance")

    cycle_at: dict[int, list[int]] = {}
    for b in blocks:
        if len(b) > 1:
            verts = {w for e in b for w in g.edges[e]}
            if len(b) != len(verts):
                raise GraphError("two cycles share an edge or a pair of vertices")
            for v in verts:
                if v in cycle_at:
                    raise GraphError(f"cycles intersect at vertex {v}")
                cycle_at[v] = b

    bridges = {b[0] for b in blocks if len(b) == 1}
    if not bridges:
        raise AssertionError("disjoint-cycle cactus with several blocks must have a bridge")
    root = min(bridges)
    host = IncrementalHost(g)
    host.add_colored(root, 1)
    host.grow(g.edges[root], bridges, cycle_at)
    if len(host.color) != g.edge_count:
        raise AssertionError("construction left edges uncolored")
    return normalize(EdgeColoring(g, tuple(host.color[e] for e in range(g.edge_count))))


def reference_forest_peel(g: Multigraph) -> Decomposition:
    """decompose_forest_peel with its own DFS per round, each forest colored
    by color_forest on its subgraph and the parts assembled as dicts."""
    remaining = set(range(g.edge_count))
    parts: list[dict[int, int]] = []
    while remaining:
        forest: list[int] = []
        seen = [False] * g.vertex_count
        for s in range(g.vertex_count):
            if seen[s]:
                continue
            seen[s] = True
            stack = [(s, 0)]
            while stack:
                v, ptr = stack[-1]
                moved = False
                while ptr < len(g.incidence[v]):
                    e = g.incidence[v][ptr]
                    ptr += 1
                    if e not in remaining:
                        continue
                    w = g.other_end(e, v)
                    if seen[w]:
                        continue
                    seen[w] = True
                    forest.append(e)
                    stack[-1] = (v, ptr)
                    stack.append((w, 0))
                    moved = True
                    break
                if not moved:
                    stack.pop()
        remaining -= set(forest)
        parts.append(_lift(g, forest, color_forest))
    return _assemble(g, parts)


def cactus_like_graph(rng, kind: int) -> Multigraph:
    """A random input for the cactus and forest-peel references, by kind: 0 a
    cactus whose vertex-disjoint cycles have 2 to 6 edges (2 is a digon block),
    1 such a cactus with one added chord, 2 with a parallel copy of one edge,
    3 a multigraph on up to 9 vertices.  Vertex ids and edge order are shuffled."""
    if kind == 3:
        n = rng.randint(2, 9)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 14))]
    else:
        edges, n, on_cycle = [(0, 1)], 2, set()
        for _ in range(rng.randint(1, 6)):
            free = [v for v in range(n) if v not in on_cycle]
            if free and rng.random() < 0.6:
                ring = [rng.choice(free), *range(n, n + rng.randint(1, 5))]
                n += len(ring) - 1
                on_cycle.update(ring)
                edges += [(ring[i - 1], ring[i]) for i in range(len(ring))]
            else:
                edges.append((rng.randrange(n), n))
                n += 1
        if kind == 1:
            edges.append(tuple(rng.sample(range(n), 2)))
        elif kind == 2:
            edges.append(rng.choice(edges))
    names = rng.sample(range(n), n)
    edges = [(names[u], names[v]) for u, v in edges]
    rng.shuffle(edges)
    return build_graph(n, edges)


def bipartite_up_to(nx: int, ny: int, n_edges: int, max_degree: int, rng,
                    simple: bool = True) -> Multigraph:
    """A random bipartite graph of at most n_edges edges: random_bipartite as it
    was before it refused edge counts it cannot place, so that the property
    tests that ask for more edges than fit keep drawing the same graphs."""
    deg = [0] * (nx + ny)
    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(20 * n_edges + 100):
        if len(chosen) == n_edges:
            break
        i, j = rng.randrange(nx), rng.randrange(ny)
        u, v = i, nx + j
        if deg[u] >= max_degree or deg[v] >= max_degree:
            continue
        if simple and (u, v) in seen:
            continue
        seen.add((u, v))
        chosen.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return build_graph(nx + ny, chosen)


# ---------------------------------------------------------------------------
# Complete multipartite graphs.

def reference_detect_complete_multipartite(g: Multigraph) -> list[list[int]] | None:
    """Each unassigned vertex opens a part with the unassigned non-neighbours
    after it; accept when there are two parts at least and every pair of
    vertices is adjacent exactly when they are in different parts."""
    if g.edge_count == 0 or not g.is_simple:
        return None
    adj: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    assigned = [-1] * g.vertex_count
    parts: list[list[int]] = []
    for v in range(g.vertex_count):
        if assigned[v] != -1:
            continue
        part = [v] + [w for w in range(v + 1, g.vertex_count)
                      if assigned[w] == -1 and w not in adj[v]]
        for w in part:
            assigned[w] = len(parts)
        parts.append(part)
    if len(parts) < 2:
        return None
    for u in range(g.vertex_count):
        for w in range(u + 1, g.vertex_count):
            if (assigned[u] == assigned[w]) == (w in adj[u]):
                return None
    return parts


def reference_multipartite_dicts(g: Multigraph, parts: list[list[int]]) -> list[dict[int, int]]:
    """Halve every list of two or more parts (the first half the larger) on each
    level, the staircase between the halves' vertices in part order."""
    level_sets: list[list[int]] = [list(range(len(parts)))]
    out: list[dict[int, int]] = []
    while any(len(s) >= 2 for s in level_sets):
        level_colors: dict[int, int] = {}
        nxt: list[list[int]] = []
        for s in level_sets:
            if len(s) < 2:
                continue
            half = -(-len(s) // 2)
            left, right = s[:half], s[half:]
            xs = [v for pi in left for v in parts[pi]]
            ys = [v for pi in right for v in parts[pi]]
            level_colors.update(staircase_bipartite_colors(g, xs, ys))
            nxt.extend([left, right])
        out.append(level_colors)
        level_sets = nxt
    return out
