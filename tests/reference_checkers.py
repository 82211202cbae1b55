"""Sort-based reference checkers the library's one-pass verifiers are tested against.

They build every vertex's palette (a loop contributes its color twice), sort it
and test it pairwise, the plain way; the library instead compares set sizes and
extremes.  Both must return identical VerifyReports.
"""
from __future__ import annotations

from collections import Counter

from intcolor.multigraph import (Decomposition, EdgeColoring, GraphError, Multigraph,
                                 VerifyReport, _is_cyclically_consecutive)


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
