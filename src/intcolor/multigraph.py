"""Multigraphs, edge colorings, decompositions, and the checkers behind everything else.

Edge identity is positional: edge ids are dense 0..|E|-1 in construction order,
so parallel edges are first class.  All values are immutable after construction.
"""
from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph construction or a violated operation precondition."""


@dataclass(frozen=True)
class Multigraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise GraphError("vertex_count must be nonnegative")
        # a larger count cannot size a list, so it would overflow on first use
        if self.vertex_count > sys.maxsize:
            raise GraphError(f"vertex_count must be at most {sys.maxsize}")
        # one bare comparison pass finds a loop or an endpoint out of range (in
        # Python 3.11 it beats min/max and map passes over the flattened ends);
        # only then does a second pass name the first offending edge
        n = self.vertex_count
        for u, v in self.edges:
            if u == v or u < 0 or v < 0 or u >= n or v >= n:
                break
        else:
            return
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {eid} endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"edge {eid} is a loop ({u},{v}) but loops are disallowed")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident to each vertex, in edge-id order."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(map(tuple, inc))

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Degree of every vertex."""
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        return w if u == v else u

    @cached_property
    def is_simple(self) -> bool:
        """No parallel edges (the constructor admits no loops)."""
        n = self.vertex_count
        keys = {u * n + v if u < v else v * n + u for u, v in self.edges}
        return len(keys) == self.edge_count

    @cached_property
    def traversal(self) -> "Traversal":
        """The one traversal of the whole graph that its components, bipartition
        and side degrees are read from."""
        return traverse(self)

    def components(self) -> list[list[int]]:
        """Vertex sets of connected components (isolated vertices included), in
        order of their smallest vertex, which comes first."""
        degrees = self.degrees
        comps = [list(c) for c in self.traversal.vertices]
        comps.extend([v] for v in range(self.vertex_count) if not degrees[v])
        comps.sort(key=lambda c: c[0])
        return comps

    def subgraph(self, edge_ids: Iterable[int]) -> tuple["Multigraph", tuple[int, ...]]:
        """Subgraph on a subset of edges, without the vertices it leaves isolated.

        Edges are relabelled densely in ascending host-edge-id order and their
        endpoints renumbered by relabel, so an edge set touching every vertex keeps
        the host's vertex ids.  Returns the subgraph and the host edge ids in that
        order.
        """
        ids = tuple(sorted(set(edge_ids)))
        # the ids ascend, so both ends show whether any id is out of range
        if ids and (ids[0] < 0 or ids[-1] >= self.edge_count):
            bad = ids[0] if ids[0] < 0 else ids[bisect_left(ids, self.edge_count)]
            raise GraphError(f"unknown edge id {bad}")
        kept, ends = relabel(self.edges, ids)
        return Multigraph(len(kept), tuple(zip(ends[::2], ends[1::2]))), ids


def _as_int(x: object) -> int:
    """x as an int: an int, an integral float or a string spelling an integer.

    Parsed input goes through here, so a fraction is rejected, never truncated."""
    if type(x) is int:
        return x
    try:
        if isinstance(x, str) or (isinstance(x, float) and x.is_integer()):
            return int(x)
    except ValueError:
        pass
    raise GraphError(f"expected an integer, got {x!r}")


def build_graph(vertex_count: int, edge_pairs: Sequence[tuple[int, int]]) -> Multigraph:
    """Multigraph with dense edge ids in input order."""
    try:
        n = _as_int(vertex_count)
        edges = tuple((_as_int(u), _as_int(v)) for u, v in edge_pairs)
    except GraphError:
        raise
    except (TypeError, ValueError) as exc:
        raise GraphError(f"expected an integer vertex count and integer pairs: {exc}") from None
    return Multigraph(n, edges)


def bipartition(g: Multigraph) -> tuple[int, ...] | None:
    """Side labels (0 or 1) of every vertex, so that every edge joins the two
    sides; None when some cycle is odd.

    The smallest vertex of each component is on side 0."""
    t = g.traversal
    if any(cycle is not None for cycle in t.odd_cycles):
        return None
    return tuple(t.sides)


def require_bipartite(g: Multigraph) -> None:
    """Raise GraphError naming an odd cycle of g, if it has one.

    g's traversal is cached, so a repeated check reads only its components."""
    cycle = next((c for c in g.traversal.odd_cycles if c is not None), None)
    if cycle is not None:
        raise GraphError(f"graph is not bipartite: odd cycle {'-'.join(map(str, cycle))}")


@dataclass(frozen=True)
class Traversal:
    """Connected components of an edge set, each 2-colored or shown odd, from one pass.

    Component i has the ascending edge ids ``components[i]`` and the vertices
    ``vertices[i]``, its smallest first; components are ordered by their first
    edge.  ``sides[v]`` labels every vertex v of the pass 0 or 1, the smallest
    vertex of each component 0, so that every edge of a bipartite component
    joins the two sides; it is a list over all vertices for the whole graph and
    a dict over the touched ones for an edge subset.  ``odd_cycles[i]`` is None
    for a bipartite component, else the vertices of one odd cycle in walk order.
    ``side_max[i]`` is the largest degree within the edge set on each side; its
    larger entry is the component's maximum degree, bipartite or not.
    """
    components: list[list[int]]
    vertices: list[list[int]]
    odd_cycles: list[tuple[int, ...] | None]
    side_max: list[tuple[int, int]]
    sides: list[int] | dict[int, int]

    def is_odd_cycle(self, i: int) -> bool:
        """Whether component i is an odd cycle: its odd cycle uses all its edges."""
        cycle = self.odd_cycles[i]
        return cycle is not None and len(cycle) == len(self.components[i])


def relabel(edges: Sequence[tuple[int, int]], eids: Iterable[int]) -> tuple[list[int], list[int]]:
    """The vertices the edges eids touch, ascending, and both ends of each of
    those edges in turn, renumbered onto their positions there: host order is
    kept, so ties broken by vertex id fall as on the host."""
    ends = list(chain.from_iterable(map(edges.__getitem__, eids)))
    kept = sorted(set(ends))
    if not kept or kept[-1] == len(kept) - 1:
        return kept, ends       # the touched vertices are 0..k-1, so no renumbering
    return kept, list(map(dict(zip(kept, range(len(kept)))).__getitem__, ends))


def traverse(g: Multigraph, eids: Iterable[int] | None = None) -> Traversal:
    """One depth-first pass over the whole graph, or over the edges eids.

    Vertices are taken as roots in ascending order and each is labelled on
    discovery, neighbors in edge-id order, so a component's vertices come out
    as Multigraph.components lists them and its labels as bipartition gives
    them.  The first edge found inside one side closes an odd cycle through the
    two tree paths to their common ancestor.  Edges are then dealt to the
    component of their first endpoint in ascending order.  An edge subset is
    first renumbered by relabel, so the pass runs on flat lists of its own size.
    """
    edges = g.edges
    if eids is None:
        ids: Sequence[int] = range(g.edge_count)
        kept: list[int] | None = None
        n = g.vertex_count
        pairs: Iterable[tuple[int, int]] = edges
        heads: Iterable[int] = map(itemgetter(0), edges)
    else:
        ids = sorted(eids)
        if not ids:
            return Traversal([], [], [], [], {})
        kept, ends = relabel(edges, ids)
        n = len(kept)
        pairs, heads = zip(*[iter(ends)] * 2), ends[::2]
    nbr: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        nbr[u].append(v)
        nbr[v].append(u)
    sides, parent, comp_of = [-1] * n, [-1] * n, [-1] * n
    vertices: list[list[int]] = []
    cycles: list[tuple[int, ...] | None] = []
    side_max: list[tuple[int, int]] = []
    stack: list[int] = []
    for s in range(n):
        if sides[s] != -1:
            continue
        sides[s] = 0
        if not nbr[s]:
            continue            # an isolated vertex of the whole graph
        c = len(vertices)
        comp_of[s] = c
        comp, cycle, top = [s], None, [0, 0]
        stack.append(s)
        while stack:
            v = stack.pop()
            sv, at = sides[v], nbr[v]
            if len(at) > top[sv]:
                top[sv] = len(at)
            for w in at:
                sw = sides[w]
                if sw == -1:
                    sides[w], parent[w], comp_of[w] = 1 - sv, v, c
                    comp.append(w)
                    stack.append(w)
                elif sw == sv and cycle is None:
                    cycle = _tree_cycle(parent, v, w)
        vertices.append(comp)
        cycles.append(cycle)
        side_max.append((top[0], top[1]))
    dealt: list[list[int]] = [[] for _ in vertices]
    for e, u in zip(ids, heads):
        dealt[comp_of[u]].append(e)
    if kept is not None:
        host = kept.__getitem__
        vertices = [list(map(host, comp)) for comp in vertices]
        cycles = [None if cycle is None else tuple(map(host, cycle)) for cycle in cycles]
        sides = dict(zip(kept, sides))
    # the edge lists are disjoint, so they compare by their first edge
    order = sorted(range(len(dealt)), key=dealt.__getitem__)
    if order != list(range(len(order))):
        dealt, vertices = [dealt[c] for c in order], [vertices[c] for c in order]
        cycles, side_max = [cycles[c] for c in order], [side_max[c] for c in order]
    return Traversal(dealt, vertices, cycles, side_max, sides)


def _tree_cycle(parent: list[int], v: int, w: int) -> tuple[int, ...]:
    """The cycle closed by the edge v-w: v up the tree to the common ancestor of
    v and w, then down to w.  It is odd when v and w are on one side."""
    up = [v]
    while parent[up[-1]] != -1:
        up.append(parent[up[-1]])
    depth = {x: i for i, x in enumerate(up)}
    down = [w]
    while down[-1] not in depth:
        down.append(parent[down[-1]])
    return tuple(up[:depth[down[-1]]] + down[::-1])


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of integer colors to the edges of a graph."""
    graph: Multigraph
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.colors) != self.graph.edge_count:
            raise GraphError("coloring must assign a color to every edge")

    def palette(self, v: int) -> list[int]:
        """Colors on edges incident to v."""
        return [self.colors[eid] for eid in self.graph.incidence[v]]

    def colors_used(self) -> int:
        return len(set(self.colors))

    def max_color(self) -> int:
        return max(self.colors, default=0)


def normalize(c: EdgeColoring) -> EdgeColoring:
    """Shift colors so the minimum used color is 1 (no-op on empty colorings)."""
    if not c.colors:
        return c
    shift = 1 - min(c.colors)
    if shift == 0:
        return c
    return EdgeColoring(c.graph, tuple(x + shift for x in c.colors))


def _clashing_edges(eids: Iterable[int], colors: Sequence[int]) -> list[int]:
    """The edges among eids that share their color with another of them."""
    by_color: dict[int, list[int]] = {}
    for eid in eids:
        by_color.setdefault(colors[eid], []).append(eid)
    return [eid for group in by_color.values() if len(group) > 1 for eid in group]


def _is_cyclically_consecutive(vals: set[int], t: int) -> bool:
    # a set is a cyclic interval mod t iff at most one cyclic gap exceeds 1
    if len(vals) <= 1 or len(vals) == t:
        return True
    s = sorted(vals)
    gaps = [b - a for a, b in zip(s, s[1:])]
    gaps.append(s[0] + t - s[-1])
    return sum(1 for gap in gaps if gap > 1) <= 1


@dataclass(frozen=True)
class VerifyReport:
    proper: bool
    interval: bool
    cyclic_interval: bool | None
    offending_vertices: tuple[int, ...]
    offending_edges: tuple[int, ...]

    def passed(self, mode: str = "interval") -> bool:
        if mode == "proper":
            return self.proper
        if mode == "interval":
            return self.interval
        if mode == "cyclic":
            return bool(self.cyclic_interval)
        raise ValueError(f"unknown mode {mode!r}")


def verify(g: Multigraph, c: EdgeColoring, mode: str = "interval",
           t: int | None = None) -> VerifyReport:
    """Check a coloring: 'proper', 'interval', or 'cyclic' (consecutive mod t).

    The offending lists name every vertex violating the requested mode and
    every edge involved in a color clash.
    """
    if c.graph is not g and c.graph != g:
        raise GraphError("coloring belongs to a different graph")
    if mode not in ("proper", "interval", "cyclic"):
        raise ValueError(f"unknown mode {mode!r}")
    cyclic_mode = mode == "cyclic"
    if cyclic_mode:
        if t is None or t < 1:
            raise GraphError("cyclic mode requires a period t >= 1")
        for eid, col in enumerate(c.colors):
            if not 1 <= col <= t:
                raise GraphError(f"cyclic mode: edge {eid} colored {col} outside [1, {t}]")

    proper = True
    interval = True
    cyclic: bool | None = True if cyclic_mode else None
    bad_vertices: list[int] = []
    bad_edges: set[int] = set()
    colors = c.colors
    color_of = colors.__getitem__
    degrees = g.degrees

    # a vertex's n colors are distinct and consecutive iff their set has n
    # members and max - min + 1 == n
    for v, inc in enumerate(g.incidence):
        n = degrees[v]
        if n < 2:
            continue
        pal = set(map(color_of, inc))
        v_proper = len(pal) == n
        if v_proper and max(pal) - min(pal) + 1 == n:
            continue
        interval = False
        proper &= v_proper
        if not v_proper:
            bad_edges.update(_clashing_edges(inc, colors))
        if cyclic_mode:
            v_cyclic = v_proper and _is_cyclically_consecutive(pal, t)
            cyclic = cyclic and v_cyclic
            if not v_cyclic:
                bad_vertices.append(v)
        elif mode == "interval" or not v_proper:
            bad_vertices.append(v)

    return VerifyReport(proper=proper, interval=interval, cyclic_interval=cyclic,
                        offending_vertices=tuple(bad_vertices),
                        offending_edges=tuple(sorted(bad_edges)))


@dataclass(frozen=True)
class Decomposition:
    """Edge labelling by part and color: a partition into interval colorable parts.

    ``parts[eid]`` is the part of that edge (a day of a timetable) and
    ``colors[eid]`` its color within the part (a period).  The decomposers shift
    each part's colors so that its smallest is 1.
    """
    graph: Multigraph
    parts: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.parts) != self.graph.edge_count or len(self.colors) != self.graph.edge_count:
            raise GraphError("decomposition must assign a part and a color to every edge")
        if self.parts and min(self.parts) < 0:
            raise GraphError("part indices must lie in [0, k)")

    @cached_property
    def part_count(self) -> int:
        return max(self.parts) + 1 if self.parts else 0

    def part_edges(self, i: int) -> list[int]:
        return [eid for eid, p in enumerate(self.parts) if p == i]


# Above this degree a vertex's colors in a part are kept in a list, not in a
# bitmask: a mask would outgrow a 64-bit word, and shifting it edge by edge
# would make a hub quadratic.
_MASK_DEGREE = 62


def verify_decomposition(g: Multigraph, d: Decomposition) -> VerifyReport:
    """True iff every part's coloring is interval: at each vertex, the colors of each
    part's edges are distinct and consecutive.

    One pass over each part's edges.  Each vertex keeps its smallest color in the
    part so far and a bitmask of its colors above that one, and fails at once on
    a repeated color or on a palette wider than its degree, so no mask is wider
    than 62 bits; when the part ends every mask must be all ones.  A vertex of
    higher degree collects its colors in a list, checked by a set when the part
    ends.  The offending lists name the failing vertices and the edges of a
    color clash, gathered at those vertices only.
    """
    if d.graph is not g and d.graph != g:
        raise GraphError("decomposition belongs to a different graph")
    edges, degrees, parts, colors = g.edges, g.degrees, d.parts, d.colors
    k = d.part_count
    if k > len(parts):      # part indices sparser than the edges: number them densely
        index = {p: i for i, p in enumerate(set(parts))}
        parts, k = list(map(index.__getitem__, parts)), len(index)
    groups: list[Sequence[int]] = [range(len(parts))]
    if k > 1:
        groups = [[] for _ in range(k)]
        for e, p in enumerate(parts):
            groups[p].append(e)
    # mask[v] is 0 before v meets the part, -1 for a list-kept vertex and -2 once
    # v has failed; else bit i is set when low[v] + i is among v's colors
    mask = [-1 if n > _MASK_DEGREE else 0 for n in degrees]
    low = [0] * g.vertex_count
    bad: set[int] = set()
    for eids in groups:
        met: list[int] = []
        listed: dict[int, list[int]] = {}
        for e in eids:
            c = colors[e]
            for w in edges[e]:
                m = mask[w]
                if m > 0:
                    i = c - low[w]
                    if i > 0:
                        if i < degrees[w] and not m >> i & 1:
                            mask[w] = m | 1 << i
                            continue
                    elif i < 0 and m.bit_length() - i <= degrees[w]:
                        mask[w] = m << -i | 1
                        low[w] = c
                        continue
                    mask[w] = -2
                    bad.add(w)
                elif m == 0:
                    mask[w] = 1
                    low[w] = c
                    met.append(w)
                elif m == -1:
                    listed.setdefault(w, []).append(c)
        for w in met:
            m = mask[w]
            if m > 0:
                if m & (m + 1):
                    bad.add(w)
                mask[w] = 0
        for w, cs in listed.items():
            if len(set(cs)) != len(cs) or max(cs) - min(cs) + 1 != len(cs):
                bad.add(w)
    bad_edges: set[int] = set()
    for v in bad:
        by_part: dict[int, list[int]] = {}
        for eid in g.incidence[v]:
            by_part.setdefault(parts[eid], []).append(eid)
        for eids in by_part.values():
            bad_edges.update(_clashing_edges(eids, colors))
    ok = not bad
    return VerifyReport(proper=ok, interval=ok, cyclic_interval=None,
                        offending_vertices=tuple(sorted(bad)),
                        offending_edges=tuple(sorted(bad_edges)))
