"""Interval coloring of properly 3-edge-colorable subcubic graphs.

Given a proper 3-edge-coloring and no odd-cycle component, an interval
coloring using at most 6 colors always exists.  The construction takes the
first color class as a matching M, colors the path/even-cycle components of
the rest alternately 2,3 anchored by an A/B vertex labeling of an auxiliary
graph, assigns 1 or 4 to matching edges with equal labels, and repairs the
few matching edges whose labels differ by locally recoloring with 0,1 or 5,4.
Only the supplied 3-edge-coloring is checked; callers certify the output.

The construction is one pass, _slot_pass, over flat per-slot state: each edge's
color 1-3, a bitmask of the colors at each slot and the edge of each color
there.  It has three callers.  subcubic_colors colors the edges eids of a host
from their supplied coloring, renumbered by relabel onto the vertices they
touch (color_subcubic colors a whole graph through it); the dispatcher's
subcubic row and the general bound's per-component split use it.
thickness.decompose_bipartite runs the pass once on the Konig 3-coloring of
the (vertex, class) slots of all its classes, and the general bound runs it on
each group's three-class side.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Sequence

from .multigraph import EdgeColoring, GraphError, Multigraph, relabel

A, B = 0, 1


class OddCycleComponent(GraphError):
    """subcubic_colors refused a subset because one of its components is an
    odd cycle, which no interval coloring admits."""


def _odd_cycle() -> OddCycleComponent:
    return OddCycleComponent("a component is an odd cycle; not interval colorable")


def _slot_pass(edges: Sequence[tuple[int, int]], used: list[int], at: list[int],
               colors3: list[int], cubic: list[bool]) -> list[int]:
    """Interval colors, unshifted, of edges on slots 0..n-1 properly colored
    colors3 (1-3); used[s] is the bitmask of the colors at slot s, at[s*4 + c]
    the edge of color c there or -1, and cubic[s] whether s lies in a class
    with a slot meeting all three colors.  An odd-cycle component raises
    OddCycleComponent.

    A class of maximum degree 2 alternates 1, 2 along its walks: its paths from
    their smaller ends, then its cycles from their smallest slots by their
    smaller edge ids.  In a cubic class color 1 is the matching M, and the
    paths and cycles of the class minus M alternate colors 2 and 3, so
    at[s*4 + c] steps along them.  The A/B labels of the auxiliary graph are
    carried along its components, each from A at its smallest end or, for a
    cycle, its smallest slot, M edge first: an M edge takes 1 at A and 4 at B,
    a path 2 from an A end and 3 from a B end, and the label flips across a
    path of even length.  The cycles of the class minus M alternate 2, 3 as the
    walks of the degree-2 classes do.

    Around a cycle of the auxiliary graph the host closed walk has the parity
    of its number of even paths, so labels fail to close only around an odd
    host cycle.  That cycle is broken at the M edge of the path end v nearest
    (then first in walk order, then the smaller end) to an inner vertex u of
    its path that M covers, d edges away; the labels are carried around again
    from the far side of the break so that v's label is u's exactly when d is
    even, and the d edges from u toward v take 0,1 (u at A) or 5,4 (u at B) and
    v's M edge 1 + (d even) or 4 - (d even).  With no such u every vertex of
    the cycle has degree 2, so it is a whole odd-cycle component.
    """
    out = [0] * len(edges)
    fixes: list[tuple[int, int]] = []   # the repairs' writes, applied last: 0 is a color there

    def walk(s: int, e: int, col: int, mask: int) -> tuple[int, int]:
        # color the walk of the colors in mask from slot s by edge e, alternately
        # col and its partner; the slot and color it stops at
        total = 3 if mask & 2 else 5
        while True:
            out[e] = col
            col = total - col
            p, q = edges[e]
            s = q if p == s else p
            rest = used[s] & mask & ~(1 << colors3[e])
            if not rest:
                return s, col
            e = at[4 * s + rest.bit_length() - 1]
            if out[e]:
                return s, col

    def aux_walk(s: int, red: bool) -> int:
        # the label the walk stops with: back at its first M edge on a cycle
        lab = A
        while True:
            if red:
                e = at[4 * s + 1]
                if e < 0 or out[e]:
                    return lab
                out[e] = 4 if lab else 1
                p, q = edges[e]
                s = q if p == s else p
            else:
                bits = used[s] & 12
                if bits != 4 and bits != 8:
                    return lab
                s, col = walk(s, at[4 * s + bits.bit_length() - 1], 3 if lab else 2, 12)
                lab = col == 2
            red = not red

    def repair(s0: int) -> None:
        # the paths of the auxiliary cycle through s0 in walk order, M edge first,
        # each as its slots and edges
        paths: list[tuple[list[int], list[int]]] = []
        s = s0
        while not paths or s != s0:
            p, q = edges[at[4 * s + 1]]
            s = q if p == s else p
            slots, path = [s], []
            rest = used[s] & 12
            while rest:
                e = at[4 * s + rest.bit_length() - 1]
                p, q = edges[e]
                s = q if p == s else p
                slots.append(s)
                path.append(e)
                rest = used[s] & 12 & ~(1 << colors3[e])
            paths.append((slots, path))
        best = None
        for j, (slots, _) in enumerate(paths):
            # from each end, the smaller first: forward from slots[0], else from slots[-1]
            ends = (True, False) if slots[0] < slots[-1] else (False, True)
            for side, forward in enumerate(ends):
                seq = slots if forward else slots[::-1]
                d = next((i for i in range(1, len(seq) - 1) if used[seq[i]] & 2), 0)
                if d and (best is None or (d, j, side) < best[:3]):
                    best = (d, j, side, forward)
        if best is None:
            raise _odd_cycle()
        d, j, _, forward = best
        slots, path = paths[j] if forward else (paths[j][0][::-1], paths[j][1][::-1])
        v, lu, even = slots[0], out[at[4 * slots[d] + 1]] == 4, d % 2 == 0
        # carry the labels from the path after v's M edge; v is that path's first
        # end, or the last end of the path before it across an odd number of flips
        first = j if forward else j + 1
        lab = lu ^ (not even) ^ (not forward)
        for i, (on, around) in enumerate(paths[first:] + paths[:first]):
            col = 3 if lab else 2
            for e in around:
                out[e] = col
                col = 5 - col
            lab ^= len(around) % 2 == 0
            if i < len(paths) - 1:
                out[at[4 * on[-1] + 1]] = 4 if lab else 1
        low, high = (5, 4) if lu else (0, 1)
        fixes.extend((e, high if i % 2 else low) for i, e in enumerate(reversed(path[:d])))
        fixes.append((at[4 * v + 1], 4 - even if lu else 1 + even))

    aux_cycles, cycles = [], []     # the slots where the later passes may start
    for s, u in enumerate(used):
        if cubic[s]:
            # an end of the auxiliary graph has an M edge or ends a path, not both
            bits, m = u & 12, at[4 * s + 1]
            if bits == 4 or bits == 8:
                if m >= 0:
                    aux_cycles.append(s)
                elif not out[at[4 * s + bits.bit_length() - 1]]:
                    aux_walk(s, False)
            else:
                if bits:
                    cycles.append(s)
                if m >= 0 and not out[m]:
                    aux_walk(s, True)
        elif u == 2 or u == 4 or u == 8:
            e = at[4 * s + u.bit_length() - 1]
            if not out[e]:
                walk(s, e, 1, 14)
        else:
            cycles.append(s)
    # an M edge left is on a cycle of the auxiliary graph
    for s in aux_cycles:
        if not out[at[4 * s + 1]] and aux_walk(s, True) != A:
            repair(s)
    # an edge left is on a cycle of a degree-2 class or of a cubic class minus M
    for s in cycles:
        mask, col = (12, 2) if cubic[s] else (14, 1)
        bits = used[s] & mask
        e, f = at[4 * s + (bits & -bits).bit_length() - 1], at[4 * s + bits.bit_length() - 1]
        if not out[e] and walk(s, min(e, f), col, mask)[1] != col:
            raise _odd_cycle()
    if 0 in out:
        raise AssertionError("construction left edges uncolored")
    for e, c in fixes:
        out[e] = c
    return out


def _slot_state(n: int, ends: list[int], colors3: list[int]) -> tuple[
        list[tuple[int, int]], list[int], list[int], list[int], list[bool]]:
    """_slot_pass's arguments for the edges whose ends, on slots 0..n-1 as
    relabel renumbers them, are ends[2i] and ends[2i + 1] and whose proper
    colors are colors3 (1-3): the slots are one class, cubic when some slot
    meets all three colors."""
    used, at = [0] * n, [-1] * (4 * n)
    for i, s in enumerate(ends):
        c = colors3[i >> 1]
        used[s] |= 1 << c
        at[4 * s + c] = i >> 1
    return list(zip(ends[::2], ends[1::2])), used, at, colors3, [14 in used] * n


def color_subcubic(g: Multigraph, c3: EdgeColoring) -> EdgeColoring:
    """Interval coloring (at most 6 colors) of a subcubic graph with a proper
    3-edge-coloring and no odd-cycle component."""
    if c3.graph is not g and c3.graph != g:
        raise GraphError("coloring belongs to a different graph")
    colors = subcubic_colors(g.edges, range(g.edge_count), c3.colors)
    return EdgeColoring(g, tuple(map(colors.__getitem__, range(g.edge_count))))


def subcubic_colors(edges: Sequence[tuple[int, int]], eids: Sequence[int],
                    c3: Sequence[int]) -> dict[int, int]:
    """Interval colors (at most 6, the smallest 1) of the edges eids of a host,
    keyed by host edge id, from their proper 3-edge-coloring c3 (c3[i] colors
    eids[i]); the subset must have maximum degree 3 and no odd-cycle component,
    which is refused by OddCycleComponent.  With eids ascending, the colors are
    color_subcubic's on the host's subgraph on eids."""
    kept, ends = relabel(edges, eids)
    if max(Counter(ends).values(), default=0) > 3:
        raise GraphError("maximum degree must be at most 3")
    # proper iff no (endpoint, color) pair repeats; a loop repeats its own
    if len(set(zip(ends, chain.from_iterable(zip(c3, c3))))) != len(ends):
        raise GraphError("the supplied 3-edge-coloring is not proper")
    classes = sorted(set(c3))
    if len(classes) > 3:
        raise GraphError("the supplied coloring uses more than 3 colors")
    # the smallest class is color 1, the matching M
    rank = {c: i for i, c in enumerate(classes, 1)}
    out = _slot_pass(*_slot_state(len(kept), ends, [rank[c] for c in c3]))
    shift = 1 - min(out, default=1)
    return {e: c + shift for e, c in zip(eids, out)}
