"""Exponential-time exact references at desk scale.

Every exact coloring answer comes from one search, `_color_sweep`: it walks
colors 1, 2, ... and picks one non-empty matching per color, each vertex being
one that must be matched, may be matched or must not be.  The interval rule
starts vertices freely and keeps started ones matched until done, optionally
within a cap on the colors; the proper rule uses exactly t colors; the cyclic
rule uses exactly t colors and lets a vertex matched at color 1 pause once and
wrap around to finish at color t.  Failed states are remembered.

The chromatic index is each component's smallest t, from its maximum degree up,
that the proper rule meets.  No construction stands in for the search: the
interval oracle refutes a component whose chromatic index exceeds its maximum
degree (an interval colorable graph has chromatic index equal to its maximum
degree, Asratian & Kamalian 1987) with one proper sweep and otherwise sweeps
under the interval rule, so the constructions are tested against an independent
search.  Of the library, the module imports only the graph and its verifier.

Budgets are hard limits with explicit errors, never silent truncation.
Witnesses are always checked by `verify` before they are returned.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable

from .multigraph import EdgeColoring, GraphError, Multigraph, verify

INTERVAL_BUDGET = 16
CHROMATIC_BUDGET = 20
THETA_BUDGET = 10
ARBORICITY_BUDGET = 14

__all__ = [
    "BudgetExceeded", "exact_chromatic_index", "exact_interval_colorable",
    "exact_theta", "nash_williams_arboricity", "exact_cyclic_interval_coloring",
]


class BudgetExceeded(GraphError):
    """An exact solver was asked to exceed its instance-size budget."""


def _color_sweep(sub: Multigraph, rule: str = "interval",
                 t: int | None = None) -> list[int] | None:
    """Search a connected graph for a coloring under rule, one color at a time:
    "interval" (at most t colors when t is given), "proper" or "cyclic" (t colors).

    Color c is one non-empty matching, under every rule.  At each color a vertex
    must be matched, may be matched or must not be; the rules below differ only in
    that choice.  With t colors, a vertex with more edges left than colors left is
    a dead end, and one with as many must be matched.

    Interval rule: a vertex with an edge colored and an edge left must be matched,
    and one with no edge colored may start.  This is exactly an interval coloring
    with smallest color 1: the colors of a connected graph's interval coloring form
    one interval, so no color is empty.  Without a cap, what may still happen after a
    color depends only on the edges left (they fix which vertices have started), not
    on c; with one, it depends on c as well.

    Proper rule: any vertex may be matched, and all t colors are used.  A proper
    coloring with fewer colors than edges can split a class to use one color more,
    so for every t from the chromatic index up to the number of edges some proper
    coloring uses exactly t colors, and the smallest t from the maximum degree up
    that succeeds is the chromatic index.  Fewer edges left than colors left is a
    dead end, so t is searched per component: a component with fewer edges than
    another's chromatic index has no coloring that uses all of that many colors.

    Cyclic rule: there are t colors, all used.  A cyclic interval without color 1 is
    a plain interval, so a vertex first matched after color 1 runs until it is done.
    One with color 1 is 1..b, then, after one pause with r edges left, t-r+1..t: it
    must not be matched from its pause to color t-r+1 and must be matched from then
    on.  Rotating the colors keeps every palette cyclic, so the first vertex's
    colors are 1 through its degree.  A cyclic t-coloring with an empty color is,
    rotated, an interval coloring within t-1 colors, which the capped interval rule
    finds.  What may still happen depends on c and on which vertices were matched
    at color 1, as well as on the edges left.

    Under every rule a failed state is remembered and never searched again.
    """
    cyclic = rule == "cyclic"
    deg = sub.degrees
    pairs = sorted(Counter(tuple(sorted(e)) for e in sub.edges).items())
    left = [k for _, k in pairs]
    rem = list(deg)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(sub.vertex_count)]
    for p, ((u, v), _) in enumerate(pairs):
        incident[u].append((p, v))
        incident[v].append((p, u))
    order = sorted((v for v in range(sub.vertex_count) if deg[v]), key=lambda v: -deg[v])
    failed: set[tuple] = set()
    matchings: list[list[int]] = []

    def color_from(c: int, first: frozenset[int]) -> bool:
        # first: the vertices matched at color 1 (cyclic rule only)
        # the colors left; without a cap, at most one per edge left
        room = sum(left) if t is None else t - c + 1
        if rule != "interval" and sum(left) < room:
            return False  # too few edges left to use every color left
        if not any(rem):
            return True
        if max(rem) > room:
            return False
        key = (room, tuple(left), first)
        if key in failed:
            return False
        # a vertex with as many edges left as colors left is matched; under the
        # interval and cyclic rules so is one started and not done (under the
        # cyclic rule, one not matched at color 1)
        must = [r == room or (rule != "proper" and r < d and v not in first)
                for v, (r, d) in enumerate(zip(rem, deg))]
        decided: set[int] = set()
        if cyclic:
            # the first vertex runs from color 1 until it is done
            must[order[0]] |= deg[order[0]] - rem[order[0]] == c - 1
            # matched at color 1 but not at every color since: paused
            decided = {v for v in first if rem[v] < room and deg[v] - rem[v] < c - 1}
        matching: list[int] = []

        def close_color() -> bool:
            if not matching:
                return False
            matchings.append(list(matching))
            if color_from(c + 1, frozenset(v for v in order if rem[v] < deg[v])
                          if cyclic and c == 1 else first):
                return True
            matchings.pop()
            return False

        def extend(i: int) -> bool:
            while i < len(order) and (order[i] in decided or not rem[order[i]]):
                i += 1
            if i == len(order):
                return close_color()
            v = order[i]
            decided.add(v)
            for p, u in incident[v]:
                if left[p] and rem[u] and u not in decided:
                    decided.add(u)
                    left[p] -= 1
                    rem[u] -= 1
                    rem[v] -= 1
                    matching.append(p)
                    if extend(i + 1):
                        return True
                    matching.pop()
                    left[p] += 1
                    rem[u] += 1
                    rem[v] += 1
                    decided.discard(u)
            found = not must[v] and extend(i + 1)
            decided.discard(v)
            return found

        if extend(0):
            return True
        failed.add(key)
        return False

    if not color_from(1, frozenset()):
        return None
    slots: list[list[int]] = [[] for _ in pairs]
    for c, matching in enumerate(matchings, 1):
        for p in matching:
            slots[p].append(c)
    index = {pair: p for p, (pair, _) in enumerate(pairs)}
    return [slots[index[tuple(sorted(e))]].pop() for e in sub.edges]


def _per_component(g: Multigraph,
                   search: Callable[[Multigraph], list[int] | None]) -> EdgeColoring | None:
    """search run on each component's subgraph, its colors merged by host edge
    id; None at the first component it refutes.  A graph that is one component
    without isolated vertices is searched itself, not copied."""
    t = g.traversal
    whole = len(t.components) == 1 and len(t.vertices[0]) == g.vertex_count
    colors = [0] * g.edge_count
    for comp in t.components:
        sub, ids = (g, comp) if whole else g.subgraph(comp)
        found = search(sub)
        if found is None:
            return None
        for eid, c in zip(ids, found):
            colors[eid] = c
    return EdgeColoring(g, tuple(colors))


def exact_chromatic_index(g: Multigraph) -> tuple[int, EdgeColoring]:
    """Exact chromatic index with a witness: each component takes the smallest
    k, from its maximum degree up, for which the proper color sweep succeeds, and
    uses every color 1..k, so the largest color is the chromatic index."""
    if g.edge_count > CHROMATIC_BUDGET:
        raise BudgetExceeded(f"{g.edge_count} edges exceed the budget of {CHROMATIC_BUDGET}")

    def search(sub: Multigraph) -> list[int]:
        k = sub.max_degree
        while (found := _color_sweep(sub, "proper", k)) is None:
            k += 1
        return found

    col = _per_component(g, search)
    if col is None or not verify(g, col, "proper").proper:
        raise AssertionError("oracle produced an invalid proper witness")
    return col.max_color(), col


def _interval_search(sub: Multigraph, cap: int | None = None) -> list[int] | None:
    if _color_sweep(sub, "proper", sub.max_degree) is None:
        return None  # chromatic index above max degree: never interval colorable
    return _color_sweep(sub, "interval", cap)


def exact_interval_colorable(g: Multigraph, budget: int = INTERVAL_BUDGET) -> EdgeColoring | None:
    """A witness interval coloring, or a definitive negative.

    Each component is refuted when the proper color sweep finds no coloring with
    as many colors as its maximum degree, and is otherwise decided by the
    interval color sweep.
    """
    if g.edge_count > budget:
        raise BudgetExceeded(f"{g.edge_count} edges exceed the budget of {budget}")
    col = _per_component(g, _interval_search)
    if col is not None and not verify(g, col, "interval").interval:
        raise AssertionError("oracle produced an invalid witness")
    return col


def exact_theta(g: Multigraph, budget: int = THETA_BUDGET) -> int:
    """Exact minimum number of interval colorable parts, by canonical partition search."""
    if g.edge_count > budget:
        raise BudgetExceeded(f"{g.edge_count} edges exceed the budget of {budget}")
    m = g.edge_count
    if m == 0:
        return 0
    memo: dict[frozenset[int], bool] = {}

    def colorable(part: tuple[int, ...]) -> bool:
        key = frozenset(part)
        if key not in memo:
            sub, _ = g.subgraph(part)
            memo[key] = exact_interval_colorable(sub, budget=max(m, INTERVAL_BUDGET)) is not None
        return memo[key]

    assignment = [0] * m

    def search(i: int, used: int, k: int) -> bool:
        if i == m:
            parts: list[list[int]] = [[] for _ in range(used)]
            for eid, p in enumerate(assignment):
                parts[p].append(eid)
            return all(colorable(tuple(p)) for p in parts)
        for p in range(min(used + 1, k)):
            assignment[i] = p
            if search(i + 1, max(used, p + 1), k):
                return True
        return False

    for k in range(1, m + 1):
        if search(0, 0, k):
            return k
    raise AssertionError("single-edge parts are always feasible")


def nash_williams_arboricity(g: Multigraph, budget: int = ARBORICITY_BUDGET) -> int:
    """Exact arboricity: max over vertex subsets X of ceil(|E(G[X])| / (|X|-1))."""
    if g.vertex_count > budget:
        raise BudgetExceeded(f"{g.vertex_count} vertices exceed the budget of {budget}")
    if g.edge_count == 0:
        return 0
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    best = 1
    for mask in range(3, 1 << g.vertex_count):
        size = mask.bit_count()
        if size < 2:
            continue
        inside = sum(1 for em in edge_masks if em & mask == em)
        need = -(-inside // (size - 1))
        if need > best:
            best = need
    return best


def exact_cyclic_interval_coloring(g: Multigraph, t: int,
                                   budget: int = INTERVAL_BUDGET) -> EdgeColoring | None:
    """Search for a cyclic interval t-coloring (palettes consecutive mod t).

    A component's coloring either leaves a color empty or uses all t.  Rotated so
    that the empty color is t, the first is an interval coloring within t-1 colors,
    which the interval oracle's search looks for.  Otherwise the color sweep runs
    under the wrap rule: colors 1..t, one non-empty matching each; a vertex matched
    at color 1 may pause once and then runs from t-r+1 through t for its r edges
    left, and every other vertex runs without a gap from its first color.
    """
    if g.edge_count > budget:
        raise BudgetExceeded(f"{g.edge_count} edges exceed the budget of {budget}")
    if t < max(g.max_degree, 1):
        return None

    def search(sub: Multigraph) -> list[int] | None:
        found = _interval_search(sub, t - 1)
        return found if found is not None else _color_sweep(sub, "cyclic", t)

    col = _per_component(g, search)
    if col is not None and not verify(g, col, "cyclic", t=t).cyclic_interval:
        raise AssertionError("oracle produced an invalid cyclic witness")
    return col
