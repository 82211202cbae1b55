"""Spans around every public ``intcolor`` function, installed from outside the library.

``Tracer.install`` wraps each public function of each module and rebinds every
module attribute that refers to it: the package imports with ``from .x import f``,
so ``thickness``, ``timetable`` and ``kernels`` hold references of their own.
``Multigraph.subgraph`` and ``Multigraph.components`` are wrapped as well.

Spans (name, start, end, parent span, job id) are kept in flat arrays and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls nest, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

MODULES = ("multigraph", "graphio", "edge_coloring", "generators", "kernels",
           "subcubic", "oracles", "thickness", "timetable")
METHODS = (("multigraph", "Multigraph", "subgraph"), ("multigraph", "Multigraph", "components"))

# Decomposers and kernels the dispatcher calls directly, one per candidate run.
CANDIDATE_ENTRIES = frozenset({
    "kernels.color_forest", "kernels.color_cactus", "kernels.color_low_even_bipartite",
    "subcubic.color_subcubic", "oracles.exact_interval_colorable",
    "thickness.decompose_general", "thickness.decompose_bipartite",
    "thickness.decompose_eulerian_bipartite", "thickness.decompose_biregular",
    "thickness.decompose_star_peel", "thickness.decompose_forest_peel",
    "thickness.decompose_balanced_family",
})


class Tracer:
    """Span recorder for one process; install() once, uninstall() when done."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.events: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        observe = _OBSERVERS.get(name)
        events = self.events

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                events[f"{name}:raised:{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(idx)
            if observe is not None:
                observe(events, args, result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span of the benchmark's own."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"intcolor.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in [importlib.import_module("intcolor"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{short}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, total self seconds) per span name."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            acc = out.setdefault(self.names[self.name[i]], [0, 0.0])
            acc[0] += 1
            acc[1] += self.end[i] - self.start[i] - child[i]
        return {k: (c, s) for k, (c, s) in out.items()}

    def candidate_calls(self) -> int:
        """Calls into a candidate's decomposer or kernel made directly by a dispatch."""
        dispatch = self._name_ids.get("thickness.dispatch_theta_upper", -2)
        entries = {self._name_ids[n] for n in CANDIDATE_ENTRIES if n in self._name_ids}
        return sum(1 for i in range(len(self.name))
                   if self.name[i] in entries and self.parent[i] >= 0
                   and self.name[self.parent[i]] == dispatch)

    def write(self, path: Path) -> None:
        """Binary span columns after a one-line JSON header."""
        header = {"names": self.names, "spans": len(self.name),
                  "columns": [["name", "i"], ["start", "d"], ["end", "d"],
                              ["parent", "i"], ["job", "i"]]}
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for col in (self.name, self.start, self.end, self.parent, self.job):
                col.tofile(f)


# Counts taken at a boundary, from the call's arguments and result.

def _observe_subgraph(events, args, result):
    sub, ids = result
    events["subgraph.vertices"] += sub.vertex_count
    events["subgraph.edges"] += len(ids)


def _observe_verify(events, args, result):
    events["verify.edges"] += args[0].edge_count


def _observe_fan(events, args, result):
    events["fan.colorings"] += 1
    if result.colors_used() > args[0].max_degree:
        events["fan.extra_color"] += 1


_OBSERVERS = {
    "multigraph.subgraph": _observe_subgraph,
    "multigraph.verify": _observe_verify,
    "edge_coloring.vizing_color": _observe_fan,
    "edge_coloring.shannon_color": _observe_fan,
}


def unit(metric_name: str) -> str:
    if metric_name.endswith(".self_s"):
        return "s"
    if metric_name.startswith("trace.edges_per_s"):
        return "edges/s"
    if metric_name.endswith(("_share", "_edge", "_dispatch", "_overhead")):
        return "ratio"
    return "count"


def _raised(events: Counter, prefix: str, exc_names: tuple[str, ...]) -> int:
    return sum(v for k, v in events.items()
               if k.startswith(prefix) and k.rsplit(":", 1)[1] in exc_names)


def layer_metrics(tracer: Tracer, passes: int, output_edges: int) -> dict[str, float]:
    """Per-layer metrics, per pass over the workload's job set; ratios with their bases."""
    st = tracer.self_times()
    ev = tracer.events

    def calls(*names: str) -> int:
        return sum(st.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names: str) -> float:
        return sum(st.get(n, (0, 0.0))[1] for n in names)

    def layer(prefix: str) -> list[str]:
        return [n for n in st if n.startswith(prefix + ".")]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    kernels, subcubic, oracles = layer("kernels"), layer("subcubic"), layer("oracles")
    rejected = ("GraphError", "BudgetExceeded")
    verify = ("multigraph.verify", "multigraph.verify_decomposition")
    fan = ("edge_coloring.vizing_color", "edge_coloring.shannon_color")
    parse = [n for n in layer("graphio") if "_from_" in n]
    emit = [n for n in layer("graphio") if "_to_" in n or n.endswith(".dumps")]
    dispatch = "thickness.dispatch_theta_upper"
    m = {
        "multigraph.subgraph.calls": calls("multigraph.subgraph"),
        "multigraph.subgraph.self_s": self_s("multigraph.subgraph"),
        "multigraph.subgraph.edges": ev["subgraph.edges"],
        "multigraph.subgraph.vertices_per_edge": share(ev["subgraph.vertices"],
                                                       ev["subgraph.edges"]),
        "multigraph.verify.calls": calls(*verify),
        "multigraph.verify.self_s": self_s(*verify),
        "multigraph.verify.output_edges": output_edges,
        "multigraph.verify.edges_per_output_edge": share(ev["verify.edges"], output_edges * passes),
        "multigraph.bipartition.self_s": self_s("multigraph.bipartition"),
        "multigraph.components.self_s": self_s("multigraph.components"),
        "graphio.parse.self_s": self_s(*parse),
        "graphio.emit.self_s": self_s(*emit),
        "edge_coloring.fan.self_s": self_s(*fan),
        "edge_coloring.fan.calls": ev["fan.colorings"],
        "edge_coloring.fan.extra_color_share": share(ev["fan.extra_color"], ev["fan.colorings"]),
        "edge_coloring.konig.self_s": self_s("edge_coloring.konig_color"),
        "edge_coloring.equalized.self_s": self_s("edge_coloring.equalized_bipartite_color"),
        "edge_coloring.euler.self_s": self_s("edge_coloring.euler_split",
                                             "edge_coloring.petersen_two_factorization"),
        "edge_coloring.exact.self_s": self_s("edge_coloring.exact_chromatic_index"),
        "edge_coloring.exact.budget_exceeded": _raised(ev, "edge_coloring.exact_chromatic_index:",
                                                       ("BudgetExceeded",)),
        "kernels.calls": calls(*kernels),
        "kernels.self_s": self_s(*kernels),
        "kernels.rejected_share": share(_raised(ev, "kernels.", rejected), calls(*kernels)),
        "subcubic.calls": calls(*subcubic),
        "subcubic.self_s": self_s(*subcubic),
        "subcubic.rejected_share": share(_raised(ev, "subcubic.", rejected), calls(*subcubic)),
        "oracles.calls": calls(*oracles),
        "oracles.self_s": self_s(*oracles),
        "oracles.budget_exceeded": _raised(ev, "oracles.", ("BudgetExceeded",)),
        "thickness.dispatch.calls": calls(dispatch),
        "thickness.dispatch.self_s": self_s(dispatch),
        "thickness.dispatch.candidate_calls_per_dispatch": share(tracer.candidate_calls(),
                                                                 calls(dispatch)),
        "timetable.build_graph.self_s": self_s("timetable.build_requirement_graph"),
        "timetable.translate.self_s": self_s("timetable.decomposition_to_timetable",
                                             "timetable.timetable_to_decomposition"),
        "timetable.verify.self_s": self_s("timetable.verify_timetable"),
    }
    for short, fn in (("general", "general"), ("bipartite", "bipartite"),
                      ("eulerian", "eulerian_bipartite"), ("biregular", "biregular"),
                      ("star_peel", "star_peel"), ("forest_peel", "forest_peel")):
        m[f"thickness.decompose_{short}.self_s"] = self_s(f"thickness.decompose_{fn}")
    per_pass = {k: v / passes for k, v in m.items()
                if k.endswith((".calls", ".self_s", ".budget_exceeded", ".edges"))}
    m.update(per_pass)
    return m
