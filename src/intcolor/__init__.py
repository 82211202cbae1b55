"""Interval edge colorings, decompositions into interval colorable subgraphs,
and no-wait multi-stage schedules."""

from .multigraph import (Decomposition, EdgeColoring, GraphError, Multigraph,
                         VerifyReport, bipartition, build_graph, normalize, verify,
                         verify_decomposition)

__all__ = [
    "Decomposition", "EdgeColoring", "GraphError", "Multigraph", "VerifyReport",
    "bipartition", "build_graph", "normalize", "verify", "verify_decomposition",
]
