"""Graphs have no loops, and the Multigraph constructor alone decides it.

No module of the package defines or calls has_loop, only graphio names the
allows_loops flag (older graph files may still carry it), and a Multigraph has
no field but its vertex count and edges.
"""
import ast
import dataclasses
from pathlib import Path

import pytest

from intcolor.multigraph import Multigraph

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "intcolor").glob("*.py"))


def names_in(source: str) -> set[str]:
    """Every name source defines, reads, passes as a keyword or reaches as an
    attribute, and every string constant in it."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            out.add(node.arg)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_names_in_sees_definitions_calls_keywords_and_strings():
    source = ("def has_loop(g):\n    return g.has_loop()\n"
              "f(x, allows_loops=True)\nmsg = f\"'allows_loops' is {x!r}\"\n")
    names = names_in(source)
    assert {"has_loop", "allows_loops", "'allows_loops' is "} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_defines_or_calls_has_loop(path):
    assert "has_loop" not in names_in(path.read_text())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_graphio_names_allows_loops(path):
    named = any("allows_loops" in name for name in names_in(path.read_text()))
    assert named == (path.name == "graphio.py")


def test_a_multigraph_is_its_vertex_count_and_edges():
    assert [f.name for f in dataclasses.fields(Multigraph)] == ["vertex_count", "edges"]
