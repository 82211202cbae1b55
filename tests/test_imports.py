"""No module of the package or of scripts/ imports a name it never reads.

A package __init__ re-exports what it imports, and a name listed in a module's
__all__ is exported, so both count as used.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "intcolor").glob("*.py"),
                             *(ROOT / "scripts").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names an import in source binds that no expression reads, with the
    line of their import."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items(), key=lambda it: it[1])
            if name not in read]


def test_unused_imports_finds_what_no_expression_reads():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from typing import Any, Sequence as Seq\n"
              "__all__ = ['Any']\ndef f(x: Seq) -> str:\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["json (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []
