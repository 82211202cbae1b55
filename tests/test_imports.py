"""No module of the package or of scripts/ imports a name it never reads, and
no private top-level function or class of the package goes unread.

A package __init__ re-exports what it imports, and a name listed in a module's
__all__ is exported, so both count as used.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "intcolor").glob("*.py"))
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


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of every private top-level function or class of the modules
    (name: source) whose name no expression in any of them reads, as a name or
    as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.extend((module, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                       and node.name.startswith("_") and not node.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_unread_private_definitions_finds_a_leftover_helper():
    sources = {"a": "def _used():\n    pass\ndef _shim():\n    pass\nclass _Gone:\n    pass\n"
                    "def public():\n    return _used()\n",
               "b": "from . import a\nclass _Read:\n    pass\nx = a._other\n"
                    "def _other():\n    return _Read\n"}
    assert unread_private_definitions(sources) == ["a._shim", "a._Gone"]


def test_every_private_definition_of_the_package_is_read():
    assert unread_private_definitions({p.stem: p.read_text() for p in PACKAGE}) == []
