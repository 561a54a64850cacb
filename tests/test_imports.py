"""Every name a module imports is read by that module: an AST scan of each
module under ``src/rigidview`` and ``tests``.  A name listed in the
module's ``__all__`` counts as read, and ``from __future__`` imports are
skipped."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "rigidview").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """``{name: line}`` of every name an import statement binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree):
    """Every name the module reads, with quoted annotations parsed and the
    strings of ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                  for t in node.targets):
            read.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read |= read_names(ast.parse(ann.value, mode="eval"))
    return read


def unused_imports(source):
    """Names imported by ``source`` that it never reads, as ``(line, name)``."""
    tree = ast.parse(source)
    read = read_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in read)


def test_the_scan_covers_both_trees():
    assert any(p.name == "cameras.py" for p in MODULES)
    assert any(p.name == "helpers.py" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math as m\nfrom typing import Optional, Sequence\n"
              "__all__ = ['Sequence']\n"
              "def f(x: 'Optional[int]'):\n    return os.path.join(x)\n")
    assert unused_imports(source) == [(3, "m")]
