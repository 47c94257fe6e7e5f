"""No module in ``src/`` imports a name it never reads, or a package
from outside the standard library.

An AST scan of every non-``__init__`` module under ``src/repro``: a
name bound by a module-level ``import`` (including one under a
top-level ``if`` or ``try``) must be read somewhere in the module --
as a name, the root of an attribute chain, inside a string annotation
-- or be listed in ``__all__``.  Package ``__init__`` modules are
skipped: importing to re-export is their job.  Every import in every
module, at any level, names ``repro`` or a standard-library module:
the runtime has no third-party dependency.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")

ALL_MODULES = sorted(SRC.rglob("*.py"))


def _module_imports(tree):
    """``(name, line)`` for every name the module body imports."""
    body = list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            body.extend(node.body)
            body.extend(getattr(node, "orelse", []))
            for handler in getattr(node, "handlers", []):
                body.extend(handler.body)
            body.extend(getattr(node, "finalbody", []))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _reads(tree):
    """Every name the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _reads(ast.parse(sub.value, mode="eval"))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def dead_imports(path):
    """``line: name`` for every import ``path`` never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _reads(tree) | _exported(tree)
    return [
        f"{line}: {name}"
        for name, line in _module_imports(tree)
        if name not in used
    ]


def test_scanner_finds_an_unread_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import List, Optional\n"
        "import os.path\n"
        "from x import y as z, w\n"
        "__all__ = ['w']\n"
        "def f(a: 'List[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert dead_imports(module) == ["1: Optional", "3: z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unread_module_import(path):
    assert dead_imports(path) == []


def foreign_imports(path):
    """``line: module`` for every import outside ``repro`` and the
    standard library, at module or function level."""
    roots = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.append((node.module, node.lineno))
    allowed = sys.stdlib_module_names | {"repro"}
    return [f"{line}: {name}" for name, line in roots
            if name.split(".")[0] not in allowed]


def test_scanner_finds_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os, json\n"
        "from . import sibling\n"
        "from repro.core import mg\n"
        "def f():\n"
        "    import networkx as nx\n"
        "    from numpy.linalg import norm\n"
    )
    assert foreign_imports(module) == ["5: networkx", "6: numpy.linalg"]


@pytest.mark.parametrize(
    "path", ALL_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_imports_only_the_standard_library(path):
    assert foreign_imports(path) == []
