"""Every module-level import in the package and its tests is used by its
module, every local name a function assigns is read, every private
module-level function and class of the package is named somewhere, every
public function of ``tests/oracles.py`` is named by a test file, and
importing the package leaves networkx and mpmath unloaded.

No linter ships with the toolchain, so this is the check: each
``src/surface_minors/*.py`` and ``tests/*.py`` except ``__init__.py``
and ``conftest.py`` (whose imports are re-exports) is parsed with
``ast``, and every name a module-level import binds must be read
somewhere in that module.  Names read only inside string annotations
count as read.  ``__future__`` imports are ignored.  A ``_``-prefixed
module-level function or class of the package must be read, imported or
reached as an attribute somewhere in the package or its tests outside
its own definition.  A public function of ``tests/oracles.py`` must be
named in some ``tests/test_*.py``.  A name that a function of the
package or its tests assigns must be read in that function or a scope
nested in it, unless it starts with ``_`` or is declared ``global`` or
``nonlocal`` there.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surface_minors

PACKAGE = Path(surface_minors.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS_DIR = Path(__file__).parent
TESTS = sorted(p for p in TESTS_DIR.glob("*.py") if p.name != "conftest.py")
EVERY_FILE = sorted(PACKAGE.glob("*.py")) + sorted(TESTS_DIR.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for each module-level import."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those in string
    annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= _read_names(ast.parse(sub.value, mode="eval"))
    return names


def _assert_imports_used(path: Path) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree)
    unused = sorted((line, name) for name, line in _imported_names(tree).items()
                    if name not in read)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def _unread_locals(tree: ast.Module) -> list[str]:
    """``function.name`` for each name a function of ``tree`` assigns and
    never reads (see the module docstring), in the order ``ast.walk`` meets them."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = [], set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.append(node.id)
                else:
                    read.add(node.id)
        out += [f"{fn.name}.{name}" for name in dict.fromkeys(stored)
                if name not in read and not name.startswith("_")]
    return out


def _names(node: ast.AST) -> set[str]:
    """The names read under ``node``, the attributes it reaches and the
    names it imports."""
    names = _read_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unnamed_private_definitions(defining: list[ast.Module],
                                 every: list[ast.Module]) -> list[str]:
    """The ``_``-prefixed module-level functions and classes of the
    ``defining`` modules that no module-level statement of ``every``
    names, their own definitions aside."""
    named = [(stmt, _names(stmt)) for tree in every for stmt in tree.body]
    return [node.name for tree in defining for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not any(node.name in names for stmt, names in named if stmt is not node)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    _assert_imports_used(path)


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.stem)
def test_test_file_imports_are_used(path):
    _assert_imports_used(path)


def test_checker_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, sys as system\n"
                     "from typing import Sequence, Mapping\n"
                     "def f(x: 'Sequence[int]'):\n"
                     "    return os.sep\n")
    read = _read_names(tree)
    unused = {n for n in _imported_names(tree) if n not in read}
    assert unused == {"system", "Mapping"}


def test_assigned_locals_are_read():
    unread = [f"{path.name}: {name}" for path in EVERY_FILE
              for name in _unread_locals(ast.parse(path.read_text(), filename=str(path)))]
    assert unread == []


def test_checker_flags_an_unread_local():
    tree = ast.parse("def f(xs):\n"
                     "    total, dropped, _spare = 0, 1, 2\n"
                     "    for i, x in enumerate(xs):\n"
                     "        total += x\n"
                     "    def reset():\n"
                     "        nonlocal total\n"
                     "        total = 0\n"
                     "    reset()\n"
                     "    return [1 for y in xs], total\n")
    assert _unread_locals(tree) == ["f.dropped", "f.i", "f.y"]


def test_private_definitions_are_named():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in EVERY_FILE}
    package = [tree for path, tree in trees.items() if path.parent == PACKAGE]
    assert _unnamed_private_definitions(package, list(trees.values())) == []


def _unnamed_public_functions(defining: ast.Module, every: list[ast.Module]) -> list[str]:
    """The public module-level functions of ``defining`` that no module of
    ``every`` names."""
    named = set().union(*map(_names, every))
    return [node.name for node in defining.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in named]


def test_every_oracle_is_named_by_a_test():
    # an oracle that no test names checks nothing
    oracles = ast.parse((TESTS_DIR / "oracles.py").read_text())
    tests = [ast.parse(p.read_text()) for p in sorted(TESTS_DIR.glob("test_*.py"))]
    assert _unnamed_public_functions(oracles, tests) == []


def test_checker_flags_an_unnamed_oracle():
    oracles = ast.parse("def used(): pass\n"
                        "def reached(): pass\n"
                        "def stale(): return used()\n"
                        "def _helper(): pass\n")
    user = ast.parse("from oracles import used\n"
                     "import oracles\n"
                     "oracles.reached()\n")
    assert _unnamed_public_functions(oracles, [user]) == ["stale"]


def test_checker_flags_an_unnamed_private_definition():
    module = ast.parse("def _recursive(n):\n"
                       "    return _recursive(n - 1) if n else 0\n"
                       "def _called(): pass\n"
                       "class _Reached: pass\n"
                       "def _imported(): pass\n"
                       "def __dunder__(): pass\n"
                       "def public(): return _called()\n")
    user = ast.parse("import m\n"
                     "from m import _imported\n"
                     "m._Reached\n")
    assert _unnamed_private_definitions([module], [module, user]) == ["_recursive"]


def test_package_import_loads_neither_networkx_nor_mpmath():
    # both are imported where they are used, so a command-line call that
    # never reaches them does not pay for loading them
    script = ("import sys, surface_minors, surface_minors.cli; "
              "print(sorted(m for m in ('networkx', 'mpmath') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent) + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
