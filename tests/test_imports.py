"""Every module-level import in the package and its tests is used by its
module, every local name a function assigns is read, every private
module-level function and class of the package is named somewhere, every
public function and method of the package is named by the package or
the bench, every public function of ``tests/oracles.py`` is named by a
test file, and importing the package leaves networkx and mpmath
unloaded.

No linter ships with the toolchain, so this is the check: each
``src/surface_minors/*.py`` and ``tests/*.py`` except ``__init__.py``
and ``conftest.py`` (whose imports are re-exports) is parsed with
``ast``, and every name a module-level import binds must be read
somewhere in that module.  Names read only inside string annotations
count as read.  ``__future__`` imports are ignored.  A ``_``-prefixed
module-level function or class of the package must be read, imported or
reached as an attribute somewhere in the package or its tests outside
its own definition.  A public module-level function of the package, or
a public method of one of its module-level classes, must be named in
the package outside ``__init__.py`` and its own definition, or in
``bench/*.py``, where the attribute paths in the strings of the bench's
``TARGETS`` count too; ``LIBRARY_API`` lists the few that only callers
outside the package reach.  A public function of ``tests/oracles.py``
must be named in some ``tests/test_*.py``.  A name that a function of the
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
BENCH = sorted((TESTS_DIR.parent / "bench").glob("*.py"))

# Public names that neither the package nor the bench names, kept for
# callers of the library, each with the reason it stays.
LIBRARY_API = (
    ("cycle_signature", "the sidedness of one given cycle, the invariant the "
                        "classification reads, as a question a caller can ask"),
    ("is_nested", "nesting of two given cycles, validated; the chain search "
                  "reads the same test on cycles it has already classified"),
    ("graph6_encode", "the inverse of graph6_decode, so graphs leave in the "
                      "format the command line reads"),
    ("check_superadditive", "the property the paper needs of a bound function, "
                            "checkable on any candidate a caller builds"),
)


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


def _statements(tree: ast.Module) -> list[ast.AST]:
    """The module-level statements of ``tree``, each class split into
    its bases, decorators and body statements."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out += node.bases + node.decorator_list + node.body
        else:
            out.append(node)
    return out


def _target_paths(tree: ast.Module) -> set[str]:
    """The parts of the dotted strings in the module's ``TARGETS``."""
    return {part for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            for part in sub.value.split(".")}


def _unnamed_public_definitions(defining: list[ast.Module],
                                every: list[ast.Module]) -> list[str]:
    """The public module-level functions, and public methods of
    module-level classes, of the ``defining`` modules that no statement
    of ``every`` (see ``_statements``) names, their own definitions
    aside, and that no ``TARGETS`` string of ``every`` names."""
    named = [(stmt, _names(stmt)) for tree in every for stmt in _statements(tree)]
    targets = set().union(*map(_target_paths, every))
    return [node.name for tree in defining for node in _statements(tree)
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in targets
            and not any(node.name in names for stmt, names in named if stmt is not node)]


def test_public_definitions_are_named_by_the_package_or_the_bench():
    # a public function that only tests reach is code kept for the tests
    package = [ast.parse(p.read_text(), filename=str(p)) for p in MODULES]
    bench = [ast.parse(p.read_text(), filename=str(p)) for p in BENCH]
    assert sorted(_unnamed_public_definitions(package, package + bench)) == \
        sorted(name for name, _ in LIBRARY_API)


def test_checker_flags_an_unnamed_public_definition():
    module = ast.parse("def recursive(n):\n"
                       "    return recursive(n - 1) if n else 0\n"
                       "def called(): pass\n"
                       "class C:\n"
                       "    def method(self): return self.other()\n"
                       "    def other(self): return called()\n"
                       "    def traced(self): pass\n"
                       "    def _private(self): pass\n"
                       "    def __repr__(self): return ''\n")
    bench = ast.parse("TARGETS = (('m.span', 'm', 'C.traced', None),)\n")
    assert _unnamed_public_definitions([module], [module, bench]) == ["recursive", "method"]


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
