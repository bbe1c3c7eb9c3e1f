"""No module of the package imports or defines a private name it never uses.

A stand-in for a linter's F401 check: every name an ``import`` binds in
``src/geomasksim`` must be read somewhere in its module, unless the import
line carries ``# noqa: F401`` with its reason. Likewise every module-level
function, class or assigned name with one leading underscore must be read
in its own module, since no other module is meant to use it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geomasksim"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import of ``source`` that the
    module never reads; ``__future__`` imports and lines marked
    ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; an alias of a multi-line import sits on its own line
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound.append((alias.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    return [(line, name) for line, name in bound if name not in read | exported]


def unused_private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level function, class or assigned name
    of ``source`` with one leading underscore that the module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                stored = (n for n in ast.walk(target) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
                defined += [(n.lineno, n.id) for n in stored]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        (line, name) for line, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_the_checker_flags_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy.random\n"
        "import sys  # noqa: F401  (kept for a reason)\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,  # noqa: F401\n"
        "    e,\n"
        ")\n"
        "print(numpy.random, e)\n"
    )
    assert unused_imports(source) == [(2, "os"), (6, "pi")]


def test_the_private_name_checker_flags_what_it_should():
    source = (
        "_used = 1\n"
        "_unused = 2\n"
        "__version__ = '1'\n"
        "public = 3\n"
        "_a, _b = 4, 5\n"
        "_table: dict = {}\n"
        "_table['k'] = _a\n"
        "def _helper():\n"
        "    return _used + _helper_of_helper()\n"
        "def _helper_of_helper():\n"
        "    return 0\n"
        "def _orphan():\n"
        "    _local = 1\n"
        "class _Kept:\n"
        "    def _method(self):\n"
        "        pass\n"
        "class _Gone:\n"
        "    pass\n"
        "print(_helper, _Kept)\n"
    )
    assert unused_private_names(source) == [(2, "_unused"), (5, "_b"), (12, "_orphan"), (17, "_Gone")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_private_names(module):
    assert unused_private_names((PACKAGE / module).read_text(encoding="utf-8")) == []
