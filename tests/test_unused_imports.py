"""No module of the package imports a name it never uses.

A stand-in for a linter's F401 check: every name an ``import`` binds in
``src/geomasksim`` must be read somewhere in its module, unless the import
line carries ``# noqa: F401`` with its reason.
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


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
