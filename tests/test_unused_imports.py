"""No module of the package imports or defines a private name it never uses,
assigns a local name it never reads, or catches a class together with one
of its bases.

A stand-in for a linter's F401 check: every name an ``import`` binds in
``src/geomasksim`` must be read somewhere in its module, unless the import
line carries ``# noqa: F401`` with its reason. Likewise every module-level
function, class or assigned name with one leading underscore must be read
in its own module, since no other module is meant to use it, and, as F841,
every local name a function assigns must be read in that function. And, as
flake8-bugbear's B014, no ``except`` tuple names a class and one of its
bases: the base alone catches both.
"""

import ast
import importlib
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


def _own_nodes(func):
    """The nodes of ``func``'s body outside the functions, lambdas and
    classes nested in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[tuple[int, str]]:
    """(line, name) of each local name a function of ``source`` binds by
    plain assignment and never reads, as pyflakes' F841. Names bound by
    tuple unpacking, names with a leading underscore and names the function
    declares global or nonlocal are exempt; an augmented assignment or a
    ``del`` reads its name, and so does a function nested in it."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read, declared = set(), set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        assigned = (
            target for node in _own_nodes(func) if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        )
        found += [
            (target.lineno, target.id) for target in assigned
            if not target.id.startswith("_") and target.id not in read | declared
        ]
    return sorted(found)


def test_the_unused_local_checker_flags_what_it_should():
    source = (
        "total = 5\n"
        "def f(a):\n"
        "    unused = a + 1\n"
        "    used = 2\n"
        "    x, y = a, a\n"
        "    _ignored = 3\n"
        "    count = 0\n"
        "    count += 1\n"
        "    first = second = a\n"
        "    def g():\n"
        "        inner = 1\n"
        "        return used + second\n"
        "    return g\n"
        "def h():\n"
        "    global G\n"
        "    G = 1\n"
        "    gone = 1\n"
        "    del gone\n"
        "    return lambda: [v for v in range(3)]\n"
    )
    assert unused_locals(source) == [(3, "unused"), (9, "first"), (11, "inner")]


def redundant_except_classes(source: str, namespace: dict) -> list[tuple[int, str, str]]:
    """(line, name, base) of each class that an ``except`` tuple of ``source``
    names together with ``base``, one of its bases or itself again; the
    names resolve in ``namespace`` and builtins."""
    scope = dict(namespace)  # eval adds __builtins__ to its globals
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
            named = [(ast.unparse(elt), eval(ast.unparse(elt), scope)) for elt in node.type.elts]
            found += [
                (node.lineno, name, base)
                for i, (name, cls) in enumerate(named)
                for j, (base, parent) in enumerate(named)
                if i != j and issubclass(cls, parent)
            ]
    return found


def test_the_except_checker_flags_what_it_should():
    class Narrow(ValueError):
        pass

    source = (
        "try:\n"
        "    pass\n"
        "except (Narrow, ValueError):\n"
        "    pass\n"
        "except (KeyError, ValueError, OSError):\n"
        "    pass\n"
        "except (KeyError, LookupError) as exc:\n"
        "    pass\n"
        "except (OSError, OSError):\n"
        "    pass\n"
        "except Narrow:\n"
        "    pass\n"
    )
    assert redundant_except_classes(source, {"Narrow": Narrow}) == [
        (3, "Narrow", "ValueError"),
        (7, "KeyError", "LookupError"),
        (9, "OSError", "OSError"),
        (9, "OSError", "OSError"),
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_private_names(module):
    assert unused_private_names((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_locals(module):
    assert unused_locals((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_redundant_except_classes(module):
    name = "geomasksim" if module == "__init__.py" else f"geomasksim.{module[:-3]}"
    namespace = vars(importlib.import_module(name))
    assert redundant_except_classes((PACKAGE / module).read_text(encoding="utf-8"), namespace) == []
