"""No module of the package imports the process-pool stack, and the package
has one pool path.

The replication pool forks its workers itself (``experiments._fork_pool``),
so ``concurrent.futures`` and ``multiprocessing``, which take about a tenth
of start-up and about 1.4 MB of a pool run's peak RSS, have no use in
``src/geomasksim``. A stand-in for a linter's banned-import rule: every
``import`` and ``from ... import`` is read from the syntax tree, at any depth,
so an import inside a function counts too.

The same tree walk pins where a process starts and ends: ``os.fork`` may
appear only inside ``_fork_pool`` and ``os._exit`` only inside ``_serve``,
the worker's whole life, so a second pool path fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geomasksim"
BANNED = ("concurrent", "multiprocessing")
# each process call of ``os`` and the one function it may appear in
CALL_SITES = {"fork": "_fork_pool", "_exit": "_serve"}


def banned_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each import of ``source`` that loads a package of
    ``BANNED`` or one of its submodules; relative imports load the
    package's own modules and are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] in BANNED]
    return found


def test_the_checker_flags_what_it_should():
    source = (
        "import os, multiprocessing\n"
        "from concurrent import futures\n"
        "import concurrent.futures.process as cfp\n"
        "from multiprocessing.pool import Pool\n"
        "from . import concurrent\n"
        "import concurrently\n"
        "def pool():\n"
        "    from concurrent.futures import ProcessPoolExecutor\n"
    )
    assert banned_imports(source) == [
        (1, "multiprocessing"),
        (2, "concurrent"),
        (3, "concurrent.futures.process"),
        (4, "multiprocessing.pool"),
        (8, "concurrent.futures"),
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_pool_stack_imports(module):
    assert banned_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def misplaced_process_calls(source: str) -> list[tuple[int, str, str | None]]:
    """(line, name, innermost enclosing function) of each ``os.<name>`` of
    ``CALL_SITES`` in ``source`` outside the function it may appear in, and
    of each ``from os import <name>``, which would hide the call's name."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os"
                and CALL_SITES.get(node.attr, function) != function):
            found.append((node.lineno, node.attr, function))
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend((node.lineno, a.name, function) for a in node.names if a.name in CALL_SITES)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_process_call_checker_flags_what_it_should():
    source = (
        "import os\n"
        "def _fork_pool():\n"
        "    pid = os.fork()\n"
        "    def inner():\n"
        "        os.fork()\n"
        "    os._exit(0)\n"
        "def _serve():\n"
        "    os._exit(1)\n"
        "    os.forkpty()\n"
        "def _other_pool():\n"
        "    spawn = os.fork\n"
        "    from os import _exit\n"
        "os.fork()\n"
    )
    assert misplaced_process_calls(source) == [
        (5, "fork", "inner"),
        (6, "_exit", "_fork_pool"),
        (11, "fork", "_other_pool"),
        (12, "_exit", "_other_pool"),
        (13, "fork", None),
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_processes_start_only_in_the_one_pool(module):
    assert misplaced_process_calls((PACKAGE / module).read_text(encoding="utf-8")) == []
