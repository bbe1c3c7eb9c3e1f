"""No module of the package imports the process-pool stack.

The replication pool forks its workers itself (``experiments._fork_pool``),
so ``concurrent.futures`` and ``multiprocessing``, which take about a tenth
of start-up and about 1.4 MB of a pool run's peak RSS, have no use in
``src/geomasksim``. A stand-in for a linter's banned-import rule: every
``import`` and ``from ... import`` is read from the syntax tree, at any depth,
so an import inside a function counts too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geomasksim"
BANNED = ("concurrent", "multiprocessing")


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
