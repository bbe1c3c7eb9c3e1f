"""One module decides what a fit without an estimate reports: ``logit``.

``fit_rows`` reports a SEPARATED or SINGULAR row with no estimate, and
``fit_distance_choice`` raises ``InvalidFitError``, ``logit``'s one error
class, for both. No other module reads those two statuses, and the one
``except`` clause of the package that names a fit error is
``fit_baseline``'s, which adds the run's kind, n and seed to the message.

Every other failure is a builtin: a ValueError for input the run cannot
take, a RuntimeError for a run that cannot finish. So ``InvalidFitError``
is the one exception class the package defines, and ``cli.main``, which
turns the two bases into exit codes 1 and 2, names builtin exception types
alone in its ``except`` clauses.

Stand-ins for linter rules: all are read from the syntax tree, at any
depth, as in ``tests/test_no_pool_stack_imports.py``.
"""

import ast
import builtins
from pathlib import Path

import pytest

from geomasksim import logit

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geomasksim"
STATUSES = ("SEPARATED", "SINGULAR")
FIT_ERRORS = {
    name for name, value in vars(logit).items()
    if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == logit.__name__
}


def status_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each read of a status in ``STATUSES``: as a name, an
    attribute or an imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in STATUSES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in STATUSES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in STATUSES]
    return sorted(found)


def fit_error_handlers(source: str) -> list[tuple[int, str | None, str]]:
    """(line, innermost enclosing function, name) of each fit error that an
    ``except`` clause of ``source`` names, alone, in a tuple or as an
    attribute."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for part in ast.walk(node.type):
                name = part.id if isinstance(part, ast.Name) else getattr(part, "attr", None)
                if name in FIT_ERRORS:
                    found.append((node.lineno, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


BUILTIN_ERRORS = {
    name for name, value in vars(builtins).items() if isinstance(value, type) and issubclass(value, BaseException)
}


def _named(node) -> str | None:
    """The name a class base or an except clause's type gives: ``x`` or ``a.x``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def exception_classes(sources: list[str]) -> list[str]:
    """Names of the classes ``sources`` define whose bases are builtin
    exception types or, through any chain, such classes of ``sources``."""
    classes = [node for source in sources for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    found: list[str] = []
    while new := [c.name for c in classes if c.name not in found
                  and any(_named(base) in BUILTIN_ERRORS or _named(base) in found for base in c.bases)]:
        found += new
    return sorted(found)


def main_handler_names(source: str) -> list[tuple[int, str | None]]:
    """(line, name) of each type an ``except`` clause of the function
    ``main`` names, alone, in a tuple or as an attribute; None for
    anything else, a call or a subscript, say."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, ast.FunctionDef) and function.name == "main":
            for node in ast.walk(function):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    found += [(node.lineno, t.id if isinstance(t, ast.Name) else None) for t in types]
    return found


def test_logit_has_one_error_class():
    assert FIT_ERRORS == {"InvalidFitError"}


def test_the_error_checkers_flag_what_they_should():
    sources = [
        "class InvalidFitError(ValueError):\n    pass\n"
        "class Deeper(InvalidFitError):\n    pass\n"
        "class Plain:\n    pass\n",
        "import configparser\n"
        "class ConfigError(configparser.Error, KeyError):\n    pass\n"
        "def main():\n"
        "    try:\n"
        "        pass\n"
        "    except (OSError, ValueError):\n"
        "        pass\n"
        "    except logit.InvalidFitError:\n"
        "        pass\n"
        "    except _CliError:\n"
        "        pass\n"
        "    except ERRORS[0]:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n",
    ]
    assert exception_classes(sources) == ["ConfigError", "Deeper", "InvalidFitError"]
    assert main_handler_names(sources[1]) == [(7, "OSError"), (7, "ValueError"), (9, None), (11, "_CliError"), (13, None)]


def test_the_package_defines_one_exception_class():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert exception_classes(sources) == ["InvalidFitError"]


def test_cli_main_catches_builtin_exception_types_alone():
    names = main_handler_names((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert names and all(name in BUILTIN_ERRORS for _, name in names), names


def test_the_checkers_flag_what_they_should():
    source = (
        "from .logit import CONVERGED, SINGULAR\n"
        "from . import logit\n"
        "def block(fits):\n"
        "    failed = fits.status == logit.SEPARATED\n"
        "    try:\n"
        "        pass\n"
        "    except (KeyError, logit.InvalidFitError):\n"
        "        return SINGULAR\n"
        "def fit_baseline():\n"
        "    try:\n"
        "        pass\n"
        "    except InvalidFitError:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    assert status_reads(source) == [(1, "SINGULAR"), (4, "SEPARATED"), (8, "SINGULAR")]
    assert fit_error_handlers(source) == [(7, "block", "InvalidFitError"), (12, "fit_baseline", "InvalidFitError")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "logit.py"))
def test_no_module_but_logit_reads_the_statuses_without_an_estimate(module):
    assert status_reads((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_only_fit_baseline_catches_a_fit_error():
    found = [
        (path.name, function, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, function, name in fit_error_handlers(path.read_text(encoding="utf-8"))
    ]
    assert found == [("experiments.py", "fit_baseline", "InvalidFitError")]
