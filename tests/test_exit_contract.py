"""The exit-code contract of the command line, as a standing property.

Every documented input either completes (exit 0) or fails with its
documented code: 1 for a validation error, 2 for a runtime failure. A
failure prints exactly one ``error:`` or ``runtime failure:`` line on
stderr and no traceback; an uncaught exception fails the test outright.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomasksim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main

_FAILURE_PREFIXES = ("error:", "runtime failure:")


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_contract(code: int, err: str) -> None:
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert sum(line.startswith(_FAILURE_PREFIXES) for line in err.splitlines()) == 1, err


_RUN_COMMANDS = {
    "simulate": ["simulate", "--fast"],
    "efficiency": ["efficiency"],
    "efficiency-empirical": ["efficiency", "--empirical-reps", "30"],
}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(sorted(_RUN_COMMANDS)),
    kind=st.sampled_from(["csr-population", "fixed-area-grid", "centroid"]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    replications=st.sampled_from([1, 30]),
    mechanism=st.sampled_from(["uniform", "gaussian"]),
    boundary=st.sampled_from(["unconstrained", "redraw"]),
    max_attempts=st.sampled_from([1, 1000]),
    k=st.sampled_from([1, 3]),
    fraction=st.sampled_from([0.0, 0.5, 1.0]),
)
@example(command="efficiency", kind="csr-population", n=7, seed=7, replications=30,
         mechanism="uniform", boundary="unconstrained", max_attempts=1000, k=3, fraction=1.0)
@example(command="efficiency-empirical", kind="csr-population", n=7, seed=7, replications=30,
         mechanism="uniform", boundary="unconstrained", max_attempts=1000, k=3, fraction=1.0)
def test_run_commands_keep_the_exit_code_contract(
    command, kind, n, seed, replications, mechanism, boundary, max_attempts, k, fraction
):
    text = (
        f"[experiment]\nkind = {kind}\nseed = {seed}\nreplications = {replications}\n"
        f"[population]\nn = {n}\n"
        f"[mask]\nmechanism = {mechanism}\nboundary = {boundary}\nmax_attempts = {max_attempts}\n"
        f"[grid]\nk = {k}\nfractions = {fraction}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(text, encoding="utf-8")
        _assert_contract(*_run(_RUN_COMMANDS[command] + ["--config", str(cfg), "--out-dir", str(Path(tmp) / "out")]))


# one row of a point file may be spoiled: a non-finite or unparsable
# coordinate, a choice outside {0, 1}, or a missing field
_SPOILERS = [None, None, None, ("x", "nan"), ("y", "inf"), ("x", "1e300"), ("x", "a"), ("choice", "2"), ("choice", "")]


def _points_text(coords, choices, with_choice, spoiler) -> str:
    header = ["id", "x", "y"] + (["choice"] if with_choice else [])
    rows = [
        {"id": str(i), "x": repr(x), "y": repr(y), "choice": str(c)}
        for i, ((x, y), c) in enumerate(zip(coords, choices))
    ]
    if spoiler is not None and rows:
        field, value = spoiler
        rows[0][field] = value
    # an empty field is left out, so that row is one field short
    lines = [",".join(header)] + [",".join(row[f] for f in header if row[f]) for row in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    coords=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), max_size=8),
    choices=st.lists(st.sampled_from([0, 1]), min_size=8, max_size=8),
    with_choice=st.booleans(),
    spoiler=st.sampled_from(_SPOILERS),
    command=st.sampled_from(["mask", "fit"]),
    theta_star=st.sampled_from(["0", "0.3", "5", "-1", "nan"]),
    mechanism=st.sampled_from(["uniform", "gaussian"]),
    area=st.sampled_from([None, ["-1", "1", "-1", "1"], ["0", "1", "0", "1"], ["1", "0", "0", "1"]]),
    facility=st.sampled_from([["0", "0"], ["0.5", "-0.5"], ["1e200", "0"]]),
)
def test_point_commands_keep_the_exit_code_contract(
    coords, choices, with_choice, spoiler, command, theta_star, mechanism, area, facility
):
    with tempfile.TemporaryDirectory() as tmp:
        points = Path(tmp) / "points.csv"
        points.write_text(_points_text(coords, choices, with_choice, spoiler), encoding="utf-8")
        if command == "mask":
            argv = ["mask", "--points", str(points), "--out", str(Path(tmp) / "masked.csv"),
                    "--theta-star", theta_star, "--mechanism", mechanism]
            if area is not None:
                argv += ["--boundary", "redraw", "--area", *area]
        else:
            argv = ["fit", "--points", str(points), "--facility-x", facility[0], "--facility-y", facility[1]]
        _assert_contract(*_run(argv))
