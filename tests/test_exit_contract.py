"""The exit-code contract of the command line, as a standing property.

Every documented input either completes (exit 0) or fails with its
documented code: 1 for a validation error, 2 for a runtime failure. A
failure prints exactly one ``error:`` or ``runtime failure:`` line on
stderr and no traceback; an uncaught exception fails the test outright.
An interrupted run (SIGINT) exits 130 with one ``interrupted`` line and
writes no output.
"""

import contextlib
import io
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geomasksim
from geomasksim.cli import EXIT_INTERRUPTED, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from geomasksim.reports import CURVE_HEADER, RECORDS_HEADER

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


# a field one character over the csv module's default size limit
_OVERSIZE = "1" * 131_073
# the last row of a point file may be spoiled: a non-finite or unparsable
# coordinate, a choice outside {0, 1}, a missing field or an oversize one;
# ("header", value) adds a column named value to the header instead
_SPOILERS = [
    None, None, None, ("x", "nan"), ("y", "inf"), ("x", "1e300"), ("x", "a"), ("choice", "2"), ("choice", ""),
    ("x", _OVERSIZE), ("header", _OVERSIZE),
]


def _points_text(coords, choices, with_choice, spoiler, quoted_id) -> str:
    header = ["id", "x", "y"] + (["choice"] if with_choice else [])
    rows = [
        {"id": str(i), "x": repr(x), "y": repr(y), "choice": str(c)}
        for i, ((x, y), c) in enumerate(zip(coords, choices))
    ]
    if quoted_id and rows:
        rows[0]["id"] = '"0\n"'  # a quoted id that holds a line break: the row spans two lines
    if spoiler is not None and spoiler[0] == "header":
        header.append(spoiler[1])
    elif spoiler is not None and rows:
        field, value = spoiler
        rows[-1][field] = value
    # an empty field is left out, so that row is one field short
    lines = [",".join(header)] + [",".join(row[f] for f in header if row.get(f)) for row in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    coords=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), max_size=8),
    choices=st.lists(st.sampled_from([0, 1]), min_size=8, max_size=8),
    with_choice=st.booleans(),
    spoiler=st.sampled_from(_SPOILERS),
    quoted_id=st.booleans(),
    command=st.sampled_from(["mask", "fit"]),
    theta_star=st.sampled_from(["0", "0.3", "5", "-1", "nan"]),
    mechanism=st.sampled_from(["uniform", "gaussian"]),
    area=st.sampled_from([None, ["-1", "1", "-1", "1"], ["0", "1", "0", "1"], ["1", "0", "0", "1"]]),
    facility=st.sampled_from([["0", "0"], ["0.5", "-0.5"], ["1e200", "0"]]),
)
@example(coords=[(0.1, 0.2)], choices=[1] * 8, with_choice=True, spoiler=("x", _OVERSIZE), command="fit",
         quoted_id=False, theta_star="0", mechanism="uniform", area=None, facility=["0", "0"])
@example(coords=[(0.1, 0.2)], choices=[1] * 8, with_choice=False, spoiler=("x", _OVERSIZE), command="mask",
         quoted_id=False, theta_star="0.3", mechanism="uniform", area=None, facility=["0", "0"])
@example(coords=[(0.1, 0.2)], choices=[1] * 8, with_choice=False, spoiler=("header", _OVERSIZE), command="mask",
         quoted_id=False, theta_star="0.3", mechanism="uniform", area=None, facility=["0", "0"])
# id,x,y / "0<line break>",0.1,0.2 / 1,a,0.3: the bad value is on line 4
@example(coords=[(0.1, 0.2), (0.3, 0.3)], choices=[1] * 8, with_choice=False, spoiler=("x", "a"), quoted_id=True,
         command="fit", theta_star="0", mechanism="uniform", area=None, facility=["0", "0"])
def test_point_commands_keep_the_exit_code_contract(
    coords, choices, with_choice, spoiler, quoted_id, command, theta_star, mechanism, area, facility
):
    with tempfile.TemporaryDirectory() as tmp:
        points = Path(tmp) / "points.csv"
        points.write_text(_points_text(coords, choices, with_choice, spoiler, quoted_id), encoding="utf-8")
        if command == "mask":
            argv = ["mask", "--points", str(points), "--out", str(Path(tmp) / "masked.csv"),
                    "--theta-star", theta_star, "--mechanism", mechanism]
            if area is not None:
                argv += ["--boundary", "redraw", "--area", *area]
        else:
            argv = ["fit", "--points", str(points), "--facility-x", facility[0], "--facility-y", facility[1]]
        code, err = _run(argv)
        _assert_contract(code, err)
        # an error in the spoiled row names the physical line that row ends
        # on: after the header, one line a row and one more for a quoted id
        line = re.search(r"points\.csv:(\d+):", err)
        if line and spoiler is not None and spoiler[0] != "header":
            assert int(line.group(1)) == 1 + len(coords) + quoted_id, err


@pytest.mark.parametrize("text", ["1,0.1,0.2,1\n2,0.3,0.1,0\n", "1,0.1,0.2,0\n2,0.3,0.1,1\n3,0.5,0,1\n"])
def test_fit_on_a_separated_sample_exits_1(tmp_path, text):
    # a distance cut splits the choices, so the logit MLE does not exist;
    # the two-point file once exited 0, converged, with a beta interval of
    # about +-1e5
    points = tmp_path / "points.csv"
    points.write_text("id,x,y,choice\n" + text, encoding="utf-8")
    code, err = _run(["fit", "--points", str(points)])
    _assert_contract(code, err)
    assert code == EXIT_VALIDATION
    assert err == "error: the choices are separated, all identical or split by a distance cut: no logit MLE exists\n"


def test_a_bad_value_after_a_quoted_line_break_names_its_line(tmp_path):
    points = tmp_path / "ml.csv"
    points.write_text('id,x,y\n"0\n",0.1,0.2\n1,a,0.3\n', encoding="utf-8")
    code, err = _run(["fit", "--points", str(points)])
    assert code == EXIT_VALIDATION and f"{points}:4:" in err, err


# one row of each plot input that has the field may be spoiled: a
# non-finite or unparsable value, a share out of range, or a missing field (None)
_PLOT_SPOILERS = [
    None, None, ("theta_star", "nan"), ("mean_abs_beta", "inf"), ("beta_hat", "-inf"), ("beta_hat", "1e308"),
    ("theta_star", "1e17"), ("mean_abs_beta", "1.7e308"), ("converged", "maybe"), ("pct_outside_true_ci", "150"),
    ("rep", "1.5"), ("sd_beta", None), ("se_beta", None), ("theta_star", _OVERSIZE),
]
_BASELINES = [
    '{{"beta": {b!r}, "ci_beta": [{lo!r}, {hi!r}]}}', '{{"beta": {b!r}}}', '{{"beta": {b!r}, "ci_beta": [{hi!r}, 9.0]}}',
    '{{"beta": "{b}"}}', '{{"beta": NaN, "ci_beta": [-1, 1]}}', "[1, 2]", "{{",
    "[" * 200_000,  # deeper than the JSON parser's recursion
]


def _csv_text(rows, spoiler) -> str:
    header = tuple(rows[0])
    if spoiler is not None and spoiler[0] in header:
        field, value = spoiler
        rows[0][field] = value
    lines = [",".join(header)] + [",".join(row[f] for f in header if row[f] is not None) for row in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    thetas=st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.5]), min_size=1, max_size=3, unique=True).map(sorted),
    betas=st.lists(st.floats(-4.0, 0.0), min_size=1, max_size=12),
    failed=st.sets(st.integers(0, 11), max_size=4),
    spoiler=st.sampled_from(_PLOT_SPOILERS),
    baseline=st.sampled_from(_BASELINES),
    inputs=st.sampled_from([("curve", "records"), ("curve",), ("records",), ()]),
    theta_star=st.sampled_from([None, "0.1", "0.5", "5", "nan"]),
    directory=st.sampled_from([None, None, "curve", "records", "baseline"]),
)
@example(thetas=[0.1], betas=[-2.0, -1.5], failed=set(), spoiler=("theta_star", _OVERSIZE), baseline=_BASELINES[0],
         inputs=("records",), theta_star=None, directory=None)
@example(thetas=[0.1], betas=[-2.0, -1.5], failed=set(), spoiler=("theta_star", _OVERSIZE), baseline=_BASELINES[0],
         inputs=("curve",), theta_star=None, directory=None)
@example(thetas=[0.1], betas=[-2.0, -1.5], failed=set(), spoiler=None, baseline="[" * 200_000,
         inputs=("curve",), theta_star=None, directory=None)
def test_plot_keeps_the_exit_code_contract(thetas, betas, failed, spoiler, baseline, inputs, theta_star, directory):
    betas = [b - 0.01 * i for i, b in enumerate(betas)]  # distinct, so a KDE can be built from two of them
    beta = sum(betas) / len(betas)
    curve_rows = [
        {"theta_star": repr(t), "mean_abs_beta": repr(abs(beta) / (1 + t)), "sd_beta": "0.25",
         "pct_outside_true_ci": "10.0", "pct_nonsignificant": "5.0", "convergence_rate": "1.0",
         "el_analytic": "", "el_empirical": ""}
        for t in thetas
    ]
    record_rows = [
        {"theta_star": repr(t), "rep": str(rep), "alpha_hat": "1.0", "beta_hat": repr(b), "se_beta": "0.5",
         "converged": str(rep not in failed).lower(), "iterations": "4", "significant_beta": "true",
         "outside_true_ci": "false"}
        for t in thetas
        for rep, b in enumerate(betas)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.txt" for name in ("curve", "records", "baseline")}
        paths["curve"].write_text(_csv_text(curve_rows, spoiler), encoding="utf-8")
        paths["records"].write_text(_csv_text(record_rows, spoiler), encoding="utf-8")
        paths["baseline"].write_text(baseline.format(b=beta, lo=beta - 0.5, hi=beta + 0.5), encoding="utf-8")
        if directory is not None:
            paths[directory] = Path(tmp)
        argv = ["plot", "--baseline", str(paths["baseline"]), "--out-dir", str(Path(tmp) / "plots")]
        for name in inputs:
            argv += [f"--{name}", str(paths[name])]
        if theta_star is not None:
            argv += ["--theta-star", theta_star]
        _assert_contract(*_run(argv))


def test_plot_records_kde_at_a_subnormal_bandwidth_exit_0(tmp_path):
    # five estimates whose IQR is one subnormal give a 5e-324 Silverman
    # bandwidth, whose kernel norm overflows; the KDE plot is still drawn
    header = "theta_star,rep,alpha_hat,beta_hat,se_beta,converged,iterations,significant_beta,outside_true_ci"
    rows = [f"0.5,{rep},1.0,{beta!r},0.5,true,4,true,false" for rep, beta in enumerate([0.0, 0.0, 0.0, 1.0, 5e-324])]
    records = tmp_path / "records.csv"
    records.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"beta": 0.2, "ci_beta": [-0.3, 0.7]}', encoding="utf-8")
    out = tmp_path / "plots"
    code, err = _run(["plot", "--records", str(records), "--baseline", str(baseline), "--out-dir", str(out)])
    _assert_contract(code, err)
    assert code == EXIT_OK and (out / "kde.svg").is_file()


def test_plot_records_without_data_rows_exit_1_naming_the_file(tmp_path):
    # a header-only records CSV has no cell to take the largest theta* of
    records = tmp_path / "records.csv"
    records.write_text(",".join(RECORDS_HEADER) + "\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"beta": 0.2, "ci_beta": [-0.3, 0.7]}', encoding="utf-8")
    code, err = _run(["plot", "--records", str(records), "--baseline", str(baseline), "--out-dir", str(tmp_path)])
    _assert_contract(code, err)
    assert code == EXIT_VALIDATION
    assert err == f"error: {records} has no records\n"


def test_plot_curve_without_data_rows_exit_1_naming_the_file(tmp_path):
    # a header-only curve CSV has no theta* to plot
    curve = tmp_path / "curve.csv"
    curve.write_text(",".join(CURVE_HEADER) + "\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"beta": 0.2}', encoding="utf-8")
    code, err = _run(["plot", "--curve", str(curve), "--baseline", str(baseline), "--out-dir", str(tmp_path)])
    _assert_contract(code, err)
    assert code == EXIT_VALIDATION
    assert err == f"error: {curve} has no curve rows\n"
    assert not (tmp_path / "attenuation.svg").exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        # each efficiency cell is read as a number or, when empty, None
        (["0.1,1.0,0.1,1.0,1.0,1.0,abc,xyz"], ":2: could not convert string to float: 'abc'"),
        (["0.1,1.0,0.1,1.0,1.0,1.0,0.5,xyz"], ":2: could not convert string to float: 'xyz'"),
        (["0.5,1.0,0.1,1.0,1.0,1.0,,", "0.1,1.0,0.1,1.0,1.0,1.0,,"], ": curve rows must be sorted by theta_star"),
        # each efficiency value is checked as a number: el_analytic in (0, 1]
        # as EfficiencyReport's, el_empirical finite and positive
        (["0.1,1.0,0.1,1.0,1.0,1.0,5,nan"], ":2: el_analytic must lie in (0, 1], got 5.0"),
        (["0.1,1.0,0.1,1.0,1.0,1.0,0.5,nan"], ":2: el_empirical must be finite and positive, got nan"),
        (["0.1,1.0,0.1,1.0,1.0,1.0,0.5,1.2", "0.2,1.0,0.1,1.0,1.0,1.0,0.4,-0.1"],
         ":3: el_empirical must be finite and positive, got -0.1"),
    ],
    ids=["el-analytic-not-a-number", "el-empirical-not-a-number", "out-of-theta-order",
         "el-analytic-out-of-range", "el-empirical-nan", "el-empirical-negative"],
)
def test_plot_on_a_curve_it_cannot_read_exits_1_naming_the_file(tmp_path, rows, message):
    curve = tmp_path / "curve.csv"
    curve.write_text("\n".join([",".join(CURVE_HEADER), *rows]) + "\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"beta": -2.0}', encoding="utf-8")
    code, err = _run(["plot", "--curve", str(curve), "--baseline", str(baseline), "--out-dir", str(tmp_path)])
    _assert_contract(code, err)
    assert code == EXIT_VALIDATION
    assert err == f"error: {curve}{message}\n"
    assert not (tmp_path / "attenuation.svg").exists()


@pytest.mark.parametrize(
    "argv, population, run_and_cell",
    [
        # the cells pass the 50% rule, but one masked cell keeps 29 of its 30
        # fits; the line names the run and that cell
        (["efficiency", "--empirical-reps", "30"], "seed = 0\n[population]\nn = 12\n",
         "(csr-population, n=12, seed=0), cell theta*=0.0707"),
        (["simulate"], "seed = 0\nreplications = 30\n[population]\nn = 20\n",
         "(csr-population, n=20, seed=0), cell theta*=0.4949"),
    ],
    ids=["efficiency", "simulate"],
)
def test_too_few_converged_efficiency_fits_exit_2_and_write_nothing(tmp_path, argv, population, run_and_cell):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[experiment]\nkind = csr-population\n" + population, encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run([*argv, "--config", str(cfg), "--out-dir", str(out)])
    _assert_contract(code, err)
    assert code == EXIT_RUNTIME
    assert err == (f"runtime failure: efficiency stage on the generated data {run_and_cell}: "
                   "need >= 30 converged fits on each side, got 30 true / 29 masked\n")
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_choices_changed_during_a_run_exit_2_and_write_nothing(tmp_path, monkeypatch, workers):
    # a fit that writes into the fixed choices breaks the fixed-y contract:
    # a run that cannot finish, in-process or in a pool worker
    import geomasksim.experiments as exp

    real_fit_rows = exp.fit_rows

    def tampering(d, y, **kw):
        if y.ndim == 1:  # the fixed choices, not an efficiency block's redrawn rows
            y[0] = not y[0]
        return real_fit_rows(d, y, **kw)

    monkeypatch.setattr(exp, "fit_rows", tampering)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # a pool on any host
    cfg = tmp_path / "run.ini"
    cfg.write_text("[experiment]\nkind = csr-population\nreplications = 10\n[population]\nn = 150\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run(["simulate", "--config", str(cfg), "--out-dir", str(out), "--workers", workers])
    _assert_contract(code, err)
    assert code == EXIT_RUNTIME
    assert err == "runtime failure: choice vector changed after baseline; fixed-y contract violated\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "case",
    ["fit-points-dir", "mask-points-dir"]
    + [f"{command}-out-{where}" for command in _RUN_COMMANDS for where in ("is-file", "under-file")],
)
def test_paths_the_system_refuses_exit_1(tmp_path, monkeypatch, case):
    # a directory given as an input file, or an output directory that is or
    # lies under a regular file, is a validation error, not a traceback; the
    # output directory is refused before any data is generated
    import geomasksim.cli as cli
    import geomasksim.experiments as exp

    def never(*args, **kw):
        raise AssertionError("data generated before the out dir was checked")

    for module, name in ((cli, "run_experiment"), (exp, "prepare_dataset"), (exp, "generate_csr_xy")):
        monkeypatch.setattr(module, name, never)
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[experiment]\nkind = csr-population\nseed = 1\nreplications = 2\n[population]\nn = 60\n[grid]\nfractions = 0.5\n",
        encoding="utf-8",
    )
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    argv = {
        "fit-points-dir": ["fit", "--points", str(tmp_path)],
        "mask-points-dir": ["mask", "--points", str(tmp_path), "--out", str(tmp_path / "m.csv"), "--theta-star", "0.1"],
        **{
            f"{command}-out-{where}": [*args, "--config", str(cfg), "--out-dir", str(out)]
            for command, args in _RUN_COMMANDS.items()
            for where, out in (("is-file", a_file), ("under-file", a_file / "out"))
        },
    }[case]
    code, err = _run(argv)
    _assert_contract(code, err)
    assert code == EXIT_VALIDATION
    assert str(a_file if "-out-" in case else tmp_path) in err


def test_an_interrupted_run_exits_130_and_writes_nothing(tmp_path, monkeypatch):
    import geomasksim.cli as cli

    def interrupted(config, workers):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_experiment", interrupted)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[experiment]\nkind = csr-population\nreplications = 2\n[population]\nn = 60\n", encoding="utf-8")
    out = tmp_path / "out"
    previous = signal.getsignal(signal.SIGINT)
    try:
        assert _run(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == (EXIT_INTERRUPTED, "interrupted\n")
        assert signal.getsignal(signal.SIGINT) == signal.SIG_IGN  # until the process exits
    finally:
        signal.signal(signal.SIGINT, previous)
    assert not out.exists()


def _workers_ignoring_sigint(pid: int) -> int:
    """How many child processes of ``pid`` ignore SIGINT (0 while one vanishes)."""
    try:
        children = [c for task in Path(f"/proc/{pid}/task").iterdir() for c in (task / "children").read_text().split()]
        masks = [re.search(r"^SigIgn:\s*(\w+)$", Path(f"/proc/{c}/status").read_text(), re.M)[1] for c in children]
    except OSError:
        return 0
    return sum(int(mask, 16) >> (signal.SIGINT - 1) & 1 for mask in masks)


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
                    reason="reads worker signal masks from /proc and needs a two-process pool")
def test_an_interrupted_pool_run_exits_130_without_hanging(tmp_path):
    # Ctrl-C at a terminal signals the whole process group: the parent, then
    # again (as `timeout -s INT` does), and each worker. The run must neither
    # hang in the pool's shutdown nor print a traceback from any process.
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[experiment]\nkind = csr-population\nseed = 3\nreplications = 640\nworkers = 2\n[population]\nn = 50000\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    # SIGINT raises KeyboardInterrupt in the run even if this process was started with it ignored
    script = (
        "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "from geomasksim.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = str(Path(geomasksim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "simulate", "--config", str(cfg), "--out-dir", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30.0
        # signal once both workers have set their own handling and taken a
        # task: a task at n = 50000 runs for about 0.4 s, so the second
        # signal comes while the parent waits for the running tasks
        while _workers_ignoring_sigint(proc.pid) < 2:
            assert proc.poll() is None and time.monotonic() < deadline, "the pool never started"
            time.sleep(0.01)
        time.sleep(0.1)
        os.killpg(proc.pid, signal.SIGINT)
        time.sleep(0.05)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=10.0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    assert "Traceback" not in err
    assert (proc.returncode, err) == (EXIT_INTERRUPTED, "interrupted\n")
    assert not out.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux forks a pool")
def test_a_run_whose_pool_worker_dies_exits_2_and_writes_nothing(tmp_path, monkeypatch):
    # a worker SIGKILLed mid-run, as the out-of-memory killer would, breaks
    # the pool; the run must report it as a runtime failure, not a traceback
    import geomasksim.experiments as exp

    parent, real_fit_rows = os.getpid(), exp.fit_rows

    def fit_rows(d, y, **kw):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_fit_rows(d, y, **kw)

    monkeypatch.setattr(exp, "fit_rows", fit_rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # a pool on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[experiment]\nkind = csr-population\nreplications = 40\nworkers = 2\n[population]\nn = 60\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    _assert_contract(code, err)
    assert code == EXIT_RUNTIME
    assert err.startswith("runtime failure: a worker process died before the run finished")
    assert "killed by SIGKILL" in err
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # every worker reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_run_too_large_to_allocate_exits_2_and_writes_nothing(tmp_path):
    # n = 2^58 passes every config check; its (n, 2) float64 coordinates
    # need 2^62 bytes, more than any 64-bit user address space holds, so
    # the allocation fails at once and touches nothing
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[experiment]\nkind = csr-population\n[population]\nn = {2**58}\n", encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    _assert_contract(code, err)
    assert code == EXIT_RUNTIME
    assert err.startswith("runtime failure: simulate ran out of memory:") and err.count("\n") == 1
    assert f"shape ({2**58}, 2)" in err
    assert not out.exists()

def test_a_run_too_large_to_address_exits_1_and_writes_nothing(tmp_path):
    # at n = 2^59 the (n, 2) float64 coordinates would take 2^64 bytes, more
    # than numpy can address: numpy refuses the shape itself (a ValueError,
    # "array is too big") before any allocation, so the run is a validation
    # error, where n = 2^58 above is an allocation failure
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[experiment]\nkind = csr-population\n[population]\nn = {2**59}\n", encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    _assert_contract(code, err)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: array is too big") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "efficiency"])
def test_replications_past_the_stream_layout_exit_1_before_any_data(tmp_path, monkeypatch, command):
    # a replication's stream index must lie below rng.MAX_INDEX = 2^28: a
    # config (simulate) or --empirical-reps (efficiency) asking for more is
    # refused before any data is generated or any task is built
    import geomasksim.experiments as exp

    def generate(*args, **kwargs):
        raise AssertionError("data generated for a refused replication count")

    monkeypatch.setattr(exp, "generate_csr_xy", generate)
    reps = 2**28 + 1
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    if command == "simulate":
        cfg.write_text(f"[experiment]\nkind = csr-population\nreplications = {reps}\n", encoding="utf-8")
        argv, message = ["simulate"], f"error: [experiment] replications: replications must lie in [1, {2**28}]"
    else:
        cfg.write_text("[experiment]\nkind = csr-population\n", encoding="utf-8")
        argv, message = ["efficiency", "--empirical-reps", str(reps)], "error: efficiency replications must be 0 or"
    code, err = _run([*argv, "--config", str(cfg), "--out-dir", str(out)])
    _assert_contract(code, err)
    assert code == EXIT_VALIDATION
    assert err.startswith(message) and f"got {reps}\n" in err
    assert not out.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps the run's address space with RLIMIT_AS")
def test_a_centroid_run_on_a_fine_grid_exits_0(tmp_path):
    # k = 50000 cuts the area into 2.5e9 cells, of which the 1000 points
    # use at most 1000: the run must build nothing of size k^2. Its address
    # space is capped at 3 GiB, so an array over all the cells fails at once
    # instead of paging.
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[experiment]\nkind = centroid\nseed = 2\nreplications = 30\n[population]\nn = 1000\n[grid]\nk = 50000\n",
        encoding="utf-8",
    )
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from geomasksim.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = str(Path(geomasksim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60.0,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert (tmp_path / "out" / "run_records.csv").exists()
