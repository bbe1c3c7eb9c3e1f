import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomasksim
from geomasksim import cli
from geomasksim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from geomasksim.config import config_hash, parse_config
from geomasksim.density import kde
from geomasksim.geometry import UNIT_SQUARE, Point, facility_distances
from geomasksim.logit import LogitParams
from geomasksim.masking import _inside
from geomasksim.population import generate_csr_xy, simulate_choices_xy
from geomasksim.reports import (
    CURVE_HEADER,
    RECORDS_HEADER,
    read_curve_csv,
    read_points_csv,
    read_records_csv,
    write_points_csv,
)
from geomasksim.rng import population_stream
from geomasksim.svgplot import render_kde_svg

TINY = """\
[experiment]
kind = csr-population
seed = 11
replications = 8

[population]
n = 120

[grid]
fractions = 0.0, 0.5, 1.0
"""


def _config_file(tmp_path, text=TINY, name="run.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(p)


def _points_file(tmp_path, n=400, seed=21, with_choices=True, name="points.csv"):
    xy = generate_csr_xy(n, population_stream(seed))
    y = simulate_choices_xy(facility_distances(xy, Point(0.0, 0.0)), LogitParams(1.0, -2.0), population_stream(seed + 1))
    path = tmp_path / name
    write_points_csv(xy, path, choices=y if with_choices else None)
    return str(path)


# --- simulate ---


def test_simulate_writes_all_outputs(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    out = tmp_path / "results"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK

    records = read_records_csv(out / "run_records.csv")
    assert len(records) == 3 * 8
    curve = read_curve_csv(out / "run_curve.csv")
    assert len(curve.rows) == 3

    baseline = json.loads((out / "run_baseline.json").read_text(encoding="utf-8"))
    assert baseline["converged"] and baseline["beta"] < 0

    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert list(manifest) == ["config_hash", "seed", "version", "started_at", "finished_at", "outputs"]
    assert manifest["config_hash"] == config_hash(parse_config(cfg))
    assert (manifest["seed"], manifest["version"]) == (11, geomasksim.__version__)
    assert manifest["started_at"] <= manifest["finished_at"]
    assert manifest["outputs"] == sorted(manifest["outputs"]) and len(manifest["outputs"]) == 6
    assert any(p.endswith("run_records.csv") for p in manifest["outputs"])

    assert (out / "run_efficiency.csv").is_file()
    assert (out / "run_attenuation.svg").read_text(encoding="utf-8").startswith("<svg")
    assert (out / "run_kde.svg").is_file()

    printed = capsys.readouterr().out
    assert "baseline:" in printed and "theta*" in printed and "wrote" in printed


def test_simulate_zero_theta_row_reproduces_baseline(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "results"
    main(["simulate", "--config", cfg, "--out-dir", str(out)])
    curve_text = (out / "run_curve.csv").read_text(encoding="utf-8").splitlines()
    first = dict(zip(curve_text[0].split(","), curve_text[1].split(",")))
    baseline = json.loads((out / "run_baseline.json").read_text(encoding="utf-8"))
    assert float(first["theta_star"]) == 0.0
    assert float(first["mean_abs_beta"]) == abs(baseline["beta"])
    assert float(first["pct_outside_true_ci"]) == 0.0
    assert float(first["el_analytic"]) == 1.0


def test_simulate_zero_theta_cell_at_full_size_exit_0(tmp_path):
    # on this seed an information ratio at theta* = 0 that sums its two sides
    # in different orders lands one ulp above 1, which the report rejects
    cfg = _config_file(
        tmp_path,
        "[experiment]\nkind = csr-population\nseed = 5\nreplications = 30\n\n"
        "[population]\nn = 1000\n\n[grid]\nfractions = 0.0, 0.5, 1.0\n",
    )
    out = tmp_path / "results"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    curve_text = (out / "run_curve.csv").read_text(encoding="utf-8").splitlines()
    first = dict(zip(curve_text[0].split(","), curve_text[1].split(",")))
    assert float(first["el_analytic"]) == 1.0


def test_simulate_deterministic_outputs(tmp_path):
    cfg = _config_file(tmp_path)
    main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "b")])
    for name in ("run_records.csv", "run_curve.csv", "run_efficiency.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_seed_override(tmp_path):
    cfg = _config_file(tmp_path)
    main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "a"), "--seed", "99"])
    manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 99
    main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "run_records.csv").read_bytes() != (tmp_path / "b" / "run_records.csv").read_bytes()


def test_simulate_fast_flag(tmp_path):
    cfg = _config_file(
        tmp_path,
        "[experiment]\nkind = csr-population\nreplications = 999999\n\n[population]\nn = 60\n\n[grid]\nfractions = 1.0\n",
    )
    out = tmp_path / "fast"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out), "--fast"]) == EXIT_OK
    records = read_records_csv(out / "run_records.csv")
    assert len(records) == 200


def test_simulate_bad_config_exit_1(tmp_path):
    cfg = _config_file(tmp_path, "[experiment]\nkind = nope\n")
    assert main(["simulate", "--config", cfg]) == EXIT_VALIDATION


def test_simulate_single_point_theta_grid_skips_the_kde_plot(tmp_path, capsys):
    # at theta* = 0 every refit is the baseline fit, so the estimates have no
    # spread for a KDE: the run completes without that plot
    cfg = _config_file(tmp_path, TINY.replace("0.0, 0.5, 1.0", "0"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    assert "note: replication estimates degenerate at the largest theta*; KDE plot skipped\n" in capsys.readouterr().out
    assert (out / "run_attenuation.svg").is_file() and not (out / "run_kde.svg").exists()


def test_simulate_batch_failure_exit_2(tmp_path, monkeypatch, capsys):
    import geomasksim.cli as cli

    message = "attenuation stage (fixed choices): cell theta*=0.5 converged on 25.0% of replications"

    def explode(config, workers):
        raise RuntimeError(message)

    monkeypatch.setattr(cli, "run_experiment", explode)
    cfg = _config_file(tmp_path)
    assert main(["simulate", "--config", cfg]) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"runtime failure: {message}\n"



SEPARATED_BASELINE = ("error: baseline fit on the generated data ({}) has no estimate: the choices are separated, "
                      "all identical or split by a distance cut: no logit MLE exists\n")


@pytest.mark.parametrize("n, seed", [(9, 9), (1, 3)])
def test_simulate_separated_baseline_exit_1(tmp_path, capsys, n, seed):
    # at n = 9 and seed 9 a distance cut splits the generated choices, and a
    # single individual has one choice: either way the baseline has no
    # estimate, and the message names the run, before any replication
    cfg = _config_file(tmp_path, f"[experiment]\nkind = csr-population\nseed = {seed}\n[population]\nn = {n}\n")
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == SEPARATED_BASELINE.format(f"csr-population, n={n}, seed={seed}")
    assert not (tmp_path / "out").exists()


N7_SEED7 = """\
[experiment]
kind = csr-population
seed = 7

[population]
n = 7
"""


@pytest.mark.parametrize("extra", [[], ["--empirical-reps", "30"]])
def test_efficiency_separated_baseline_exit_1(tmp_path, capsys, extra):
    # the baseline `simulate` rejects on this config is rejected by both
    # forms of `efficiency` too, before any replication
    cfg = _config_file(tmp_path, N7_SEED7)
    assert main(["simulate", "--fast", "--config", cfg, "--out-dir", str(tmp_path / "sim")]) == EXIT_VALIDATION
    expected = capsys.readouterr().err
    assert expected == SEPARATED_BASELINE.format("csr-population, n=7, seed=7")
    assert main(["efficiency", "--config", cfg, "--out-dir", str(tmp_path / "eff"), *extra]) == EXIT_VALIDATION
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "eff").exists()


@pytest.mark.parametrize("k", [1, 2])
def test_simulate_singular_centroid_baseline_exit_1(tmp_path, capsys, k):
    # on a 1 x 1 or 2 x 2 grid every centroid is equidistant from the default
    # facility, so the baseline cannot identify the distance slope
    text = f"[experiment]\nkind = centroid\nseed = 1\nreplications = 30\n\n[population]\nn = 200\n\n[grid]\nk = {k}\n"
    cfg = _config_file(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == (
        "error: baseline fit on the generated data (centroid, n=200, seed=1) has no estimate: "
        "the information matrix is singular, so the distance slope cannot be identified\n"
    )


def test_centroid_files_differing_only_in_keys_the_run_ignores_make_one_run(tmp_path):
    # a centroid run masks one cell at its grid's cell radius under the redraw
    # policy, so the fractions, reference radius and boundary a file gives
    # change neither its config, nor its hash, nor its outputs
    base = "[experiment]\nkind = centroid\nseed = 4\nreplications = 30\n\n[population]\nn = 300\n\n[grid]\nk = 5\n"
    files = [
        _config_file(tmp_path, base + "fractions = 0.5\nreference_radius = 0.1\n\n[mask]\nboundary = redraw\n", "a.ini"),
        _config_file(tmp_path, base + "fractions = 0.2, 0.6, 1.0\nreference_radius = 0.3\n\n[mask]\nboundary = unconstrained\n",
                     "b.ini"),
    ]
    a, b = (parse_config(f) for f in files)
    assert a == b
    assert config_hash(a) == config_hash(b)
    for name, f in zip("ab", files):
        assert main(["simulate", "--config", f, "--out-dir", str(tmp_path / name)]) == EXIT_OK
    for output in ("run_records.csv", "run_curve.csv"):
        assert (tmp_path / "a" / output).read_bytes() == (tmp_path / "b" / output).read_bytes()


# (kind, a config file, the keys its run does not read)
_UNREAD_KEYS = {
    "csr-population": ("[experiment]\nkind = csr-population\nseed = 11\nreplications = 30\n\n[population]\nn = 200\n"
                       "\n[grid]\nfractions = 0.2, 0.6, 1.0\n", "k = 7\n\n[mask]\nmax_attempts = 5\n"),
    "fixed-area-grid": ("[experiment]\nkind = fixed-area-grid\nseed = 14\nreplications = 30\n\n[population]\nn = 300\n"
                        "\n[grid]\nfractions = 0.5, 1.0\n", "k = 20\n\n[mask]\nboundary = unconstrained\nmax_attempts = 3\n"),
    "centroid": ("[experiment]\nkind = centroid\nseed = 4\nreplications = 30\n\n[population]\nn = 300\n"
                 "\n[grid]\nk = 5\n", ""),
}


@pytest.mark.parametrize("kind", sorted(_UNREAD_KEYS))
def test_values_the_run_does_not_read_change_no_output(tmp_path, monkeypatch, kind):
    # k off the centroid kind, max_attempts without redraw and a library-set
    # mask theta* leave the config, its hash and every output as they are
    base, unread = _UNREAD_KEYS[kind]
    files = [_config_file(tmp_path, base, "a.ini"), _config_file(tmp_path, base + unread, "b.ini")]
    a = parse_config(files[0])
    b = dataclasses.replace(parse_config(files[1]), mask=dataclasses.replace(a.mask, theta_star=0.3))
    assert a == b and config_hash(a) == config_hash(b)
    for name, config in zip("ab", (a, b)):
        monkeypatch.setattr(cli, "parse_config", lambda path, config=config: config)
        assert main(["simulate", "--config", files[0], "--out-dir", str(tmp_path / name)]) == EXIT_OK
    outputs = ["records.csv", "curve.csv", "baseline.json", "attenuation.svg", "kde.svg"]
    outputs += ["efficiency.csv"] if kind != "centroid" else []
    for output in outputs:
        assert (tmp_path / "a" / f"run_{output}").read_bytes() == (tmp_path / "b" / f"run_{output}").read_bytes()
    hashes = {json.loads((tmp_path / name / "run_manifest.json").read_text(encoding="utf-8"))["config_hash"]
              for name in "ab"}
    assert hashes == {config_hash(a)}


def test_simulate_outputs_identical_across_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)  # pools of 2 and 3 on any host
    cfg = _config_file(tmp_path)
    for workers in ("1", "2", "3"):
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / workers), "--workers", workers]) == EXIT_OK
    for name in ("run_records.csv", "run_curve.csv", "run_efficiency.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()


def test_manifests_carry_one_config_hash_for_any_run_options(tmp_path):
    # the worker count, out dir, prefix and plot switch move no output bit,
    # so two runs that differ in them alone carry one hash
    hashes = set()
    for workers, prefix, plots in (("1", "run", "true"), ("2", "job", "false")):
        cfg = _config_file(tmp_path, TINY + f"\n[output]\nprefix = {prefix}\nwrite_plots = {plots}\n", f"{prefix}.ini")
        out = tmp_path / f"runs #{workers}"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out), "--workers", workers]) == EXIT_OK
        hashes.add(json.loads((out / f"{prefix}_manifest.json").read_text(encoding="utf-8"))["config_hash"])
    assert hashes == {config_hash(parse_config(cfg))}


def test_wrote_lines_print_under_a_strict_utf8_stdout(tmp_path):
    # a path byte that is not UTF-8 prints as \xff, so each command exits 0
    # with its files written
    _config_file(tmp_path)
    points = _points_file(tmp_path)
    src = str(Path(geomasksim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    commands = {
        b"sim\xff/run_curve.csv": ["simulate", "--config", "run.ini", "--out-dir", b"sim\xff"],
        b"m\xff.csv": ["mask", "--points", points, "--out", b"m\xff.csv", "--theta-star", "0.1"],
        b"pl\xff/attenuation.svg": ["plot", "--curve", b"sim\xff/run_curve.csv",
                                     "--baseline", b"sim\xff/run_baseline.json", "--out-dir", b"pl\xff"],
    }
    for written, args in commands.items():
        proc = subprocess.run([sys.executable, "-m", "geomasksim.cli", *args], capture_output=True, env=env,
                              cwd=tmp_path, timeout=120, check=False)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert os.path.isfile(os.path.join(os.fsencode(tmp_path), written))
        assert b"wrote " + written.replace(b"\xff", b"\\xff") + b"\n" in proc.stdout


def test_manifest_outputs_are_the_wrote_lines_in_utf8(tmp_path, capsys):
    # an out dir byte that is not UTF-8 enters the manifest as its wrote line
    # prints it, \xff, not as a lone surrogate that strict UTF-8 rejects
    cfg = _config_file(tmp_path)
    out = tmp_path / os.fsdecode(b"o\xff")
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    wrote = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    outputs = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["outputs"]
    for text in outputs:
        text.encode("utf-8")  # strict: a lone surrogate raises
    assert outputs == sorted(wrote[:-1])  # every wrote line but the manifest's own
    assert f"{tmp_path}/o\\xff/run_records.csv" in outputs


def test_simulate_starts_one_pool_for_both_stages(tmp_path, monkeypatch):
    # the attenuation and efficiency cells are one task list, so a workers = 2
    # run forks one pool, not one per stage
    import geomasksim.experiments as exp

    pools, real_pool = [], exp._fork_pool

    def counting_pool(tasks, payload, processes):
        pools.append(processes)
        return real_pool(tasks, payload, processes)

    monkeypatch.setattr(exp, "_fork_pool", counting_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = _config_file(tmp_path)
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--workers", "2"]) == EXIT_OK
    assert (tmp_path / "out" / "run_efficiency.csv").is_file()
    assert pools == ([2] if sys.platform.startswith("linux") else [])
    _assert_no_child_left()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _modules_loaded_by_simulate(tmp_path, packages: tuple[str, ...], *args: str) -> dict:
    """Exit code of one ``simulate`` on TINY in a fresh interpreter (so that
    modules pytest has already imported do not count), and which modules of
    ``packages`` it loaded."""
    cfg = _config_file(tmp_path)
    script = textwrap.dedent(f"""
        import json, sys
        import geomasksim.cli
        code = geomasksim.cli.main(["simulate", "--config", {cfg!r}, "--out-dir", {str(tmp_path / "out")!r}, *{args!r}])
        loaded = [m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in {packages!r})]
        print(json.dumps({{"code": code, "loaded": sorted(loaded)}}))
    """)
    src = str(Path(geomasksim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_simulate_loads_no_scipy_and_no_numpy_ma(tmp_path):
    assert _modules_loaded_by_simulate(tmp_path, ("scipy", "numpy.ma")) == {"code": EXIT_OK, "loaded": []}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_loads_no_pool_stack(tmp_path, workers):
    # the process-pool stack is about a tenth of start-up, and the run's own
    # fork pool needs none of it
    loaded = _modules_loaded_by_simulate(tmp_path, ("concurrent.futures", "multiprocessing"), "--workers", workers)
    assert loaded == {"code": EXIT_OK, "loaded": []}


EXHAUSTING = """\
[experiment]
kind = fixed-area-grid
replications = 40

[population]
n = 300

[mask]
mechanism = uniform
boundary = redraw
max_attempts = 1
"""


def test_simulate_masking_exhaustion_exit_2_in_pool(tmp_path, capsys, monkeypatch):
    # the worker's masking exhaustion must reach the parent intact, the
    # same failure at every worker count, and leave no worker behind
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)  # pools of 2 and 3 on any host
    cfg = _config_file(tmp_path, EXHAUSTING)
    errors = []
    for workers in ("1", "2", "3"):
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / workers), "--workers", workers]) == EXIT_RUNTIME
        errors.append(capsys.readouterr().err)
        _assert_no_child_left()
    assert errors[0].startswith("runtime failure: masking exhausted 1 redraw attempts")
    assert errors[0] == errors[1] == errors[2]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["csr-population", "fixed-area-grid", "centroid"]),
    n=st.integers(2, 30),
    seed=st.integers(0, 2**16),
    mechanism=st.sampled_from(["uniform", "gaussian"]),
    boundary=st.sampled_from(["unconstrained", "redraw"]),
    max_attempts=st.sampled_from([1, 1000]),
    fractions=st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=2, max_size=2, unique=True).map(sorted),
)
def test_simulate_exit_code_contract(kind, n, seed, mechanism, boundary, max_attempts, fractions):
    # every input either completes or exits with its documented code, the
    # same at any worker count; completed runs write the same CSVs
    text = (
        f"[experiment]\nkind = {kind}\nseed = {seed}\nreplications = 30\n\n[population]\nn = {n}\n\n"
        f"[mask]\nmechanism = {mechanism}\nboundary = {boundary}\nmax_attempts = {max_attempts}\n\n"
        f"[grid]\nfractions = {fractions[0]}, {fractions[1]}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = _config_file(tmp, text)
        codes = [
            main(["simulate", "--config", cfg, "--out-dir", str(tmp / workers), "--workers", workers])
            for workers in ("1", "2")
        ]
        assert codes[0] == codes[1] and codes[0] in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME)
        if codes[0] != EXIT_OK:
            return
        cells = 1 if kind == "centroid" else 2
        assert len(read_records_csv(tmp / "1" / "run_records.csv")) == cells * 30
        assert len(read_curve_csv(tmp / "1" / "run_curve.csv").rows) == cells
        names = ["run_records.csv", "run_curve.csv"] + ([] if kind == "centroid" else ["run_efficiency.csv"])
        for name in names:
            assert (tmp / "1" / name).read_bytes() == (tmp / "2" / name).read_bytes()

# --- mask ---


def test_mask_zero_theta_identity(tmp_path):
    src = _points_file(tmp_path)
    out = tmp_path / "masked.csv"
    assert main(["mask", "--points", src, "--out", str(out), "--theta-star", "0"]) == EXIT_OK
    ids0, xy0, c0 = read_points_csv(src)
    ids1, xy1, c1 = read_points_csv(out)
    np.testing.assert_array_equal(ids0, ids1)
    np.testing.assert_array_equal(xy0, xy1)
    np.testing.assert_array_equal(c0, c1)


def test_mask_displaces_within_theta(tmp_path):
    src = _points_file(tmp_path, with_choices=False)
    out = tmp_path / "masked.csv"
    assert main(["mask", "--points", src, "--out", str(out), "--theta-star", "0.2", "--seed", "5"]) == EXIT_OK
    _, xy0, _ = read_points_csv(src)
    _, xy1, c1 = read_points_csv(out)
    assert c1 is None
    disp = np.hypot(*(xy1 - xy0).T)
    assert disp.max() <= 0.2 + 1e-12 and disp.mean() > 0.0


def test_mask_redraw_requires_area(tmp_path, capsys):
    src = _points_file(tmp_path)
    out = tmp_path / "masked.csv"
    rc = main(["mask", "--points", src, "--out", str(out), "--theta-star", "0.3", "--boundary", "redraw"])
    assert rc == EXIT_VALIDATION
    assert "--area" in capsys.readouterr().err


def test_mask_redraw_with_area(tmp_path):
    src = _points_file(tmp_path)
    out = tmp_path / "masked.csv"
    rc = main(
        ["mask", "--points", src, "--out", str(out), "--theta-star", "0.4",
         "--boundary", "redraw", "--area", "-0.5", "0.5", "-0.5", "0.5"]
    )
    assert rc == EXIT_OK
    _, xy1, _ = read_points_csv(out)
    assert _inside(xy1[:, 0], xy1[:, 1], np.asarray(UNIT_SQUARE.bounds)).all()


def test_mask_redraw_point_outside_area_exit_1(tmp_path, capsys):
    # points of the unit square masked inside its upper-right quadrant: the
    # ones that start outside are named in one error line
    src = _points_file(tmp_path)
    rc = main(["mask", "--points", src, "--out", str(tmp_path / "m.csv"), "--theta-star", "0.1",
               "--boundary", "redraw", "--area", "0", "0.5", "0", "0.5"])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: redraw policy requires points inside their bounds; offending index(es) [")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "m.csv").exists()


def test_mask_bad_area_string(tmp_path):
    src = _points_file(tmp_path)
    rc = main(["mask", "--points", src, "--out", str(tmp_path / "m.csv"), "--theta-star", "0.1",
               "--boundary", "redraw", "--area", "tiny"])
    assert rc == EXIT_VALIDATION


def test_mask_infinite_area_exit_1(tmp_path, capsys):
    # every point lies inside [0, inf) x [0, 1], but a study area must be finite
    src = tmp_path / "points.csv"
    write_points_csv(np.random.default_rng(3).uniform(0.2, 0.8, (50, 2)), src)
    out = tmp_path / "m.csv"
    rc = main(["mask", "--points", str(src), "--out", str(out), "--theta-star", "0.1",
               "--boundary", "redraw", "--area", "0", "inf", "0", "1"])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: bounds must be finite") and err.count("\n") == 1
    assert not out.exists()


# --- fit ---


def test_fit_recovers_parameters(tmp_path, capsys):
    src = _points_file(tmp_path, n=3_000, seed=31)
    assert main(["fit", "--points", src]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "converged=true" in printed
    beta = float(next(line for line in printed.splitlines() if line.startswith("beta=")).split()[0].split("=")[1])
    assert -3.0 < beta < -1.0


def test_fit_requires_choice_column(tmp_path, capsys):
    src = _points_file(tmp_path, with_choices=False)
    assert main(["fit", "--points", src]) == EXIT_VALIDATION
    assert "choice" in capsys.readouterr().err


def test_fit_separation_exit_1(tmp_path, capsys):
    xy = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
    path = tmp_path / "sep.csv"
    write_points_csv(xy, path, choices=np.array([1, 1, 1]))
    assert main(["fit", "--points", str(path)]) == EXIT_VALIDATION
    assert "identical" in capsys.readouterr().err


def test_fit_singular_information_exit_1(tmp_path, capsys):
    # every point at distance 1 from the facility, mixed choices: the
    # intercept and distance columns are collinear, so the slope is not
    # identified and the information matrix is singular
    xy = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    path = tmp_path / "singular.csv"
    write_points_csv(xy, path, choices=np.array([0, 1, 1]))
    assert main(["fit", "--points", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "cannot be identified" in err and "singular" in err


@pytest.mark.parametrize(
    "scale, reason",
    [(1e200, "overflows"), (9e153, "singular"), (1e-154, "singular"), (1e-160, "singular"), (1e-200, "singular")],
)
def test_fit_extreme_coordinates_exit_1_without_warning(tmp_path, capsys, scale, reason):
    # at 1e200 the squared offsets overflow, so a distance is inf and the
    # file is refused; at 9e153 the distances are finite but the information
    # sums overflow, and at 1e-200 the squares underflow to 0, so every
    # distance is 0: both leave a singular information matrix. At 1e-160 the
    # determinant is subnormal and at 1e-154 it is normal but too small for
    # finite standard errors: both are singular too. None may warn.
    path = tmp_path / "extreme.csv"
    xy = np.random.default_rng(5).uniform(-1.0, 1.0, (20, 2)) * scale
    write_points_csv(xy, path, choices=np.arange(20) % 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--points", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err


@pytest.mark.parametrize("command", ["fit", "mask"])
def test_nonfinite_point_file_exit_1(tmp_path, capsys, command):
    path = tmp_path / "nonfinite.csv"
    path.write_text("id,x,y,choice\n0,1,0,0\n1,nan,1,1\n2,-1,0,1\n", encoding="utf-8")
    out = tmp_path / "masked.csv"
    args = {"fit": ["fit", "--points", str(path)],
            "mask": ["mask", "--points", str(path), "--out", str(out), "--theta-star", "0.1"]}[command]
    assert main(args) == EXIT_VALIDATION
    assert f"{path}:3: coordinates must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_fit_nonconverged_exit_2(tmp_path, capsys):
    # the choices overlap, so the MLE exists, but over distances 3e-5 apart
    # its slope lies past the divergence bound: the estimate runs away
    xy = np.array([[0.5, 0.0], [0.50001, 0.0], [0.50002, 0.0], [0.50003, 0.0]])
    path = tmp_path / "steep.csv"
    write_points_csv(xy, path, choices=np.array([1, 0, 1, 0]))
    assert main(["fit", "--points", str(path)]) == EXIT_RUNTIME
    assert "converge" in capsys.readouterr().err


# --- efficiency ---


def test_efficiency_analytic_only(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    out = tmp_path / "eff"
    assert main(["efficiency", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    lines = (out / "run_efficiency.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[3]) == 1.0
    assert first[4] == ""  # no empirical column without --empirical-reps
    assert "el_analytic" not in lines[1]


@pytest.mark.parametrize("extra", [[], ["--empirical-reps", "30"]])
@pytest.mark.parametrize("mechanism, el", [("uniform", "0.500753"), ("gaussian", "0.606251")])
def test_efficiency_el_analytic_follows_the_mask_mechanism(tmp_path, capsys, extra, mechanism, el):
    # at n = 1000, seed 0 and theta* = 0.707 the gaussian moment 2 sigma^2
    # gives 0.6063; the uniform moment theta*^2/3, once used for every
    # mechanism, gives 0.5008
    cfg = _config_file(
        tmp_path,
        "[experiment]\nkind = csr-population\nseed = 0\n[population]\nn = 1000\n[grid]\nfractions = 1.0\n"
        f"[mask]\nmechanism = {mechanism}\n",
    )
    assert main(["efficiency", "--config", cfg, "--out-dir", str(tmp_path / "eff"), *extra]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[0] == "0.7070" and row[3] == el


def test_efficiency_with_empirical(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "eff"
    assert main(["efficiency", "--config", cfg, "--out-dir", str(out), "--empirical-reps", "40"]) == EXIT_OK
    lines = (out / "run_efficiency.csv").read_text(encoding="utf-8").splitlines()
    assert all(line.split(",")[4] != "" for line in lines[1:])



def test_efficiency_cell_convergence_exit_2(tmp_path, monkeypatch, capsys):
    import geomasksim.experiments as exp
    from geomasksim.logit import SINGULAR

    real_fit_rows = exp.fit_rows

    def always_singular(d, y, **kw):
        fits = real_fit_rows(d, y, **kw)
        fits.status[:] = SINGULAR
        return fits

    monkeypatch.setattr(exp, "fit_rows", always_singular)
    cfg = _config_file(tmp_path)
    rc = main(["efficiency", "--config", cfg, "--out-dir", str(tmp_path / "eff"), "--empirical-reps", "30"])
    assert rc == EXIT_RUNTIME
    assert "true-coordinate cell converged on 0.0%" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--empirical-reps", "30"]])
def test_efficiency_rejects_centroid_kind_exit_1(tmp_path, monkeypatch, capsys, extra):
    # simulate writes no efficiency table for a centroid run, so neither form
    # of `efficiency` prints one; the kind is rejected before any data is made
    import geomasksim.experiments as exp

    def generate(*args, **kwargs):
        raise AssertionError("data generated for a rejected kind")

    monkeypatch.setattr(exp, "generate_csr_xy", generate)
    cfg = _config_file(tmp_path, "[experiment]\nkind = centroid\nseed = 1\n[population]\nn = 500\n[grid]\nk = 5\n")
    assert main(["efficiency", "--config", cfg, "--out-dir", str(tmp_path / "eff"), *extra]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: efficiency does not run the centroid kind; simulate writes no efficiency table for it\n"
    assert captured.out == ""
    assert not (tmp_path / "eff").exists()


# --- plot ---


def test_plot_from_simulate_outputs(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "results"
    main(["simulate", "--config", cfg, "--out-dir", str(out)])
    plot_dir = tmp_path / "plots"
    rc = main(
        ["plot", "--curve", str(out / "run_curve.csv"), "--records", str(out / "run_records.csv"),
         "--baseline", str(out / "run_baseline.json"), "--out-dir", str(plot_dir)]
    )
    assert rc == EXIT_OK
    svg = (plot_dir / "attenuation.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg") and "polyline" in svg
    assert (plot_dir / "kde.svg").is_file()


def test_plot_unknown_theta_exit_1(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    out = tmp_path / "results"
    main(["simulate", "--config", cfg, "--out-dir", str(out)])
    rc = main(
        ["plot", "--records", str(out / "run_records.csv"), "--baseline", str(out / "run_baseline.json"),
         "--theta-star", "0.123", "--out-dir", str(tmp_path / "p")]
    )
    assert rc == EXIT_VALIDATION
    assert "0.123" in capsys.readouterr().err


def test_plot_theta_star_draws_that_cells_kde(tmp_path):
    # --theta-star picks its cell within 1e-12: the plot is the KDE of that
    # cell's converged estimates, not of the largest theta*'s
    cfg = _config_file(tmp_path, TINY.replace("0.0, 0.5, 1.0", "0.5, 1.0"))
    out = tmp_path / "results"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    records = read_records_csv(out / "run_records.csv")
    first = records[0].theta_star
    baseline = json.loads((out / "run_baseline.json").read_text(encoding="utf-8"))
    argv = ["plot", "--records", str(out / "run_records.csv"), "--baseline", str(out / "run_baseline.json")]
    assert main([*argv, "--theta-star", repr(first + 5e-13), "--out-dir", str(tmp_path / "first")]) == EXIT_OK
    assert main([*argv, "--out-dir", str(tmp_path / "largest")]) == EXIT_OK
    betas = np.array([r.beta_hat for r in records if r.converged and r.theta_star == first])
    expected = render_kde_svg(kde(betas), baseline["beta"], tuple(baseline["ci_beta"]))
    svg = (tmp_path / "first" / "kde.svg").read_text(encoding="utf-8")
    assert svg == expected
    assert svg != (tmp_path / "largest" / "kde.svg").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "baseline, inputs, message",
    [
        ('{"alpha": 1}', ["--curve"], 'numeric "beta"'),
        ("[1, 2]", ["--curve"], 'numeric "beta"'),
        ('{"beta": "-2"}', ["--curve"], 'numeric "beta"'),
        ('{"beta": -2.0}', ["--records"], '"ci_beta"'),
        ('{"beta": -2.0, "ci_beta": [-2.5]}', ["--curve", "--records"], '"ci_beta"'),
        ("not json", ["--curve"], "error:"),
        ('{"beta": NaN}', ["--curve"], 'numeric "beta"'),
        ('{"beta": -Infinity}', ["--curve"], 'numeric "beta"'),
        ('{"beta": -1e400}', ["--curve"], 'numeric "beta"'),
        ('{"beta": -1' + "0" * 400 + "}", ["--curve"], 'numeric "beta"'),
        ('{"beta": true}', ["--curve"], 'numeric "beta"'),
        ('{"beta": -2.0, "ci_beta": [-Infinity, 0]}', ["--records"], '"ci_beta"'),
    ],
)
def test_plot_bad_baseline_exit_1(tmp_path, capsys, baseline, inputs, message):
    cfg = _config_file(tmp_path)
    out = tmp_path / "results"
    main(["simulate", "--config", cfg, "--out-dir", str(out)])
    capsys.readouterr()
    bad = tmp_path / "baseline.json"
    bad.write_text(baseline, encoding="utf-8")
    files = {"--curve": out / "run_curve.csv", "--records": out / "run_records.csv"}
    argv = ["plot", "--baseline", str(bad), "--out-dir", str(tmp_path / "p")]
    for flag in inputs:
        argv += [flag, str(files[flag])]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_plot_curve_needs_only_beta(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "results"
    main(["simulate", "--config", cfg, "--out-dir", str(out)])
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"beta": -2.0}', encoding="utf-8")
    rc = main(["plot", "--curve", str(out / "run_curve.csv"), "--baseline", str(baseline), "--out-dir", str(tmp_path / "p")])
    assert rc == EXIT_OK
    assert (tmp_path / "p" / "attenuation.svg").is_file()


@pytest.mark.parametrize("name", ["run_curve.csv", "run_records.csv"])
def test_plot_short_csv_row_exit_1(tmp_path, capsys, name):
    cfg = _config_file(tmp_path)
    out = tmp_path / "results"
    main(["simulate", "--config", cfg, "--out-dir", str(out)])
    capsys.readouterr()
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flag = "--curve" if name == "run_curve.csv" else "--records"
    rc = main(["plot", flag, str(path), "--baseline", str(out / "run_baseline.json"), "--out-dir", str(tmp_path / "p")])
    assert rc == EXIT_VALIDATION
    assert f"{path}:2: expected" in capsys.readouterr().err


@pytest.mark.parametrize("thetas", [["1e17"], ["1e16", "10000000000000002"]])
def test_plot_range_below_float_resolution_exit_1(tmp_path, capsys, thetas):
    # a range a few ulps wide leaves no room for distinct ticks: one row at
    # 1e17 pads to a zero-width axis, and two rows an ulp apart once gave a
    # tick step that adding to a tick left unchanged
    curve = tmp_path / "curve.csv"
    rows = [",".join(CURVE_HEADER)] + [f"{t},1.0,0.1,1.0,1.0,1.0,," for t in thetas]
    curve.write_text("\n".join(rows) + "\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"beta": -2.0}', encoding="utf-8")
    rc = main(["plot", "--curve", str(curve), "--baseline", str(baseline), "--out-dir", str(tmp_path / "p")])
    assert rc == EXIT_VALIDATION
    assert re.fullmatch(r"error: plot range \[.*\] is not finite or too narrow for its magnitude\n", capsys.readouterr().err)


def _plot_files(tmp_path, baseline, curve_rows=None, record_rows=None) -> list[str]:
    """``plot`` arguments for a baseline JSON text and curve and records
    CSVs of the given data rows (None leaves that input out)."""
    path = tmp_path / "baseline.json"
    path.write_text(baseline, encoding="utf-8")
    argv = ["plot", "--baseline", str(path), "--out-dir", str(tmp_path / "p")]
    for flag, header, rows in (("--curve", CURVE_HEADER, curve_rows), ("--records", RECORDS_HEADER, record_rows)):
        if rows is not None:
            path = tmp_path / f"{flag[2:]}.csv"
            path.write_text("\n".join([",".join(header), *rows]) + "\n", encoding="utf-8")
            argv += [flag, str(path)]
    return argv


_VARYING_RECORDS = [f"0.5,{i},1.0,{-2.0 + 0.1 * i},0.3,true,5,true,false" for i in range(5)]


def test_plot_empty_curve_exit_1(tmp_path, capsys):
    assert main(_plot_files(tmp_path, '{"beta": -2.0}', curve_rows=[])) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {tmp_path / 'curve.csv'} has no curve rows\n"


def test_plot_baseline_outside_its_interval_exit_1(tmp_path, capsys):
    argv = _plot_files(tmp_path, '{"beta": -2.0, "ci_beta": [-1.5, -1.0]}', record_rows=_VARYING_RECORDS)
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: baseline -2.0 outside its own interval (-1.5, -1.0)\n"


def test_plot_records_flag_not_true_or_false_exit_1(tmp_path, capsys):
    rows = list(_VARYING_RECORDS)
    rows[1] = rows[1].replace("true", "yes", 1)  # the converged column of line 3
    argv = _plot_files(tmp_path, '{"beta": -2.0, "ci_beta": [-2.5, -1.5]}', record_rows=rows)
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {tmp_path / 'records.csv'}:3: expected true/false, got 'yes'\n"


def test_plot_requires_some_input(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "results"
    main(["simulate", "--config", cfg, "--out-dir", str(out)])
    assert main(["plot", "--baseline", str(out / "run_baseline.json")]) == EXIT_VALIDATION


# --- argument handling ---


def test_unknown_flag_exit_1(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    assert main(["simulate", "--config", cfg, "--turbo"]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exit_1():
    assert main(["simulate"]) == EXIT_VALIDATION


def test_unknown_subcommand_exit_1():
    assert main(["transmogrify"]) == EXIT_VALIDATION


def test_missing_config_file_exit_1():
    assert main(["simulate", "--config", "/no/such/file.ini"]) == EXIT_VALIDATION
