import dataclasses
import math
import os
import re
import signal
import sys
import time

import numpy as np
# imported here, not lazily by the first np.testing call: its first import reads
# sysconfig, which fails while a test has sys.platform patched to another OS
import numpy.testing
import pytest

from geomasksim.experiments import (
    CSR_REFERENCE_RADIUS,
    DEFAULT_REPLICATIONS,
    DEFAULT_THETA_GRID,
    FAST_REPLICATIONS,
    FIXED_AREA_REFERENCE_RADIUS,
    RECORD_COLUMNS,
    AttenuationCurve,
    CurveRow,
    ExperimentConfig,
    _add_flags,
    build_curve,
    prepare_dataset,
    run_efficiency_experiment,
    run_experiment,
)
from geomasksim.efficiency import efficiency_report
from geomasksim.geometry import UNIT_SQUARE, Point, facility_distances
from geomasksim.logit import Z_95, fit_distance_choice, wald_ci
from geomasksim.masking import MECHANISMS, MaskSpec
from geomasksim.population import MunicipalityGrid, assign_to_centroid, build_municipality_grid
from geomasksim.rng import GeneratorPool

from mask_oracle import BOUNDS_KINDS, bounds_for, mask_one


def _assert_same_replications(a, b):
    assert a.theta_stars == b.theta_stars
    for name in RECORD_COLUMNS:
        np.testing.assert_array_equal(a.columns[name], b.columns[name], err_msg=name)
        assert a.columns[name].dtype == b.columns[name].dtype


def _config(**kw):
    base = dict(
        experiment="csr-population",
        n=300,
        replications=24,
        theta_grid=(0.0, 0.5, 1.0),
        reference_radius=0.707,
        seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# --- configuration ---


def test_reference_constants():
    assert CSR_REFERENCE_RADIUS == 0.707
    assert FIXED_AREA_REFERENCE_RADIUS == pytest.approx(math.sqrt(1.0 / math.pi), abs=1e-15)
    assert DEFAULT_THETA_GRID == tuple(round(i / 10, 1) for i in range(1, 11))
    assert DEFAULT_REPLICATIONS == 1000 and FAST_REPLICATIONS == 200


def test_theta_values_scaling():
    cfg = _config(theta_grid=(0.1, 0.5, 1.0), reference_radius=0.707)
    np.testing.assert_allclose(cfg.theta_values(), [0.0707, 0.3535, 0.707], atol=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(experiment="bus-stop")
    with pytest.raises(ValueError):
        _config(n=0)
    with pytest.raises(ValueError):
        _config(replications=0)
    with pytest.raises(ValueError):
        _config(grid_k=0)
    with pytest.raises(ValueError):
        _config(theta_grid=())
    with pytest.raises(ValueError):
        _config(theta_grid=(0.1, 1.5))
    with pytest.raises(ValueError):
        _config(theta_grid=(0.5, 0.1))
    with pytest.raises(ValueError):
        _config(theta_grid=(0.1, 0.1))
    with pytest.raises(ValueError):
        _config(reference_radius=0.0)
    with pytest.raises(ValueError):
        _config(seed=2**64)


def test_facility_defaults_to_center():
    assert _config().facility == Point(0.0, 0.0)
    cfg = _config(facility=Point(0.2, 0.1))
    assert cfg.facility == Point(0.2, 0.1)


# --- dataset and baseline ---


def test_prepare_dataset_deterministic():
    a_xy, _, a_y = prepare_dataset(_config())
    b_xy, _, b_y = prepare_dataset(_config())
    np.testing.assert_array_equal(a_xy, b_xy)
    np.testing.assert_array_equal(a_y, b_y)
    _, _, c_y = prepare_dataset(_config(seed=8))
    assert not np.array_equal(a_y, c_y)


def test_fixed_task_checks_its_choices_exactly():
    # a fixed task compares the choices it fits with the run's private copy,
    # so a flip and a fractional write each stop it, and an equal copy runs
    import geomasksim.experiments as exp

    xy, _, y = prepare_dataset(_config(n=60))
    task = (0, 0.1, 0, 2, True)
    # the bool choices as _run_cells keeps them, and float ones as a caller may pass them
    for choices, writes in ((y, [not y[0]]), (y.astype(np.float64), [1.0 - y[0], np.trunc(y[0]) + 0.5])):
        payload = {
            "xy": xy, "facility": Point(0.0, 0.0), "bounds": None, "seed": 7, "y": choices.copy(),
            "y_copy": choices.copy(), "prob": None, "base_spec": MaskSpec(), "generators": GeneratorPool(),
        }
        assert exp._replicate_block(task, payload)["converged"].shape == (2,)
        for written in writes:
            payload["y"] = choices.copy()
            payload["y"][0] = written
            with pytest.raises(RuntimeError, match="fixed-y contract violated"):
                exp._replicate_block(task, payload)


def test_run_baseline_consistent_with_generator():
    cfg = _config(n=2_000, seed=3)
    _, d, y = prepare_dataset(cfg)
    fit = fit_distance_choice(d, y)
    assert fit.converged
    assert abs(fit.params.beta - (-2.0)) <= 3.0 * fit.std_errors[1]


def test_run_baseline_centroid_uses_assigned_coordinates():
    cfg = _config(experiment="centroid", grid_k=10)
    via_runner = run_experiment(cfg).baseline
    xy, _, y = prepare_dataset(cfg)
    centroids, _ = assign_to_centroid(xy, build_municipality_grid(10))
    assert via_runner.params == fit_distance_choice(facility_distances(centroids, cfg.facility), y).params


# --- replication records ---


def test_zero_theta_cell_reproduces_baseline_exactly():
    cfg = _config(theta_grid=(0.0, 1.0), replications=12)
    res = run_experiment(cfg)
    assert res.theta_stars[0] == 0.0
    zero_cell = {name: res.columns[name][0] for name in RECORD_COLUMNS}
    assert zero_cell["beta_hat"].size == 12
    assert (zero_cell["beta_hat"] == res.baseline.params.beta).all()
    assert (zero_cell["alpha_hat"] == res.baseline.params.alpha).all()
    assert zero_cell["converged"].all() and not zero_cell["outside_true_ci"].any()
    assert res.curve.rows[0].mean_abs_beta == abs(res.baseline.params.beta)
    assert res.curve.rows[0].sd_beta == 0.0
    assert res.curve.rows[0].pct_outside_true_ci == 0.0


def test_records_cover_every_cell_and_rep_sorted(tmp_path):
    from geomasksim.reports import read_records_csv, write_records_csv

    cfg = _config(replications=10)
    res = run_experiment(cfg)
    assert res.theta_stars == cfg.theta_values()
    assert all(res.columns[name].shape == (3, 10) for name in RECORD_COLUMNS)
    back = read_records_csv(write_records_csv(res.theta_stars, res.columns, tmp_path / "r.csv"))
    got = [(r.theta_star, r.rep) for r in back]
    want = [(t, rep) for t in cfg.theta_values() for rep in range(10)]
    assert got == want


def test_records_bytes_independent_of_block_size(monkeypatch, tmp_path):
    import geomasksim.experiments as exp
    from geomasksim.reports import write_efficiency_csv, write_records_csv

    configs = {
        "uniform": _config(n=150, replications=70),
        "gaussian-redraw": _config(
            experiment="fixed-area-grid", n=150, replications=70,
            mask=MaskSpec(mechanism="gaussian", boundary="redraw"),
        ),
        # per-point bounds: each individual redraws inside its own cell
        "centroid": _config(experiment="centroid", n=150, replications=70, grid_k=3),
    }
    for name, cfg in configs.items():
        outputs, efficiency = set(), set()
        for block in (1, 64):
            monkeypatch.setattr(exp, "_REP_BLOCK", block)
            # rows per fit_rows call: 1, 3, and every replication of the block
            for row_elements in (1, 3 * cfg.n, cfg.n * cfg.replications):
                monkeypatch.setattr(exp, "_ROW_ELEMENTS", row_elements)
                for workers in (1, 2):
                    res = run_experiment(cfg, workers=workers)
                    path = tmp_path / f"records_{name}_b{block}_r{row_elements}_w{workers}.csv"
                    outputs.add(write_records_csv(res.theta_stars, res.columns, path).read_bytes())
                    if res.efficiency is not None:  # the centroid kind has none
                        path = path.with_name(f"efficiency_{path.name}")
                        efficiency.add(write_efficiency_csv(res.efficiency.reports, path).read_bytes())
        assert len(outputs) == 1, name
        assert len(efficiency) == (0 if cfg.experiment == "centroid" else 1), name


def test_records_bytes_independent_of_mask_block_size(monkeypatch, tmp_path):
    # the first mask attempt works in column blocks of masking._BLOCK points;
    # small odd blocks, which cut every (rows, n) chunk into many short
    # strided runs, give the same records bytes
    import geomasksim.masking as masking
    from geomasksim.reports import write_records_csv

    configs = {
        "centroid": _config(experiment="centroid", n=150, replications=40, grid_k=3),
        "gaussian-redraw": _config(
            experiment="fixed-area-grid", n=150, replications=40, mask=MaskSpec(mechanism="gaussian", boundary="redraw"),
        ),
    }
    for name, cfg in configs.items():
        outputs = set()
        for block in (masking._BLOCK, 7, 1):
            monkeypatch.setattr(masking, "_BLOCK", block)
            res = run_experiment(cfg)
            outputs.add(write_records_csv(res.theta_stars, res.columns, tmp_path / f"{name}_{block}.csv").read_bytes())
        assert len(outputs) == 1, name


def test_centroid_run_memory_does_not_hold_float_bounds_per_point():
    # at n = 100,000 the replications hold the (n, 2) centroids (16 B a
    # point), the bool choices and their private copy (2 B), the (2, n)
    # one-byte cell index (2 B), one row's mask block (16 B) and its masked
    # distances (8 B): about 44 B a point. Float64 choices and the
    # centroids' distances kept through the replications took it to 5.9 MB;
    # (4, n) float cell bounds, an int64 copy of the choices and full-row
    # mask temporaries, past 10 MB
    import tracemalloc

    cfg = _config(experiment="centroid", n=100_000, replications=2, grid_k=10)
    tracemalloc.start()
    try:
        res = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.columns["converged"].all()
    assert peak < 5_100_000


def _harness_rows(monkeypatch, cell, xy, bounds, spec, reps, **choices):
    """The (d, y) rows ``_run_cells`` hands to ``fit_rows`` for one cell, stacked."""
    import geomasksim.experiments as exp

    real_fit_rows = exp.fit_rows
    seen = []

    def capture(d, y, **kw):
        seen.append(np.broadcast_arrays(np.atleast_2d(d), np.atleast_2d(y)))
        return real_fit_rows(d, y, **kw)

    monkeypatch.setattr(exp, "fit_rows", capture)
    exp._run_cells([([cell], reps, "y" in choices)], xy, Point(0.0, 0.0), bounds, spec, 41, 1, **choices)
    return np.concatenate([d for d, _ in seen]), np.concatenate([y for _, y in seen])


@pytest.mark.parametrize("rows", [1, 3, 16])
@pytest.mark.parametrize("regenerated", [False, True], ids=["fixed-choices", "choices-first"])
@pytest.mark.parametrize("bounds_kind", BOUNDS_KINDS)
@pytest.mark.parametrize("mechanism", ["uniform", "gaussian"])
def test_masked_distances_match_per_replication_oracle(monkeypatch, mechanism, bounds_kind, regenerated, rows):
    # d~ of every replication, chunked by `rows`, is the bits of that
    # replication masked alone by the per-replication oracle, after its
    # regenerated choices when the cell draws them first
    import geomasksim.experiments as exp
    from scipy.special import expit

    from geomasksim.geometry import facility_distances
    from geomasksim.rng import derive_stream, efficiency_masked_stream

    n, reps, cell = 200, 20, (2, 0.14 if bounds_kind == "per-point" else 0.6)
    xy = np.random.default_rng(40).uniform(-0.5, 0.5, size=(n, 2))
    bounds = bounds_for(bounds_kind, xy)
    spec = MaskSpec(mechanism, 0.0, "unconstrained" if bounds is None else "redraw")
    prob = expit(1.0 - 2.0 * facility_distances(xy, Point(0.0, 0.0)))
    y = (np.random.default_rng(42).random(n) < prob).astype(np.float64)

    monkeypatch.setattr(exp, "_ROW_ELEMENTS", rows * n)
    choices = {"prob": prob} if regenerated else {"y": y}
    D, Y = _harness_rows(monkeypatch, cell, xy, bounds, spec, reps, **choices)

    masked_spec = dataclasses.replace(spec, theta_star=cell[1])
    for rep in range(reps):
        gen = (efficiency_masked_stream if regenerated else derive_stream)(41, cell[0], rep).generator()
        y_rep = (gen.uniform(0.0, 1.0, n) < prob).astype(np.float64) if regenerated else y
        d_rep = facility_distances(mask_one(xy, masked_spec, bounds, gen), Point(0.0, 0.0))
        np.testing.assert_array_equal(D[rep], d_rep)
        np.testing.assert_array_equal(Y[rep], y_rep)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_cells_checks_start_points_once_before_any_block(monkeypatch, workers):
    # the start points are checked once per run, in the parent, before any
    # replication block or worker pool starts; the kernel does not re-check
    import geomasksim.experiments as exp

    xy = np.random.default_rng(43).uniform(-0.5, 0.5, size=(60, 2))
    bounds = bounds_for("per-point", xy)
    y = (np.random.default_rng(44).random(60) < 0.5).astype(np.float64)
    spec = MaskSpec("uniform", 0.0, "redraw")
    calls = {"checked_bounds": 0, "_replicate_block": 0, "_fork_pool": 0}

    def count(name, fn):
        def counted(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return counted

    for name in calls:
        monkeypatch.setattr(exp, name, count(name, getattr(exp, name)))
    monkeypatch.setattr(exp, "_ROW_ELEMENTS", 60)  # one row per chunk: 8 kernel calls per run
    # a pool at workers = 2 on any host
    monkeypatch.setattr(exp.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    outside = xy.copy()
    outside[17] = [0.6, 0.0]
    with pytest.raises(ValueError, match=re.escape("requires points inside their bounds; offending index(es) [17]")):
        exp._run_cells([([(0, 0.1)], 8, True)], outside, Point(0.0, 0.0), bounds, spec, 41, workers, y=y)
    assert calls == {"checked_bounds": 1, "_replicate_block": 0, "_fork_pool": 0}

    kernel_calls = []
    monkeypatch.setattr(exp, "mask_coordinates", lambda *args: kernel_calls.append(1) or exp.mask_rows(*args))
    exp._run_cells([([(0, 0.1), (1, 0.2)], 8, True)], xy, Point(0.0, 0.0), bounds, spec, 41, workers, y=y)
    assert calls["checked_bounds"] == 2
    assert calls["_fork_pool"] == (workers > 1 and sys.platform.startswith("linux"))
    if workers == 1:  # a forked worker counts its calls in its own copy of `calls`
        assert calls["_replicate_block"] == 2 and len(kernel_calls) == 16


def _in_process_pool(sizes):
    """A stand-in for ``_fork_pool`` that records its size and starts no process."""
    import geomasksim.experiments as exp

    def pool(tasks, payload, processes):
        sizes.append(processes)
        return [exp._replicate_block(task, payload) for task in tasks]

    return pool


@pytest.mark.parametrize(
    "workers, cpus, cells, processes",
    [(5000, 8, 2, 2), (5000, 3, 5, 3), (2, 8, 5, 2), (4, 8, 1, 1), (2, 1, 5, 1)],
)
def test_run_cells_starts_at_most_one_process_per_task_and_cpu(monkeypatch, workers, cpus, cells, processes):
    # `workers` is only an upper bound; a stand-in pool records its size.
    # `cpus` is the affinity mask's size, which bounds the pool where the
    # host has more CPUs than the process may use (`taskset -c 0` gives 1).
    import geomasksim.experiments as exp

    sizes = []
    monkeypatch.setattr(exp, "_fork_pool", _in_process_pool(sizes))
    monkeypatch.setattr(exp.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(exp.os, "cpu_count", lambda: 64)
    xy = np.random.default_rng(45).uniform(-0.5, 0.5, size=(40, 2))
    y = (np.random.default_rng(46).random(40) < 0.5).astype(np.float64)
    run = [[([(i, 0.1 * i) for i in range(cells)], 5, True)], xy, Point(0.0, 0.0), None, MaskSpec(), 41]  # a task a cell
    (fits,) = exp._run_cells(*run, workers, y=y)
    assert sizes == ([processes] if processes > 1 else [])
    (in_process,) = exp._run_cells(*run, 1, y=y)
    for name, column in in_process.items():
        np.testing.assert_array_equal(fits[name], column, err_msg=name)


@pytest.mark.parametrize("platform", ["darwin", "win32"])
def test_run_cells_starts_no_pool_off_linux(monkeypatch, platform):
    import geomasksim.experiments as exp

    sizes = []
    monkeypatch.setattr(exp, "_fork_pool", _in_process_pool(sizes))
    monkeypatch.setattr(exp.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(exp.sys, "platform", platform)
    cfg = _config(n=60, replications=70)
    _assert_same_replications(run_experiment(cfg, workers=4), run_experiment(cfg))
    assert sizes == []


def _pool_run(processes=2):
    """``_fork_pool`` over 32 one-replication tasks of a small run, eight
    cells of four, and the in-process blocks of the same tasks. Results this
    small often reach the parent several to one read. However the pool ends,
    it must leave no child process and no open pipe behind."""
    import geomasksim.experiments as exp

    xy = np.random.default_rng(47).uniform(-0.5, 0.5, size=(50, 2))
    y = (np.random.default_rng(48).random(50) < 0.5).astype(np.float64)
    payload = {
        "xy": xy, "facility": Point(0.0, 0.0), "bounds": None, "seed": 41, "y": y,
        "y_copy": y.astype(np.bool_), "prob": None, "base_spec": MaskSpec(), "generators": GeneratorPool(),
    }
    tasks = [(c, 0.05 * c, r, r + 1, True) for c in range(8) for r in range(4)]

    def run():
        fds = len(os.listdir("/proc/self/fd"))
        try:
            return exp._fork_pool(tasks, payload, processes)
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert len(os.listdir("/proc/self/fd")) == fds

    return run, [exp._replicate_block(t, payload) for t in tasks]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux forks a pool")
@pytest.mark.parametrize("processes", [2, 3])
def test_fork_pool_returns_every_block_at_its_task_index(processes):
    run, expected = _pool_run(processes)
    blocks = run()
    assert len(blocks) == len(expected)
    for block, own in zip(blocks, expected):
        for name in own:
            np.testing.assert_array_equal(block[name], own[name], err_msg=name)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux forks a pool")
def test_fork_pool_raises_the_lowest_failing_task_and_stops_sending(monkeypatch):
    # every task fails, the first one last: the pool must wait for it and
    # raise its failure, as an in-process run does, and send no task after
    # the first failure comes back
    import geomasksim.experiments as exp

    run, _ = _pool_run()
    started_r, started_w = os.pipe()  # each worker writes a byte here per task it starts

    def failing(task, state):
        os.write(started_w, b"x")
        if task[:3:2] == (0, 0):
            time.sleep(0.3)
        raise ValueError(f"cell {task[0]} rep {task[2]} failed")

    monkeypatch.setattr(exp, "_replicate_block", failing)
    try:
        with pytest.raises(ValueError, match="^cell 0 rep 0 failed$"):
            run()
        os.set_blocking(started_r, False)
        started = len(os.read(started_r, 64))
    finally:
        os.close(started_r)
        os.close(started_w)
    assert started <= 8  # 2 per worker in flight, in all, and at most one refill each before the first failure is read


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux forks a pool")
@pytest.mark.parametrize("end, how", [(lambda: os._exit(3), "exit code 3"),
                                      (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by SIGKILL")])
def test_fork_pool_names_how_a_lost_worker_ended(monkeypatch, end, how):
    import geomasksim.experiments as exp

    run, _ = _pool_run()
    real = exp._replicate_block

    def dying(task, state):
        if task[0] == 5:
            end()
        return real(task, state)

    monkeypatch.setattr(exp, "_replicate_block", dying)
    message = rf"^a worker process died before the run finished \(pid \d+, {how}\)$"
    with pytest.raises(RuntimeError, match=message):
        run()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux forks a pool")
def test_a_workers_masking_exhaustion_reaches_the_parent_with_its_text():
    # a builtin exception crosses the result pipe's pickle as it is: the pool
    # raises the lowest failing task's exhaustion, the error an in-process
    # run raises, with its text, and leaves no child behind
    import geomasksim.experiments as exp

    xy = np.random.default_rng(49).uniform(-0.5, 0.5, size=(50, 2))
    y = np.random.default_rng(50).random(50) < 0.5
    payload = {
        "xy": xy, "facility": Point(0.0, 0.0), "bounds": np.asarray(UNIT_SQUARE.bounds), "seed": 42, "y": y,
        "y_copy": y.copy(), "prob": None, "base_spec": MaskSpec(boundary="redraw", max_attempts=1),
        "generators": GeneratorPool(),
    }
    tasks = [(c, 2.0, r, r + 1, True) for c in range(4) for r in range(2)]
    with pytest.raises(RuntimeError) as in_process:
        exp._replicate_block(tasks[0], payload)
    with pytest.raises(RuntimeError) as pooled:
        exp._fork_pool(tasks, payload, 2)
    assert type(pooled.value) is RuntimeError
    assert str(pooled.value) == str(in_process.value)
    assert str(pooled.value).startswith("masking exhausted 1 redraw attempts for point index(es) [")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux forks a pool")
def test_an_interrupted_fork_pool_leaves_no_child(monkeypatch):
    import select

    run, _ = _pool_run()

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(select, "select", interrupted)  # the parent waits here for results
    with pytest.raises(KeyboardInterrupt):
        run()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux forks a pool")
def test_a_failed_fork_reaps_the_workers_already_forked(monkeypatch):
    run, _ = _pool_run(processes=3)
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("fork: Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(BlockingIOError):
        run()
    assert len(forks) == 2


class _Alarm(Exception):
    """What the SIGALRM handler of the reap test raises."""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux forks a pool")
@pytest.mark.parametrize("ending", ["normal", "failing", "interrupt"])
def test_a_raising_signal_handler_cannot_cut_the_reap_short(monkeypatch, ending):
    # SIGALRM arrives inside the reap's first blocking waitpid, and its handler
    # raises, as the test deadline's does: the pool must still close every pipe
    # and reap every worker, and the handler's exception come out after that
    import select

    import geomasksim.experiments as exp

    run, _ = _pool_run()
    if ending == "failing":
        def failing(task, state):
            raise ValueError("every task fails")

        monkeypatch.setattr(exp, "_replicate_block", failing)
    elif ending == "interrupt":
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(select, "select", interrupted)
    real_waitpid, alarms = os.waitpid, []

    def waitpid(pid, options):
        if options == 0 and not alarms:
            alarms.append(pid)
            signal.raise_signal(signal.SIGALRM)
        return real_waitpid(pid, options)

    def alarm(signum, frame):
        raise _Alarm

    monkeypatch.setattr(os, "waitpid", waitpid)
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        with pytest.raises(_Alarm) as raised:
            run()
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert len(alarms) == 1
    context = {"normal": type(None), "failing": ValueError, "interrupt": KeyboardInterrupt}[ending]
    assert type(raised.value.__context__) is context  # the run's own exception, where there is one


def test_efficiency_bytes_independent_of_row_chunks(monkeypatch, tmp_path):
    import geomasksim.experiments as exp
    from geomasksim.reports import write_efficiency_csv

    cfg = _config(n=150, mask=MaskSpec(mechanism="gaussian", boundary="redraw"))
    outputs = set()
    for block in (1, 64):
        monkeypatch.setattr(exp, "_REP_BLOCK", block)
        for row_elements in (1, 3 * cfg.n, 40 * cfg.n):
            monkeypatch.setattr(exp, "_ROW_ELEMENTS", row_elements)
            for workers in (1, 2):
                run = run_efficiency_experiment(cfg, replications=40, workers=workers)
                path = tmp_path / f"eff_b{block}_r{row_elements}_w{workers}.csv"
                outputs.add(write_efficiency_csv(run.reports, path).read_bytes())
    assert len(outputs) == 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "experiment, mask",
    [("csr-population", MaskSpec()), ("fixed-area-grid", MaskSpec(mechanism="gaussian", boundary="redraw"))],
    ids=["csr-uniform", "grid-gaussian-redraw"],
)
def test_theta_zero_records_reproduce_the_baseline_bitwise(experiment, mask, workers):
    # at theta* = 0 every offset is zero, and the harness's masked distances
    # and the run's come from one expression, so every theta* = 0 refit
    # is the baseline fit to the bit
    res = run_experiment(_config(experiment=experiment, mask=mask, n=300, replications=70), workers=workers)
    base = res.baseline
    want = (base.params.alpha, base.params.beta, base.std_errors[1], base.iterations, True)
    assert res.theta_stars[0] == 0.0
    zero = list(zip(*(res.columns[name][0].tolist()
                      for name in ("alpha_hat", "beta_hat", "se_beta", "iterations", "converged"))))
    assert zero == [want] * 70


def test_run_deterministic_and_worker_independent():
    cfg = _config(n=150, replications=70)  # crosses the 64-rep task boundary
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    _assert_same_replications(a, b)
    c = run_experiment(cfg, workers=2)
    _assert_same_replications(a, c)


def test_attenuation_shrinks_mean_abs_beta():
    cfg = _config(n=500, replications=60, theta_grid=(0.1, 1.0))
    res = run_experiment(cfg)
    rows = res.curve.rows
    assert rows[-1].mean_abs_beta < abs(res.baseline.params.beta)
    assert rows[-1].mean_abs_beta < rows[0].mean_abs_beta
    assert all(row.convergence_rate == 1.0 for row in rows)


def test_batch_convergence_error(monkeypatch):
    import geomasksim.experiments as exp
    from geomasksim.logit import SINGULAR

    real_fit_rows = exp.fit_rows

    def always_singular(d, y, **kw):
        fits = real_fit_rows(d, y, **kw)
        fits.status[:] = SINGULAR
        return fits

    monkeypatch.setattr(exp, "fit_rows", always_singular)
    with pytest.raises(RuntimeError, match=r"converged on 0\.0% of replications$"):
        exp.run_experiment(_config(replications=8, theta_grid=(0.5,)))


def test_batch_convergence_error_names_its_stage(monkeypatch):
    # a theta* = 0 cell fails in both stages; only the stage tells a fixed-y
    # attenuation cell from an efficiency cell with regenerated choices
    import geomasksim.experiments as exp

    monkeypatch.setattr(exp, "fit_rows", _singular_rows(lambda d: np.ndim(d) == 2))
    cfg = _config(n=150, theta_grid=(0.0,), replications=30)
    with pytest.raises(RuntimeError) as attenuation:
        run_experiment(cfg)
    with pytest.raises(RuntimeError) as efficiency:
        run_efficiency_experiment(cfg, replications=30)
    assert str(attenuation.value) == "attenuation stage (fixed choices): cell theta*=0 converged on 0.0% of replications"
    assert str(efficiency.value) == "efficiency stage (regenerated choices): cell theta*=0 converged on 0.0% of replications"


@pytest.mark.parametrize("write", [lambda y: 1.0 - y, lambda y: np.trunc(y) + 0.5], ids=["flip", "half"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("theta_grid", [(0.0, 0.5, 1.0), (0.5,)], ids=["three-cells", "one-cell"])
def test_choices_written_during_a_run_break_the_fixed_y_contract(monkeypatch, theta_grid, workers, write):
    # every fixed block, once fitted, compares the fixed choices exactly with
    # the copy taken before the first, so a fit that writes into them, by a
    # flip or by a fraction that truncates to the same choice, stops the run
    # at the end of that block: with one cell, the run's only fixed block
    import geomasksim.experiments as exp

    real_fit_rows = exp.fit_rows

    def tampering(d, y, **kw):
        if np.ndim(y) == 1:  # the fixed choices, not an efficiency block's redrawn rows
            y[0] = write(y[0])
        return real_fit_rows(d, y, **kw)

    monkeypatch.setattr(exp, "fit_rows", tampering)
    with pytest.raises(RuntimeError, match="fixed-y contract violated"):
        run_experiment(_config(n=150, replications=10, theta_grid=theta_grid), workers=workers)


def test_masking_failures_recorded_not_fatal(monkeypatch):
    # a single failed fit inside a healthy cell must be carried as a
    # non-converged record, not abort the batch
    import geomasksim.experiments as exp
    from geomasksim.logit import SINGULAR

    real_fit_rows = exp.fit_rows
    rows = {"k": 0}

    def flaky(d, y, **kw):
        fits = real_fit_rows(d, y, **kw)
        for i in range(fits.status.size):
            rows["k"] += 1
            if rows["k"] == 3:  # fit_rows' report of a row without an estimate
                fits.status[i], fits.iterations[i] = SINGULAR, 0
                for name in ("alpha", "beta", "std_errors", "information", "gradient_norm"):
                    getattr(fits, name)[i] = np.nan
        return fits

    monkeypatch.setattr(exp, "fit_rows", flaky)
    res = exp.run_experiment(_config(replications=10, theta_grid=(0.5,)))
    bad = ~res.columns["converged"]
    assert np.count_nonzero(bad) == 1
    for name in ("alpha_hat", "beta_hat", "se_beta"):
        assert np.isnan(res.columns[name][bad]).all(), name
    assert (res.columns["iterations"][bad] == 0).all()
    assert res.curve.rows[0].convergence_rate == pytest.approx(0.9)


# --- flags and summaries ---


def _columns(betas, se=0.1, converged=None, significant=None, outside=None):
    """One hand-built cell of record columns, shaped (1, len(betas))."""
    k = len(betas)
    cell = {
        "alpha_hat": [1.0] * k,
        "beta_hat": betas,
        "se_beta": [se] * k,
        "converged": [True] * k if converged is None else converged,
        "iterations": [4] * k,
        "significant_beta": [True] * k if significant is None else significant,
        "outside_true_ci": [False] * k if outside is None else outside,
    }
    return {name: np.array([values]) for name, values in cell.items()}


def test_flags_at_the_edges(tmp_path):
    # beta exactly at either CI bound is inside; |beta|/se exactly z is
    # significant; a failed row is false in both flags and written as nan
    from geomasksim.reports import read_records_csv, write_records_csv

    _, d, y = prepare_dataset(_config(n=500))
    baseline = fit_distance_choice(d, y)
    lo, hi = wald_ci(baseline)[1]
    z = Z_95
    fits = {
        "alpha_hat": np.array([[1.0, 1.0, 1.0, 1.0, math.nan]]),
        "beta_hat": np.array([[lo, hi, -z, np.nextafter(-z, 0.0), math.nan]]),
        "se_beta": np.array([[1e-3, 1e-3, 1.0, 1.0, math.nan]]),
        "converged": np.array([[True, True, True, True, False]]),
        "iterations": np.array([[3, 4, 5, 6, 0]]),
    }
    assert abs(lo) / 1e-3 > z and abs(hi) / 1e-3 > z
    cols = _add_flags(fits, (lo, hi))
    assert cols["significant_beta"].tolist() == [[True, True, True, False, False]]
    outside = [not lo <= b <= hi for b in (-z, np.nextafter(-z, 0.0))]
    assert cols["outside_true_ci"].tolist() == [[False, False, *outside, False]]

    path = write_records_csv((0.3,), cols, tmp_path / "r.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[5] == "0.29999999999999999,4,nan,nan,nan,false,0,false,false"
    assert [line.split(",")[6] for line in lines[1:]] == ["3", "4", "5", "6", "0"]
    back = read_records_csv(path)
    assert [r.iterations for r in back] == [3, 4, 5, 6, 0]
    assert back[0].beta_hat == lo and back[1].beta_hat == hi


def test_build_curve_hand_built_cell():
    cols = _columns(
        [-2.0, -1.0, 1.0, math.nan],
        converged=[True, True, True, False],
        significant=[True, True, False, False],
        outside=[False, True, True, False],
    )
    (row,) = build_curve((0.3,), cols).rows
    assert row.theta_star == 0.3
    # converged betas: -2, -1, 1
    assert row.mean_abs_beta == pytest.approx(4.0 / 3.0)
    assert row.sd_beta == pytest.approx(np.std([-2.0, -1.0, 1.0], ddof=1))
    assert row.pct_outside_true_ci == pytest.approx(200.0 / 3.0)
    assert row.pct_nonsignificant == pytest.approx(100.0 / 3.0)
    assert row.convergence_rate == 0.75


def test_build_curve_one_row_per_cell():
    cols = {name: np.concatenate([_columns([-2.0] * 3)[name], _columns([-1.0] * 3)[name]]) for name in RECORD_COLUMNS}
    curve = build_curve((0.2, 0.6), cols)
    assert [r.theta_star for r in curve.rows] == [0.2, 0.6]
    assert curve.rows[0].mean_abs_beta == 2.0


def test_curve_row_validation():
    with pytest.raises(ValueError):
        CurveRow(0.1, 2.0, 0.1, 120.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        CurveRow(0.1, 2.0, 0.1, 10.0, 10.0, 1.5)
    with pytest.raises(ValueError):
        AttenuationCurve(rows=(CurveRow(0.5, 2.0, 0.1, 0.0, 0.0, 1.0), CurveRow(0.1, 2.0, 0.1, 0.0, 0.0, 1.0)))


@pytest.mark.parametrize("el_analytic", [0.0, -0.5, 1.5, math.nan, math.inf])
def test_curve_row_el_analytic_lies_in_the_efficiency_reports_range(el_analytic):
    # EfficiencyReport's (0, 1] rule
    with pytest.raises(ValueError, match=re.escape(f"el_analytic must lie in (0, 1], got {el_analytic}")):
        CurveRow(0.1, 2.0, 0.1, 10.0, 10.0, 1.0, el_analytic=el_analytic)
    assert CurveRow(0.1, 2.0, 0.1, 10.0, 10.0, 1.0, el_analytic=1.0).el_analytic == 1.0


@pytest.mark.parametrize("el_empirical", [0.0, -1.0, math.nan, math.inf])
def test_curve_row_el_empirical_is_finite_and_positive(el_empirical):
    # a variance ratio may exceed 1, but it is a finite positive number
    with pytest.raises(ValueError, match=f"el_empirical must be finite and positive, got {el_empirical}"):
        CurveRow(0.1, 2.0, 0.1, 10.0, 10.0, 1.0, el_analytic=0.5, el_empirical=el_empirical)
    assert CurveRow(0.1, 2.0, 0.1, 10.0, 10.0, 1.0, el_analytic=0.5, el_empirical=1.3).el_empirical == 1.3


# --- centroid experiment ---


def test_centroid_experiment_shape():
    cfg = _config(experiment="centroid", n=400, replications=40, grid_k=5)
    res = run_experiment(cfg)
    cell_radius = build_municipality_grid(5).cell_radius
    assert len(res.curve.rows) == 1
    assert res.curve.rows[0].theta_star == cell_radius
    assert res.theta_stars == (cell_radius,)
    assert res.columns["beta_hat"].shape == (1, 40)
    assert res.efficiency is None  # the centroid kind has no efficiency run
    # the baseline is fitted on the centroid-observed dataset
    xy, _, y = prepare_dataset(cfg)
    want = fit_distance_choice(facility_distances(assign_to_centroid(xy, MunicipalityGrid(5))[0], cfg.facility), y)
    for field in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(res.baseline, field.name), getattr(want, field.name), err_msg=field.name)


def test_centroid_experiment_deterministic():
    cfg = _config(experiment="centroid", n=300, replications=24, grid_k=5)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    _assert_same_replications(a, b)
    assert a.baseline.params == b.baseline.params


# --- efficiency experiment ---


def test_efficiency_reports_aligned_with_grid():
    cfg = _config(n=250, replications=40)
    run = run_efficiency_experiment(cfg, 40)
    assert [r.theta_star for r in run.reports] == list(cfg.theta_values())
    assert len(run.masked_betas) == len(run.reports)
    assert all(len(b) >= 30 for b in run.masked_betas)
    assert len(run.true_betas) >= 30


def test_efficiency_analytic_unit_at_zero_and_decreasing():
    cfg = _config(n=250, replications=40)
    run = run_efficiency_experiment(cfg, 40)
    els = [r.el_analytic for r in run.reports]
    assert els[0] == 1.0  # theta* = 0
    assert all(a > b for a, b in zip(els, els[1:]))


def test_efficiency_empirical_near_one_at_zero_theta():
    cfg = _config(n=250, replications=60)
    run = run_efficiency_experiment(cfg, 60)
    # theta* = 0 leaves coordinates alone; both sides have the same sampling
    # law, so the variance ratio hovers around 1 (wide MC band at 60 reps)
    assert 0.5 <= run.reports[0].el_empirical <= 2.0


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("seed", [5, 7, 14])
def test_efficiency_exactly_one_at_zero_theta_on_fitted_params(seed, mechanism):
    # both information sums go through one expression, so the ratio at
    # theta* = 0 is 1.0 to the last bit, not 1 + 2**-52, under either law
    cfg = ExperimentConfig(experiment="csr-population", n=1000, seed=seed)
    _, d, y = prepare_dataset(cfg)
    assert efficiency_report(d, fit_distance_choice(d, y).params, MaskSpec(mechanism)).el_analytic == 1.0


@pytest.mark.parametrize("n", [8, 10])
def test_efficiency_degenerate_regenerated_choices_count_as_nonconverged(n):
    # at this size some regenerated choice vectors are all 0s or all 1s; such
    # a replication has no estimate and must not abort the run
    cfg = _config(n=n, seed=1)
    run = run_efficiency_experiment(cfg, replications=100)
    assert len(run.reports) == len(cfg.theta_values())
    assert len(run.true_betas) >= 30
    assert all(len(b) >= 30 for b in run.masked_betas)


def test_efficiency_refuses_the_centroid_kind_before_generating_data(monkeypatch):
    import geomasksim.experiments as exp

    def generate(*args, **kwargs):
        raise AssertionError("data generated for a refused kind")

    monkeypatch.setattr(exp, "generate_csr_xy", generate)
    monkeypatch.setattr(exp, "_run_cells", generate)
    with pytest.raises(ValueError, match="^efficiency does not run the centroid kind"):
        run_efficiency_experiment(ExperimentConfig("centroid"), 300)


@pytest.mark.parametrize("mask", [MaskSpec(), MaskSpec(mechanism="gaussian", boundary="redraw")])
def test_efficiency_at_zero_replications_is_the_analytic_table(monkeypatch, mask):
    # `geomasksim efficiency` without --empirical-reps: the analytic reports on
    # the generated dataset at the baseline's parameters, and no replication
    import geomasksim.experiments as exp

    cfg = _config(n=250, mask=mask)
    _, d, y = prepare_dataset(cfg)
    params = exp.fit_baseline(cfg, d, y).params
    want = [efficiency_report(d, params, dataclasses.replace(mask, theta_star=t)) for t in cfg.theta_values()]

    def no_replications(*args, **kwargs):
        raise AssertionError("replications run for an analytic table")

    monkeypatch.setattr(exp, "_run_cells", no_replications)
    run = run_efficiency_experiment(cfg, 0)
    assert run.reports == want
    assert all(r.el_empirical is None for r in run.reports)
    assert run.true_betas.size == 0 and [b.size for b in run.masked_betas] == [0] * len(want)


def test_efficiency_requires_enough_replications():
    with pytest.raises(ValueError):
        run_efficiency_experiment(_config(), replications=29)


def test_efficiency_deterministic():
    cfg = _config(n=200, replications=40)
    a = run_efficiency_experiment(cfg, 40)
    b = run_efficiency_experiment(cfg, 40)
    assert [r.el_empirical for r in a.reports] == [r.el_empirical for r in b.reports]
    np.testing.assert_array_equal(a.true_betas, b.true_betas)


@pytest.mark.parametrize(
    "experiment, mask, workers",
    [("csr-population", MaskSpec(), 1), ("fixed-area-grid", MaskSpec(mechanism="gaussian", boundary="redraw"), 2)],
    ids=["csr-uniform-w1", "grid-gaussian-redraw-w2"],
)
def test_run_experiment_efficiency_is_the_efficiency_run(monkeypatch, experiment, mask, workers):
    # the efficiency stage that shares run_experiment's task list gives the
    # bits run_efficiency_experiment gives alone, field for field; 7-rep
    # tasks give the stages 3 and 5 tasks a cell (20 and 30 replications)
    import geomasksim.experiments as exp

    monkeypatch.setattr(exp, "_REP_BLOCK", 7)
    cfg = _config(experiment=experiment, mask=mask, n=150, replications=20)
    joint, alone = run_experiment(cfg, workers=workers).efficiency, run_efficiency_experiment(cfg, 30, workers=workers)
    assert [f.name for f in dataclasses.fields(joint)] == ["reports", "true_betas", "masked_betas"]
    assert joint.reports == alone.reports
    np.testing.assert_array_equal(joint.true_betas, alone.true_betas)
    assert len(joint.masked_betas) == len(alone.masked_betas) == len(cfg.theta_grid)
    for a, b in zip(joint.masked_betas, alone.masked_betas):
        np.testing.assert_array_equal(a, b)


def _singular_rows(when):
    """A fit_rows stand-in marking SINGULAR every row of the calls for which
    ``when(d)`` holds."""
    import geomasksim.experiments as exp
    from geomasksim.logit import SINGULAR

    real_fit_rows = exp.fit_rows

    def fit_rows(d, y, **kw):
        fits = real_fit_rows(d, y, **kw)
        if when(d):
            fits.status[:] = SINGULAR
        return fits

    return fit_rows


@pytest.mark.parametrize(
    "when, message",
    [
        (lambda d: True, "true-coordinate cell"),
        # masked cells stack (rows, n) distances; the true cell shares one vector
        (lambda d: np.ndim(d) == 2, r"cell theta\*=0"),
    ],
    ids=["true-cell", "masked-cell"],
)
def test_efficiency_cell_convergence_rule(monkeypatch, when, message):
    import geomasksim.experiments as exp

    monkeypatch.setattr(exp, "fit_rows", _singular_rows(when))
    with pytest.raises(RuntimeError, match=rf"^efficiency stage \(regenerated choices\): {message} converged on 0\.0% "):
        run_efficiency_experiment(_config(n=150), replications=30)
