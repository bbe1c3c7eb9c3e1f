import dataclasses
import math

import numpy as np
import pytest

from geomasksim.experiments import (
    CSR_REFERENCE_RADIUS,
    DEFAULT_REPLICATIONS,
    DEFAULT_THETA_GRID,
    FAST_REPLICATIONS,
    FIXED_AREA_REFERENCE_RADIUS,
    AttenuationCurve,
    BatchConvergenceError,
    CurveRow,
    EmptyCellError,
    ExperimentConfig,
    ReplicationRecord,
    build_curve,
    choices_checksum,
    prepare_dataset,
    run_efficiency_experiment,
    run_experiment,
    summarize_replications,
)
from geomasksim.efficiency import efficiency_report
from geomasksim.geometry import UNIT_SQUARE, Point
from geomasksim.logit import fit_logit, wald_ci
from geomasksim.masking import MaskSpec
from geomasksim.population import assign_to_centroid, build_municipality_grid

from mask_oracle import BOUNDS_KINDS, bounds_for, mask_one


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
        _config(workers=0)
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
    a = prepare_dataset(_config())
    b = prepare_dataset(_config())
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.choices, b.choices)
    c = prepare_dataset(_config(seed=8))
    assert not np.array_equal(a.choices, c.choices)


def test_choices_checksum_tracks_content():
    a = prepare_dataset(_config())
    assert choices_checksum(a.choices) == choices_checksum(a.choices.copy())
    flipped = a.choices.copy()
    flipped[0] = 1 - flipped[0]
    assert choices_checksum(a.choices) != choices_checksum(flipped)


def test_run_baseline_consistent_with_generator():
    cfg = _config(n=2_000, seed=3)
    fit = fit_logit(prepare_dataset(cfg))
    assert fit.converged
    assert abs(fit.params.beta - (-2.0)) <= 3.0 * fit.std_errors[1]


def test_run_baseline_centroid_uses_assigned_coordinates():
    cfg = _config(experiment="centroid", grid_k=10)
    via_runner = run_experiment(cfg).baseline
    ds = assign_to_centroid(prepare_dataset(cfg), build_municipality_grid(UNIT_SQUARE, 10))
    assert via_runner.params == fit_logit(ds).params


# --- replication records ---


def test_zero_theta_cell_reproduces_baseline_exactly():
    cfg = _config(theta_grid=(0.0, 1.0), replications=12)
    res = run_experiment(cfg)
    zero_cell = [r for r in res.records if r.theta_star == 0.0]
    assert len(zero_cell) == 12
    for r in zero_cell:
        assert r.beta_hat == res.baseline.params.beta
        assert r.alpha_hat == res.baseline.params.alpha
        assert r.converged and not r.outside_true_ci
    assert res.curve.rows[0].mean_abs_beta == abs(res.baseline.params.beta)
    assert res.curve.rows[0].sd_beta == 0.0
    assert res.curve.rows[0].pct_outside_true_ci == 0.0


def test_records_cover_every_cell_and_rep_sorted():
    cfg = _config(replications=10)
    res = run_experiment(cfg)
    got = [(r.theta_star, r.rep) for r in res.records]
    want = [(t, rep) for t in cfg.theta_values() for rep in range(10)]
    assert got == want


def test_records_bytes_independent_of_block_size(monkeypatch, tmp_path):
    import geomasksim.experiments as exp
    from geomasksim.reports import write_records_csv

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
        outputs = set()
        for block in (1, 64):
            monkeypatch.setattr(exp, "_REP_BLOCK", block)
            # rows per fit_rows call: 1, 3, and every replication of the block
            for row_elements in (1, 3 * cfg.n, cfg.n * cfg.replications):
                monkeypatch.setattr(exp, "_ROW_ELEMENTS", row_elements)
                for workers in (1, 2):
                    res = run_experiment(dataclasses.replace(cfg, workers=workers))
                    path = tmp_path / f"records_{name}_b{block}_r{row_elements}_w{workers}.csv"
                    outputs.add(write_records_csv(res.records, path).read_bytes())
        assert len(outputs) == 1, name


def _harness_rows(monkeypatch, cell, xy, bounds, spec, reps, **choices):
    """The (d, y) rows ``_run_cells`` hands to ``fit_rows`` for one cell, stacked."""
    import geomasksim.experiments as exp

    real_fit_rows = exp.fit_rows
    seen = []

    def capture(d, y, **kw):
        seen.append(np.broadcast_arrays(np.atleast_2d(d), np.atleast_2d(y)))
        return real_fit_rows(d, y, **kw)

    monkeypatch.setattr(exp, "fit_rows", capture)
    exp._run_cells([cell], xy, Point(0.0, 0.0), bounds, spec, 41, reps, 1, **choices)
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

    masked_spec = spec.with_theta_star(cell[1])
    for rep in range(reps):
        gen = (efficiency_masked_stream if regenerated else derive_stream)(41, cell[0], rep).generator()
        y_rep = (gen.uniform(0.0, 1.0, n) < prob).astype(np.float64) if regenerated else y
        d_rep = facility_distances(mask_one(xy, masked_spec, bounds, gen), Point(0.0, 0.0))
        np.testing.assert_array_equal(D[rep], d_rep)
        np.testing.assert_array_equal(Y[rep], y_rep)


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
                run = run_efficiency_experiment(dataclasses.replace(cfg, workers=workers), replications=40)
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
    # and the dataset's come from one expression, so every theta* = 0 refit
    # is the baseline fit to the bit
    res = run_experiment(_config(experiment=experiment, mask=mask, n=300, replications=70, workers=workers))
    base = res.baseline
    want = (base.params.alpha, base.params.beta, base.std_errors[1], base.iterations, True)
    zero = [(r.alpha_hat, r.beta_hat, r.se_beta, r.iterations, r.converged)
            for r in res.records if r.theta_star == 0.0]
    assert zero == [want] * 70


def test_run_deterministic_and_worker_independent():
    cfg = _config(n=150, replications=70)  # crosses the 64-rep task boundary
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.records == b.records
    c = run_experiment(_config(n=150, replications=70, workers=2))
    assert a.records == c.records


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
    with pytest.raises(BatchConvergenceError) as info:
        _run = exp.run_experiment(_config(replications=8, theta_grid=(0.5,)))
    assert info.value.rate == 0.0


def test_batch_convergence_error_names_its_stage(monkeypatch):
    # a theta* = 0 cell fails in both stages; only the stage tells a fixed-y
    # attenuation cell from an efficiency cell with regenerated choices
    import geomasksim.experiments as exp

    monkeypatch.setattr(exp, "fit_rows", _singular_rows(lambda d: np.ndim(d) == 2))
    cfg = _config(n=150, theta_grid=(0.0,), replications=30)
    with pytest.raises(BatchConvergenceError) as attenuation:
        run_experiment(cfg)
    with pytest.raises(BatchConvergenceError) as efficiency:
        run_efficiency_experiment(cfg, replications=30)
    assert attenuation.value.stage == "attenuation"
    assert str(attenuation.value) == "attenuation stage (fixed choices): cell theta*=0 converged on 0.0% of replications"
    assert efficiency.value.stage == "efficiency"
    assert str(efficiency.value) == "efficiency stage (regenerated choices): cell theta*=0 converged on 0.0% of replications"


@pytest.mark.parametrize("theta_star, stage", [(0.5, "attenuation"), (None, "efficiency")])
def test_batch_convergence_error_survives_pickle(theta_star, stage):
    # a pool worker's error reaches the parent through pickle
    import pickle

    err = BatchConvergenceError(theta_star, 0.25, stage)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is BatchConvergenceError
    assert (back.theta_star, back.rate, back.stage) == (theta_star, 0.25, stage)
    assert str(back) == str(err)


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
            if rows["k"] == 3:
                fits.status[i] = SINGULAR
        return fits

    monkeypatch.setattr(exp, "fit_rows", flaky)
    res = exp.run_experiment(_config(replications=10, theta_grid=(0.5,)))
    bad = [r for r in res.records if not r.converged]
    assert len(bad) == 1
    assert math.isnan(bad[0].beta_hat)
    assert res.curve.rows[0].convergence_rate == pytest.approx(0.9)


# --- summaries ---


def _rec(theta, rep, beta, se=0.1, converged=True, significant=True, outside=False):
    return ReplicationRecord(
        theta_star=theta,
        rep=rep,
        alpha_hat=1.0,
        beta_hat=beta,
        se_beta=se,
        converged=converged,
        iterations=4,
        significant_beta=significant,
        outside_true_ci=outside,
    )


def test_summarize_hand_built_cell():
    records = [
        _rec(0.3, 0, -2.0, significant=True, outside=False),
        _rec(0.3, 1, -1.0, significant=True, outside=True),
        _rec(0.3, 2, 1.0, significant=False, outside=True),
        _rec(0.3, 3, math.nan, converged=False, significant=False, outside=False),
    ]
    row = summarize_replications(records)
    assert row.theta_star == 0.3
    # converged betas: -2, -1, 1
    assert row.mean_abs_beta == pytest.approx(4.0 / 3.0)
    assert row.sd_beta == pytest.approx(np.std([-2.0, -1.0, 1.0], ddof=1))
    assert row.pct_outside_true_ci == pytest.approx(200.0 / 3.0)
    assert row.pct_nonsignificant == pytest.approx(100.0 / 3.0)
    assert row.convergence_rate == 0.75


def test_summarize_rejects_empty_and_mixed_cells():
    with pytest.raises(EmptyCellError):
        summarize_replications([])
    with pytest.raises(EmptyCellError):
        summarize_replications([_rec(0.3, 0, math.nan, converged=False)])
    with pytest.raises(ValueError, match="multiple"):
        summarize_replications([_rec(0.3, 0, -2.0), _rec(0.4, 1, -2.0)])


def test_summarize_baseline_cross_check():
    cfg = _config(n=500)
    baseline = fit_logit(prepare_dataset(cfg))
    lo, hi = wald_ci(baseline)[1]
    good = _rec(0.3, 0, 0.5 * (lo + hi), outside=False)
    summarize_replications([good], baseline)  # consistent: no error
    bad = _rec(0.3, 1, 0.5 * (lo + hi), outside=True)
    with pytest.raises(ValueError, match="inconsistent"):
        summarize_replications([good, bad], baseline)


def test_build_curve_groups_and_sorts():
    records = [_rec(0.6, r, -1.0) for r in range(3)] + [_rec(0.2, r, -2.0) for r in range(3)]
    curve = build_curve(records)
    assert [r.theta_star for r in curve.rows] == [0.2, 0.6]
    assert curve.rows[0].mean_abs_beta == 2.0


def test_curve_row_validation():
    with pytest.raises(ValueError):
        CurveRow(0.1, 2.0, 0.1, 120.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        CurveRow(0.1, 2.0, 0.1, 10.0, 10.0, 1.5)
    with pytest.raises(ValueError):
        AttenuationCurve(rows=(CurveRow(0.5, 2.0, 0.1, 0.0, 0.0, 1.0), CurveRow(0.1, 2.0, 0.1, 0.0, 0.0, 1.0)))


# --- centroid experiment ---


def test_centroid_experiment_shape():
    cfg = _config(experiment="centroid", n=400, replications=40, grid_k=5)
    res = run_experiment(cfg)
    cell_radius = build_municipality_grid(UNIT_SQUARE, 5).cell_radius
    assert len(res.curve.rows) == 1
    assert res.curve.rows[0].theta_star == cell_radius
    assert all(r.theta_star == cell_radius for r in res.records)
    # observed dataset is centroid-assigned
    centroids = {tuple(row) for row in build_municipality_grid(UNIT_SQUARE, 5).centroids()}
    assert {tuple(row) for row in res.dataset.points} <= centroids


def test_centroid_experiment_deterministic():
    cfg = _config(experiment="centroid", n=300, replications=24, grid_k=5)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.records == b.records
    assert a.baseline.params == b.baseline.params


# --- efficiency experiment ---


def test_efficiency_reports_aligned_with_grid():
    cfg = _config(n=250, replications=40)
    run = run_efficiency_experiment(cfg)
    assert [r.theta_star for r in run.reports] == list(cfg.theta_values())
    assert len(run.masked_betas) == len(run.reports)
    assert all(len(b) >= 30 for b in run.masked_betas)
    assert len(run.true_betas) >= 30


def test_efficiency_analytic_unit_at_zero_and_decreasing():
    cfg = _config(n=250, replications=40)
    run = run_efficiency_experiment(cfg)
    els = [r.el_analytic for r in run.reports]
    assert els[0] == 1.0  # theta* = 0
    assert all(a > b for a, b in zip(els, els[1:]))


def test_efficiency_empirical_near_one_at_zero_theta():
    cfg = _config(n=250, replications=60)
    run = run_efficiency_experiment(cfg)
    # theta* = 0 leaves coordinates alone; both sides have the same sampling
    # law, so the variance ratio hovers around 1 (wide MC band at 60 reps)
    assert 0.5 <= run.reports[0].el_empirical <= 2.0


@pytest.mark.parametrize("seed", [5, 7, 14])
def test_efficiency_exactly_one_at_zero_theta_on_fitted_params(seed):
    # both information sums go through one expression, so the ratio at
    # theta* = 0 is 1.0 to the last bit, not 1 + 2**-52
    cfg = ExperimentConfig(experiment="csr-population", n=1000, seed=seed)
    ds = prepare_dataset(cfg)
    assert efficiency_report(ds, fit_logit(ds).params, 0.0).el_analytic == 1.0


@pytest.mark.parametrize("n", [8, 10])
def test_efficiency_degenerate_regenerated_choices_count_as_nonconverged(n):
    # at this size some regenerated choice vectors are all 0s or all 1s; such
    # a replication has no estimate and must not abort the run
    cfg = _config(n=n, seed=1)
    run = run_efficiency_experiment(cfg, replications=100)
    assert len(run.reports) == len(cfg.theta_values())
    assert len(run.true_betas) >= 30
    assert all(len(b) >= 30 for b in run.masked_betas)


def test_efficiency_requires_enough_replications():
    with pytest.raises(ValueError):
        run_efficiency_experiment(_config(), replications=29)


def test_efficiency_deterministic():
    cfg = _config(n=200, replications=40)
    a = run_efficiency_experiment(cfg)
    b = run_efficiency_experiment(cfg)
    assert [r.el_empirical for r in a.reports] == [r.el_empirical for r in b.reports]
    np.testing.assert_array_equal(a.true_betas, b.true_betas)


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
    "when, theta_star, message",
    [
        (lambda d: True, None, "true-coordinate cell"),
        # masked cells stack (rows, n) distances; the true cell shares one vector
        (lambda d: np.ndim(d) == 2, 0.0, r"cell theta\*=0 "),
    ],
    ids=["true-cell", "masked-cell"],
)
def test_efficiency_cell_convergence_rule(monkeypatch, when, theta_star, message):
    import geomasksim.experiments as exp

    monkeypatch.setattr(exp, "fit_rows", _singular_rows(when))
    with pytest.raises(BatchConvergenceError, match=message) as info:
        run_efficiency_experiment(_config(n=150), replications=30)
    assert info.value.theta_star == theta_star and info.value.rate == 0.0
