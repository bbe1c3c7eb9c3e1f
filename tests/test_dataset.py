"""A run's data: the (n, 2) coordinates ``xy``, their (n,) distances ``d``
to the facility and the (n,) bool choices ``y`` that ``prepare_dataset``
returns, and the layers that read them as bare arrays."""

import tracemalloc

import numpy as np
import pytest

from geomasksim.efficiency import efficiency_report
from geomasksim.experiments import ExperimentConfig, fit_baseline, prepare_dataset
from geomasksim.geometry import Point, facility_distances
from geomasksim.logit import InvalidFitError, LogitParams, fit_distance_choice
from geomasksim.masking import MaskSpec
from geomasksim.population import generate_csr_xy, simulate_choices_xy
from geomasksim.rng import choices_stream, population_stream


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


def test_distances_autocomputed():
    cfg = _config(facility=Point(0.2, -0.1))
    xy, d, _ = prepare_dataset(cfg)
    np.testing.assert_array_equal(d, facility_distances(xy, cfg.facility))
    np.testing.assert_allclose(d, np.hypot(xy[:, 0] - 0.2, xy[:, 1] + 0.1), rtol=0, atol=1e-15)


def test_dtype_coercion():
    xy, d, y = prepare_dataset(_config())
    assert xy.dtype == np.float64 and xy.flags.c_contiguous
    assert d.dtype == np.float64
    assert y.dtype == np.bool_  # one byte a point, which every fit reads as it is
    # the choices are bool whatever the float width of the distances
    narrow = simulate_choices_xy(d.astype(np.float32), LogitParams(1.0, -2.0), choices_stream(7))
    assert narrow.dtype == np.bool_ and narrow.shape == y.shape


def test_prepare_dataset_memory_at_n_100k():
    # the (n, 2) points (16 B a point), their distances (8 B) and, while the
    # choices are drawn, one float64 array of probabilities written over eta,
    # its 1 + e (8 B each) and a one-byte sign mask: about 41 B a point.
    # Stacking two coordinate columns, a where copy in the logistic function
    # and a separate eta took it to 5.6 MB
    cfg = _config(n=100_000)
    tracemalloc.start()
    try:
        prepare_dataset(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_700_000


@pytest.mark.parametrize("n", [1, 7, 300])
def test_prepare_dataset_array_shapes(n):
    xy, d, y = prepare_dataset(_config(n=n))
    assert xy.shape == (n, 2)
    assert d.shape == (n,)
    assert y.shape == (n,)


def test_choices_are_zero_or_one():
    d = facility_distances(np.random.default_rng(3).uniform(-0.5, 0.5, (500, 2)), Point(0.0, 0.0))
    y = simulate_choices_xy(d, LogitParams(1.0, -2.0), choices_stream(3))
    assert set(np.unique(y)) == {0, 1}
    # L(40) rounds to 1 and L(-40) to 4e-18: every uniform draw falls below
    # the first and above the second
    np.testing.assert_array_equal(simulate_choices_xy(d, LogitParams(40.0, 0.0), choices_stream(3)), np.ones(500))
    np.testing.assert_array_equal(simulate_choices_xy(d, LogitParams(-40.0, 0.0), choices_stream(3)), np.zeros(500))


def test_prepare_dataset_choices_follow_its_distances():
    cfg = _config(seed=11)
    xy, d, y = prepare_dataset(cfg)
    np.testing.assert_array_equal(xy, generate_csr_xy(cfg.n, population_stream(cfg.seed)))
    np.testing.assert_array_equal(y, simulate_choices_xy(d, cfg.generating_params, choices_stream(cfg.seed)))


def test_facility_moves_the_distances_not_the_points():
    a_xy, a_d, _ = prepare_dataset(_config())
    b_xy, b_d, _ = prepare_dataset(_config(facility=Point(0.3, 0.3)))
    np.testing.assert_array_equal(a_xy, b_xy)
    assert not np.array_equal(a_d, b_d)


def test_fit_baseline_on_arrays_matches_fit_distance_choice():
    cfg = _config(n=2_000, seed=3)
    _, d, y = prepare_dataset(cfg)
    assert fit_baseline(cfg, d, y).params == fit_distance_choice(d, y).params


def test_fit_baseline_singular_names_the_data():
    # every individual at the facility: d carries no information on beta
    cfg = _config()
    _, _, y = prepare_dataset(cfg)
    with pytest.raises(InvalidFitError, match=r"\(csr-population, n=300, seed=7\) has no estimate: the information "
                       r"matrix is singular, so the distance slope cannot be identified$"):
        fit_baseline(cfg, np.zeros(cfg.n), y)


def test_fit_baseline_nonconverged_names_the_data(monkeypatch):
    # a baseline that runs out of steps is refused with the run named too
    import geomasksim.experiments as exp

    cfg = _config()
    _, d, y = prepare_dataset(cfg)
    monkeypatch.setattr(exp, "fit_distance_choice", lambda d, y: fit_distance_choice(d, y, max_iter=1))
    with pytest.raises(InvalidFitError, match=r"^baseline fit did not converge on the generated data "
                       r"\(csr-population, n=300, seed=7\): 1 iterations, gradient norm \S+$"):
        fit_baseline(cfg, d, y)


def test_efficiency_report_reads_only_the_distances():
    # the mirror image of a population through the facility has the same
    # distances, so the same report
    xy, d, _ = prepare_dataset(_config())
    mirrored = facility_distances(-xy, Point(0.0, 0.0))
    np.testing.assert_array_equal(mirrored, d)
    spec = MaskSpec(theta_star=0.5)
    p = LogitParams(1.0, -2.0)
    assert efficiency_report(mirrored, p, spec) == efficiency_report(d, p, spec)
