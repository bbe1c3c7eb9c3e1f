import math

import numpy as np
import pytest

from geomasksim.efficiency import (
    EfficiencyReport,
    efficiency_report,
    empirical_variance_ratio,
    expected_sq_masked_distance,
    information_beta,
)
from geomasksim.geometry import Point, facility_distances
from geomasksim.logit import LogitParams, choice_probability, observed_information
from geomasksim.masking import MECHANISMS, MaskSpec, mask_coordinates
from geomasksim.population import generate_csr_xy
from geomasksim.rng import derive_stream, population_stream
from moment_oracle import masked_second_moment_mc, masked_sq_shift_mc

def _csr_d(n=500, seed=50):
    """Distances from n CSR points to a facility at the origin."""
    return facility_distances(generate_csr_xy(n, population_stream(seed)), Point(0.0, 0.0))


# --- moment formula ---


def test_expected_sq_zero_theta_returns_d_squared():
    assert expected_sq_masked_distance(0.5, MaskSpec()) == 0.25


def test_expected_sq_derived_value():
    # d^2 + theta*^2 / 3 = 0.25 + 0.03
    assert expected_sq_masked_distance(0.5, MaskSpec(theta_star=0.3)) == pytest.approx(0.28, abs=1e-15)


def test_expected_sq_array_input():
    out = expected_sq_masked_distance(np.array([0.0, 0.5, 1.0]), MaskSpec(theta_star=0.3))
    np.testing.assert_allclose(out, [0.03, 0.28, 1.03], atol=1e-15)


def test_expected_sq_validation():
    with pytest.raises(ValueError):
        expected_sq_masked_distance(0.5, MaskSpec(theta_star=-0.1))
    with pytest.raises(ValueError):
        expected_sq_masked_distance(-0.5, MaskSpec(theta_star=0.1))


def test_moment_mc_oracle_selects_derived():
    # the Monte Carlo second moment sides with d^2 + theta*^2/3, not theta*/3
    got = masked_second_moment_mc(0.5, 0.3, derive_stream(77, 0, 0))
    assert got == pytest.approx(0.28, abs=1e-3)
    assert abs(got - 0.35) > 0.05


def test_moment_mc_matches_masking_machinery():
    # same quantity produced by the public masking path
    xy = np.tile([[0.5, 0.0]], (200_000, 1))
    out = mask_coordinates(xy, MaskSpec(theta_star=0.3), None, derive_stream(78, 0, 0))
    sq = (out**2).sum(axis=1)
    assert sq.mean() == pytest.approx(masked_second_moment_mc(0.5, 0.3, derive_stream(79, 0, 0)), abs=2e-3)


# the closed form of E|o|^2 at theta* = 0.5 for each mechanism: theta*^2/3
# and 2 sigma^2 = theta*^2 / ln 100
_MOMENT_AT_HALF = {"uniform": 0.25 / 3.0, "gaussian": 0.25 / math.log(100.0)}


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_second_moment_matches_masking_monte_carlo(mechanism):
    # each law's table moment is its closed form, and the mean of
    # d_masked^2 - d^2 over 10^6 masked copies of one point lands within 10
    # standard errors of it (about 0.0833 uniform, 0.0543 gaussian)
    spec = MaskSpec(mechanism, theta_star=0.5)
    assert spec.second_moment == pytest.approx(_MOMENT_AT_HALF[mechanism], rel=1e-12)
    mean, se = masked_sq_shift_mc(0.5, spec, derive_stream(80, 0, 0))
    assert abs(mean - spec.second_moment) < 10.0 * se


# --- beta information ---


def test_information_beta_single_observation():
    # L = 0.5, d = 2: w * d^2 = 0.25 * 4 = 1
    d = np.array([2.0])
    assert information_beta(d, LogitParams(0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)


def test_information_beta_matches_observed_information():
    d = _csr_d()
    p = LogitParams(1.0, -2.0)
    full = observed_information(d, p)
    assert information_beta(d, p) == pytest.approx(full[1, 1], rel=1e-12)


def test_information_beta_zero_distances():
    d = np.array([0.0, 0.0])
    assert information_beta(d, LogitParams(0.0, 0.0)) == 0.0


def test_information_beta_is_nonstochastic():
    d = _csr_d(seed=54)
    p = LogitParams(1.0, -2.0)
    assert information_beta(d, p, MaskSpec(theta_star=0.5)) == information_beta(d, p, MaskSpec(theta_star=0.5))


# --- efficiency loss ---


def test_efficiency_loss_one_at_zero_theta():
    d = _csr_d(seed=56)
    assert efficiency_report(d, LogitParams(1.0, -2.0), MaskSpec()).el_analytic == 1.0


def test_efficiency_loss_single_point_value():
    # L = 0.5, d = 1, theta* = 1: ratio = d^2 / (d^2 + 1/3) = 0.75
    d = np.array([1.0])
    p = LogitParams(0.0, 0.0)
    assert efficiency_report(d, p, MaskSpec(theta_star=1.0)).el_analytic == pytest.approx(0.75, abs=1e-12)


def test_efficiency_loss_strictly_decreasing_in_theta():
    d = _csr_d(seed=58)
    p = LogitParams(1.0, -2.0)
    values = [efficiency_report(d, p, MaskSpec(theta_star=t)).el_analytic for t in np.linspace(0.0, 1.0, 11)]
    assert values[0] == 1.0
    assert all(a > b for a, b in zip(values, values[1:]))


def test_efficiency_loss_in_unit_interval():
    d = _csr_d(seed=60)
    for t in (0.1, 0.5, 1.0, 2.0):
        el = efficiency_report(d, LogitParams(1.0, -2.0), MaskSpec(theta_star=t)).el_analytic
        assert 0.0 < el < 1.0


def test_efficiency_loss_degenerate_information():
    d = np.array([0.0, 0.0])
    with pytest.raises(ValueError, match="^true information is 0.0$"):
        efficiency_report(d, LogitParams(0.0, 0.0), MaskSpec(theta_star=0.5))


def test_efficiency_report_bundles_values():
    d = _csr_d(seed=62)
    p = LogitParams(1.0, -2.0)
    r = efficiency_report(d, p, MaskSpec(theta_star=0.4), el_empirical=0.9)
    assert r.theta_star == 0.4
    assert r.el_analytic == r.info_true / r.info_masked_analytic
    assert r.info_true == information_beta(d, p)
    assert r.info_masked_analytic == information_beta(d, p, MaskSpec(theta_star=0.4))
    assert r.el_empirical == 0.9


def test_uniform_report_keeps_the_theta_squared_over_three_sums():
    # the uniform law's report is sum L(1-L)(d^2 + theta*^2/3) over
    # sum L(1-L) d^2, bit for bit, over the default theta* grid and 0
    d = _csr_d(seed=64)
    p = LogitParams(1.0, -2.0)
    lam = choice_probability(p.alpha + p.beta * d)
    w = lam * (1.0 - lam)
    for t in [0.707 * round(i / 10, 1) for i in range(11)]:
        assert MaskSpec(theta_star=t).second_moment == t * t / 3.0
        r = efficiency_report(d, p, MaskSpec(theta_star=t))
        assert r.info_true == float((w * (d * d + 0.0)).sum())
        assert r.info_masked_analytic == float((w * (d * d + t * t / 3.0)).sum())
        assert r.el_analytic == r.info_true / r.info_masked_analytic


def test_efficiency_report_validation():
    with pytest.raises(ValueError):
        EfficiencyReport(0.1, 1.0, 2.0, 1.5, None)
    with pytest.raises(ValueError):
        EfficiencyReport(0.1, 0.0, 2.0, 0.5, None)


# --- empirical variance ratio ---


def test_empirical_variance_ratio_identity():
    betas = np.linspace(-2.5, -1.5, 40)
    assert empirical_variance_ratio(betas, betas) == 1.0


def test_empirical_variance_ratio_quarter_on_doubled_spread():
    center = np.linspace(-2.5, -1.5, 40)
    assert empirical_variance_ratio(center, -2.0 + 2.0 * (center + 2.0)) == pytest.approx(0.25, rel=1e-12)


def test_empirical_variance_ratio_skips_nonconverged(monkeypatch):
    # non-converged and failed fits of a healthy cell stay out of the
    # estimates the variance ratio is taken over
    import geomasksim.experiments as exp
    from geomasksim.logit import NOT_CONVERGED, SINGULAR

    real_fit_rows = exp.fit_rows
    rows = {"k": 0}

    def flaky(d, y, **kw):
        fits = real_fit_rows(d, y, **kw)
        for i in range(fits.status.size):
            rows["k"] += 1
            if rows["k"] in (2, 5):
                fits.status[i] = NOT_CONVERGED
            elif rows["k"] == 7:
                fits.status[i] = SINGULAR
        return fits

    cfg = exp.ExperimentConfig(
        experiment="csr-population", n=150, replications=24, theta_grid=(0.0, 0.5, 1.0), reference_radius=0.707, seed=7
    )
    clean = exp.run_efficiency_experiment(cfg, replications=40)
    monkeypatch.setattr(exp, "fit_rows", flaky)
    run = exp.run_efficiency_experiment(cfg, replications=40)
    np.testing.assert_array_equal(run.true_betas, np.delete(clean.true_betas, [1, 4, 6]))
    for got, want in zip(run.masked_betas, clean.masked_betas):
        np.testing.assert_array_equal(got, want)
    for report, masked in zip(run.reports, run.masked_betas):
        assert report.el_empirical == empirical_variance_ratio(run.true_betas, masked)


def test_empirical_variance_ratio_requires_enough_fits():
    betas = np.linspace(-2.5, -1.5, 29)
    with pytest.raises(RuntimeError, match="^need >= 30 converged fits on each side, got 29 true / 29 masked$"):
        empirical_variance_ratio(betas, betas)


def test_empirical_variance_ratio_zero_masked_variance():
    with pytest.raises(RuntimeError, match="^masked-fit variance is zero; ratio undefined$"):
        empirical_variance_ratio(np.linspace(-2.5, -1.5, 40), np.full(40, -2.0))
