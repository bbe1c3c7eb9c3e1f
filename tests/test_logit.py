import math

import numpy as np
import pytest
from scipy.special import expit

from geomasksim.dataset import ChoiceDataset
from geomasksim.geometry import Point
from geomasksim.logit import (
    InvalidFitError,
    LogitFit,
    LogitParams,
    SeparationError,
    SingularInformationError,
    fit_distance_choice,
    fit_logit,
    log_likelihood,
    observed_information,
    score,
    wald_ci,
    z_quantile,
)

LN_HALF = math.log(0.5)


def _arrays(d, y):
    return np.asarray(d, dtype=float), np.asarray(y, dtype=np.int64)


def _sim(n, alpha=1.0, beta=-2.0, seed=0):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.0, 1.0, n)
    y = (rng.uniform(size=n) < expit(alpha + beta * d)).astype(np.int64)
    return d, y


# --- log-likelihood / score / information values ---


def test_loglik_symmetric_point():
    d, y = _arrays([0.0], [1])
    assert log_likelihood(d, y, LogitParams(0.0, 0.0)) == pytest.approx(LN_HALF, abs=1e-12)


def test_loglik_additivity():
    d, y = _arrays([0.0, 0.0], [1, 0])
    assert log_likelihood(d, y, LogitParams(0.0, 0.0)) == pytest.approx(2 * LN_HALF, abs=1e-12)


def test_loglik_coefficients_cancel_at_half():
    # eta = 1 - 2*0.5 = 0
    d, y = _arrays([0.5], [1])
    assert log_likelihood(d, y, LogitParams(1.0, -2.0)) == pytest.approx(LN_HALF, abs=1e-12)


def test_loglik_nonpositive_and_stable_at_extreme_eta():
    d, y = _arrays([1.0], [1])
    ll = log_likelihood(d, y, LogitParams(700.0, -1400.0))  # eta = -700, y = 1
    assert math.isfinite(ll) and ll == pytest.approx(-700.0, rel=1e-12)
    assert log_likelihood(d, y, LogitParams(0.3, 0.1)) <= 0.0


def test_score_single_observation():
    d, y = _arrays([0.3], [1])
    np.testing.assert_allclose(score(d, y, LogitParams(0.0, 0.0)), [0.5, 0.15], atol=1e-15)


def test_score_zero_at_maximum():
    d, y = _sim(500, seed=1)
    fit = fit_distance_choice(d, y)
    g = score(d, y, fit.params)
    assert np.abs(g).max() < 1e-8


def test_information_single_observation():
    np.testing.assert_allclose(
        observed_information(np.array([2.0]), LogitParams(0.0, 0.0)), [[0.25, 0.5], [0.5, 1.0]], atol=1e-15
    )


def test_information_saturates_to_zero():
    info = observed_information(np.array([1.0, 2.0]), LogitParams(500.0, 100.0))
    assert np.abs(info).max() < 1e-100


def test_score_matches_finite_differences():
    h = 1e-6
    for seed in range(10):
        d, y = _sim(200, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        p = LogitParams(rng.uniform(-2, 2), rng.uniform(-4, 1))
        g = score(d, y, p)
        fd = np.array(
            [
                (log_likelihood(d, y, LogitParams(p.alpha + h, p.beta)) - log_likelihood(d, y, LogitParams(p.alpha - h, p.beta))) / (2 * h),
                (log_likelihood(d, y, LogitParams(p.alpha, p.beta + h)) - log_likelihood(d, y, LogitParams(p.alpha, p.beta - h))) / (2 * h),
            ]
        )
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6)


def test_information_matches_finite_differences():
    # differentiate the score (first derivatives) rather than the
    # log-likelihood twice, which would drown in summation noise
    h = 1e-6
    for seed in range(10):
        d, y = _sim(200, seed=seed)
        rng = np.random.default_rng(2000 + seed)
        p = LogitParams(rng.uniform(-2, 2), rng.uniform(-4, 1))
        fd = np.empty((2, 2))
        fd[:, 0] = -(score(d, y, LogitParams(p.alpha + h, p.beta)) - score(d, y, LogitParams(p.alpha - h, p.beta))) / (2 * h)
        fd[:, 1] = -(score(d, y, LogitParams(p.alpha, p.beta + h)) - score(d, y, LogitParams(p.alpha, p.beta - h))) / (2 * h)
        np.testing.assert_allclose(observed_information(d, p), fd, rtol=1e-5, atol=1e-7)


def test_loglik_concavity_midpoint():
    d, y = _sim(100, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = LogitParams(*rng.uniform(-5, 5, 2))
        b = LogitParams(*rng.uniform(-5, 5, 2))
        mid = LogitParams(0.5 * (a.alpha + b.alpha), 0.5 * (a.beta + b.beta))
        lhs = log_likelihood(d, y, mid)
        rhs = 0.5 * (log_likelihood(d, y, a) + log_likelihood(d, y, b))
        assert lhs >= rhs - 1e-9 * (1.0 + abs(rhs))


def test_information_psd_everywhere():
    d, y = _sim(100, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(25):
        info = observed_information(d, LogitParams(*rng.uniform(-10, 10, 2)))
        eig = np.linalg.eigvalsh(info)
        assert eig.min() >= -1e-12


# --- fitting ---


def test_fit_recovers_generating_params():
    d, y = _sim(100_000, alpha=1.0, beta=-2.0, seed=7)
    fit = fit_distance_choice(d, y)
    assert fit.converged
    assert abs(fit.params.beta - (-2.0)) <= 3.0 * fit.std_errors[1]
    assert abs(fit.params.alpha - 1.0) <= 3.0 * fit.std_errors[0]


def test_fit_loglik_never_below_init():
    d, y = _sim(300, seed=8)
    init = LogitParams(0.5, 0.5)
    fit = fit_distance_choice(d, y, init=init)
    assert fit.loglik >= log_likelihood(d, y, init)


def test_fit_symmetric_data_converges_at_origin():
    fit = fit_distance_choice(np.array([0.0, 1.0, 0.0, 1.0]), np.array([0, 1, 1, 0]))
    assert fit.converged and fit.iterations == 0
    assert (fit.params.alpha, fit.params.beta) == (0.0, 0.0)


def test_fit_separation_error():
    with pytest.raises(SeparationError):
        fit_distance_choice(np.array([0.1, 0.5, 0.9]), np.array([1, 1, 1]))
    with pytest.raises(SeparationError):
        fit_distance_choice(np.array([0.1, 0.5, 0.9]), np.array([0, 0, 0]))


def test_fit_quasi_separation_flagged_not_raised():
    # a 0.002-wide gap around the separating threshold pushes the runaway
    # estimates past the divergence bound before the probabilities saturate
    d = np.array([0.45, 0.499, 0.501, 0.55])
    y = np.array([0, 0, 1, 1])
    fit = fit_distance_choice(d, y)
    assert not fit.converged
    assert abs(fit.params.beta) > 1e4


def test_fit_singular_information_on_constant_distance():
    with pytest.raises(SingularInformationError):
        fit_distance_choice(np.full(10, 0.5), np.array([0, 1] * 5))


def test_fit_max_iter_respected():
    d, y = _sim(300, seed=9)
    fit = fit_distance_choice(d, y, max_iter=1)
    assert not fit.converged and fit.iterations == 1


def test_fit_standard_errors_from_information():
    d, y = _sim(2_000, seed=11)
    fit = fit_distance_choice(d, y)
    info = fit.information
    det = info[0, 0] * info[1, 1] - info[0, 1] ** 2
    assert fit.std_errors[0] == pytest.approx(math.sqrt(info[1, 1] / det), rel=1e-12)
    assert fit.std_errors[1] == pytest.approx(math.sqrt(info[0, 0] / det), rel=1e-12)


def test_fit_translation_invariance():
    rng = np.random.default_rng(12)
    xy = rng.uniform(-0.5, 0.5, size=(400, 2))
    fac = np.array([0.1, -0.2])
    shift = np.array([0.31, -0.17])
    d0 = np.hypot(*(xy - fac).T)
    d1 = np.hypot(*((xy + shift) - (fac + shift)).T)
    y = (rng.uniform(size=400) < expit(1.0 - 2.0 * d0)).astype(np.int64)
    f0 = fit_distance_choice(d0, y)
    f1 = fit_distance_choice(d1, y)
    assert f1.params.alpha == pytest.approx(f0.params.alpha, abs=1e-10)
    assert f1.params.beta == pytest.approx(f0.params.beta, abs=1e-10)


def test_fit_scale_covariance():
    d, y = _sim(400, seed=13)
    c = 3.7
    f0 = fit_distance_choice(d, y)
    f1 = fit_distance_choice(c * d, y)
    assert f1.params.beta == pytest.approx(f0.params.beta / c, abs=1e-8)
    assert f1.params.alpha == pytest.approx(f0.params.alpha, abs=1e-8)


def test_fit_logit_uses_active_distances():
    d, y = _sim(400, seed=14)
    # true points sit one unit off the x-axis; the masked (active) points lie
    # on it at distance d from the facility at the origin
    ds = ChoiceDataset(
        points=np.column_stack((d, np.ones_like(d))),
        facility=Point(0.0, 0.0),
        choices=y,
        masked_points=np.column_stack((d, np.zeros_like(d))),
    )
    direct = fit_distance_choice(d, y)
    via_ds = fit_logit(ds)
    assert via_ds.params == direct.params


# --- intervals and tests ---


def test_z_quantile():
    assert z_quantile(0.95) == pytest.approx(1.959964, abs=1e-6)
    assert z_quantile(0.6827) == pytest.approx(1.0, abs=1e-3)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            z_quantile(bad)


def _fit_stub(alpha=1.0, beta=-2.0, se=(0.2, 0.1), converged=True):
    return LogitFit(
        params=LogitParams(alpha, beta),
        std_errors=se,
        loglik=-10.0,
        information=np.eye(2),
        converged=converged,
        iterations=5,
        gradient_norm=0.0,
    )


def test_wald_ci_values():
    (_, _), (lo, hi) = wald_ci(_fit_stub(), level=0.95)
    assert (lo, hi) == pytest.approx((-2.196, -1.804), abs=1e-3)


def test_wald_ci_one_sigma_level():
    fit = _fit_stub()
    (_, _), (lo, hi) = wald_ci(fit, level=0.6827)
    assert lo == pytest.approx(fit.params.beta - 0.1, abs=1e-3 * 0.1)
    assert hi == pytest.approx(fit.params.beta + 0.1, abs=1e-3 * 0.1)


def test_wald_ci_zero_se_degenerate():
    (alo, ahi), (blo, bhi) = wald_ci(_fit_stub(se=(0.0, 0.0)))
    assert alo == ahi == 1.0 and blo == bhi == -2.0


def test_wald_ci_requires_convergence():
    with pytest.raises(InvalidFitError):
        wald_ci(_fit_stub(converged=False))


def test_logit_params_validation():
    with pytest.raises(ValueError):
        LogitParams(float("nan"), 0.0)
    with pytest.raises(ValueError):
        LogitParams(0.0, float("inf"))
