import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from geomasksim.geometry import Point
from geomasksim.logit import (
    CONVERGED,
    DEFAULT_TOL,
    NOT_CONVERGED,
    SEPARATED,
    SINGULAR,
    Z_95,
    InvalidFitError,
    LogitFit,
    LogitParams,
    _BLOCK,
    _SATURATED,
    _TINY,
    _block,
    _loglik,
    _moments,
    _origin,
    choice_probability,
    fit_distance_choice,
    fit_rows,
    log_likelihood,
    observed_information,
    score,
    wald_ci,
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
    for y in ([1, 1, 1], [0, 0, 0]):
        with pytest.raises(InvalidFitError, match=r"^the choices are separated, all identical or split by a distance cut: no logit MLE exists$"):
            fit_distance_choice(np.array([0.1, 0.5, 0.9]), np.array(y))


def test_fit_quasi_separation_runs_away_and_is_separated():
    # a 0.002-wide gap around the separating threshold pushes the runaway
    # estimates past the divergence bound before the probabilities saturate;
    # the sample is completely separated, so the fit has no estimate
    d = np.array([0.45, 0.499, 0.501, 0.55])
    y = np.array([0, 0, 1, 1])
    assert fit_rows(d, y, max_iter=5).status[0] == NOT_CONVERGED  # a stop by max_iter is not tested
    fits = fit_rows(d, y)
    assert fits.status[0] == SEPARATED and fits.iterations[0] == 0 and np.isnan(fits.beta[0])
    with pytest.raises(InvalidFitError, match="separated"):
        fit_distance_choice(d, y)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_separated_samples_that_converge_or_run_away_are_separated(seed):
    # y = (d < 0.4) on 200 points: from seeds 1 and 2 the fit saturates and
    # meets the gradient rule (beta near -1594 and -8982) with a weight sum
    # of 5.4e-7 and 4.0e-8; from seed 0 it runs past the divergence bound
    d = np.random.default_rng(seed).uniform(0.0, 0.7, 200)
    y = d < 0.4
    fits = fit_rows(d, y)
    assert fits.status[0] == SEPARATED and fits.iterations[0] == 0
    for name in ("alpha", "beta", "std_errors", "information", "gradient_norm"):
        assert np.isnan(getattr(fits, name)).all(), name
    with pytest.raises(InvalidFitError, match="separated"):
        fit_distance_choice(d, y)


def test_regular_rows_are_not_tested_for_separation(monkeypatch):
    # the exact test runs only on rows that run away or converge saturated:
    # replicated rows at n = 1000 pay no pass for it
    import geomasksim.logit as logit

    calls = []
    monkeypatch.setattr(logit, "_separated", lambda D, Y: calls.append(len(D)) or np.zeros(len(D), dtype=bool))
    sims = [_sim(1000, seed=seed) for seed in range(16)]
    fits = fit_rows(np.stack([d for d, _ in sims]), np.stack([y for _, y in sims]))
    assert (fits.status == CONVERGED).all() and (fits.information[:, 0, 0] > 50 * _SATURATED).all()
    assert calls == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 10), rows=st.integers(1, 4),
       scale=st.sampled_from([1e-3, 0.1, 1.0, 1e3]), offset=st.sampled_from([0.0, 0.3]))
def test_fit_rows_separated_exactly_where_a_cut_splits_the_choices(data, n, rows, scale, offset):
    # distances on a lattice of five values, so that ties at the cut are
    # common: a row is SEPARATED exactly when its choices are all equal or
    # the brute-force cut oracle splits them, and a row has an estimate
    # exactly when it is neither SEPARATED nor SINGULAR
    lattice = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    D = np.array([data.draw(lattice) for _ in range(rows)]) * scale + offset
    Y = np.array([data.draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(rows)])
    fits = fit_rows(D, Y)
    for i in range(rows):
        separated = Y[i].min() == Y[i].max() or _cut_separated(D[i], Y[i])
        assert (fits.status[i] == SEPARATED) == separated, (D[i], Y[i], fits.status[i])
        estimate = fits.status[i] in (CONVERGED, NOT_CONVERGED)
        assert np.isfinite(fits.alpha[i]) == estimate and np.isfinite(fits.beta[i]) == estimate
        assert estimate or (fits.iterations[i] == 0 and np.isnan(fits.information[i]).all())


def test_fit_singular_information_on_constant_distance():
    with pytest.raises(InvalidFitError, match=r"^the information matrix is singular, so the distance slope"):
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


# --- the row-batched kernel ---

_ROW_FIELDS = ("alpha", "beta", "std_errors", "information", "iterations", "gradient_norm", "status")


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def _assert_rows_match_one_row_calls(D, Y, **kw):
    """Every row of one fit_rows block is bit-identical to fitting that row
    alone, and a row with an estimate stores the one-row helpers' values at
    that estimate; fit_distance_choice reports the log-likelihood there."""
    block = fit_rows(D, Y, **kw)
    for i in range(D.shape[0]):
        alone = fit_rows(D[i], Y[i], **kw)
        for name in _ROW_FIELDS:
            got, want = getattr(block, name)[i], getattr(alone, name)[0]
            assert np.array_equal(got, want, equal_nan=True), (i, name, got, want)
        if block.status[i] in (CONVERGED, NOT_CONVERGED):
            p = LogitParams(float(block.alpha[i]), float(block.beta[i]))
            at_estimate = {
                "information": observed_information(D[i], p),
                "gradient_norm": np.abs(score(D[i], Y[i], p)).max(),
            }
            for name, want in at_estimate.items():
                got = getattr(block, name)[i]
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (i, name, got, want)
            fit = fit_distance_choice(D[i], Y[i], **kw)
            assert fit.params == p
            assert _bits(fit.loglik) == _bits(log_likelihood(D[i], Y[i], p)), (i, fit.loglik)
    return block


def _cut_separated(d, y):
    """Whether some cut c, tried at every distance, has each choice's
    distances on a side of its own (ties at c allowed), the distances not
    all equal: brute force over cut points, where the MLE does not exist
    (Albert & Anderson, Biometrika 71, 1984)."""
    ones, zeros = d[y != 0], d[y == 0]
    return bool(d.min() < d.max()) and any(
        (ones <= c).all() and (zeros >= c).all() or (zeros <= c).all() and (ones >= c).all() for c in d
    )


def _oracle_fit(d, y, init=LogitParams(0.0, 0.0), tol=DEFAULT_TOL, max_iter=100):
    """One row's Newton loop with the documented rules applied literally,
    from the public one-row helpers: stop on divergence or max_iter, then
    on a singular information, then on a small gradient; take a step's
    candidate iff its log-likelihood is at least ll - 1e-10 * (1 + |ll|),
    halving the step down to 2**-39, whose candidate is taken regardless.
    A row with all-equal choices, or that ran away or converged with a
    weight sum below _SATURATED and is separated by a cut, is SEPARATED;
    a SEPARATED or SINGULAR row has no estimate.

    Returns the row's fit_rows fields and the log-likelihood at the
    estimate (None for a row without one)."""
    nan = math.nan
    no_estimate = {
        "alpha": nan, "beta": nan, "std_errors": [nan, nan], "information": np.full((2, 2), nan),
        "iterations": 0, "gradient_norm": nan,
    }
    if y.min() == y.max():
        return {**no_estimate, "status": SEPARATED}, None

    def loglik(a, b):
        # a non-finite candidate has no log-likelihood and fails the comparison
        return log_likelihood(d, y, LogitParams(a, b)) if math.isfinite(a) and math.isfinite(b) else nan

    a, b = init.alpha, init.beta
    for steps in range(max_iter + 1):
        p = LogitParams(a, b)
        g, info = score(d, y, p), observed_information(d, p)
        det = info[0, 0] * info[1, 1] - info[0, 1] * info[0, 1]
        ran_away = abs(a) > 1e4 or abs(b) > 1e4
        out = ran_away or steps == max_iter
        singular = not (np.isfinite(det) and det >= _TINY * max(1.0, info[0, 0], info[1, 1]))
        if out or singular or np.abs(g).max() < tol:
            break
        step_a = (info[1, 1] * g[0] - info[0, 1] * g[1]) / det
        step_b = (info[0, 0] * g[1] - info[0, 1] * g[0]) / det
        ll = log_likelihood(d, y, p)
        scale = 1.0
        while True:
            ca, cb = a + scale * step_a, b + scale * step_b
            if loglik(ca, cb) >= ll - 1e-10 * (1.0 + abs(ll)) or scale == 2.0**-39:
                break
            scale *= 0.5
        a, b = ca, cb
    status = NOT_CONVERGED if out else SINGULAR if singular else CONVERGED
    if (ran_away or status == CONVERGED and info[0, 0] < _SATURATED) and _cut_separated(d, y):
        status = SEPARATED
    if status in (SEPARATED, SINGULAR):
        return {**no_estimate, "status": status}, None
    return {
        "alpha": a,
        "beta": b,
        "std_errors": np.sqrt(np.array([info[1, 1], info[0, 0]]) / (det if det > 0.0 else nan)),
        "information": info,
        "iterations": steps,
        "gradient_norm": np.abs(g).max(),
        "status": status,
    }, log_likelihood(d, y, p)


def _assert_rows_match_oracle(D, Y, **kw):
    """Every field of every fit_rows row, and fit_distance_choice's
    log-likelihood, are the oracle's bits."""
    block = fit_rows(D, Y, **kw)
    for i in range(D.shape[0]):
        want, loglik = _oracle_fit(D[i], Y[i], **kw)
        assert set(want) == set(_ROW_FIELDS)
        for name, value in want.items():
            got = getattr(block, name)[i]
            assert got.tobytes() == np.asarray(value, dtype=got.dtype).tobytes(), (i, name, got, value)
        if loglik is None:
            with pytest.raises(InvalidFitError, match=_NO_ESTIMATE[block.status[i]]):
                fit_distance_choice(D[i], Y[i], **kw)
        else:
            assert _bits(fit_distance_choice(D[i], Y[i], **kw).loglik) == _bits(loglik), i
    return block


# the word each row status without an estimate names in fit_distance_choice's InvalidFitError
_NO_ESTIMATE = {SEPARATED: "separated", SINGULAR: "singular"}


def _mixed_block():
    """Rows: ordinary, ordinary reversed, all-equal choices (separation),
    constant distance (singular), separated by a 0.002-wide gap (runaway
    past the divergence bound, then separated)."""
    n = 40
    rng = np.random.default_rng(3)
    d = rng.uniform(0.0, 1.0, n)
    y = (rng.uniform(size=n) < expit(1.0 - 2.0 * d)).astype(float)
    # the separated sample of test_fit_quasi_separation_runs_away_and_is_separated, ten times over
    quasi_d = np.tile([0.45, 0.499, 0.501, 0.55], 10)
    quasi_y = np.tile([0.0, 0.0, 1.0, 1.0], 10)
    D = np.stack([d, d[::-1], d, np.full(n, 0.5), quasi_d])
    Y = np.stack([y, y, np.ones(n), np.tile([0.0, 1.0], n // 2), quasi_y])
    return D, Y


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64])
@pytest.mark.parametrize("init", [LogitParams(0.0, 0.0), LogitParams(2.0, 2.0)])
def test_fit_rows_reads_bool_and_integer_choices_as_their_float_values(dtype, init):
    # ufuncs cast 0 and 1 to float64 exactly, so the choices need no float64
    # copy and every field keeps its bits: 2-D rows (a SEPARATED one among
    # them), a choice vector shared by every row, rows that are all
    # SEPARATED, and one row; from (2, 2) the steps are halved
    D, Y = _mixed_block()
    shared = np.stack([D[0], D[0][::-1], np.full(D.shape[1], 0.5)])
    for d, y in ((D, Y), (shared, Y[0]), (D[:2], Y[2]), (D[0], Y[0])):
        typed = y.astype(dtype)
        assert np.shares_memory(_block(d, typed)[1], typed)
        want, got = fit_rows(d, y, init=init), fit_rows(d, typed, init=init)
        for name in _ROW_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (dtype, name)
    want, got = fit_distance_choice(D[0], Y[0], init=init), fit_distance_choice(D[0], Y[0].astype(dtype), init=init)
    assert _bits(got.loglik) == _bits(want.loglik) and got.params == want.params


@pytest.mark.parametrize("max_iter", [100, 1])
@pytest.mark.parametrize("init", [LogitParams(0.0, 0.0), LogitParams(2.0, 2.0)])
def test_fit_rows_mixed_block_matches_one_row_calls(init, max_iter):
    D, Y = _mixed_block()
    block = _assert_rows_match_one_row_calls(D, Y, init=init, max_iter=max_iter)
    _assert_rows_match_oracle(D, Y, init=init, max_iter=max_iter)
    # in one step the separated row neither runs away nor converges
    first, last = (CONVERGED, SEPARATED) if max_iter > 1 else (NOT_CONVERGED, NOT_CONVERGED)
    assert block.status.tolist() == [first, first, SEPARATED, SINGULAR, last]
    assert (block.iterations[2:4] == 0).all() and np.isnan(block.beta[2:4]).all()  # no estimate
    # the same rows in another order and as subsets give the same bits
    for order in ([4, 3, 2, 1, 0], [1, 4], [0]):
        again = fit_rows(D[order], Y[order], init=init, max_iter=max_iter)
        for name in _ROW_FIELDS:
            assert np.array_equal(getattr(again, name), getattr(block, name)[order], equal_nan=True)
    # the one-row front end reports the same rows, or raises for them
    for i in range(D.shape[0]):
        if block.status[i] in _NO_ESTIMATE:
            with pytest.raises(InvalidFitError, match=_NO_ESTIMATE[block.status[i]]):
                fit_distance_choice(D[i], Y[i], init=init, max_iter=max_iter)
        else:
            fit = fit_distance_choice(D[i], Y[i], init=init, max_iter=max_iter)
            assert (fit.params.alpha, fit.params.beta) == (block.alpha[i], block.beta[i])
            assert fit.std_errors == tuple(block.std_errors[i])
            assert fit.iterations == block.iterations[i]
            assert _bits(fit.loglik) == _bits(log_likelihood(D[i], Y[i], fit.params))


def test_fit_rows_far_start_needs_step_halving():
    # from (2, 2) the full Newton step of the ordinary row lowers the
    # log-likelihood, so the mixed-block test at that start exercises halving
    D, Y = _mixed_block()
    d, y = D[0], Y[0]
    p = LogitParams(2.0, 2.0)
    step = np.linalg.solve(observed_information(d, p), score(d, y, p))
    full = LogitParams(p.alpha + step[0], p.beta + step[1])
    assert log_likelihood(d, y, full) < log_likelihood(d, y, p)
    fit = fit_distance_choice(d, y, init=p, max_iter=1)
    assert (fit.params.alpha, fit.params.beta) != (full.alpha, full.beta)
    assert fit.loglik >= log_likelihood(d, y, p)


def test_fit_rows_start_beyond_divergence_bound_stops_at_once():
    # the runaway rule reads the current estimate, so a start past the bound
    # is reported as it is, NOT_CONVERGED after no step, unless a cut
    # separates the row; equal distances (row 3) are not separated
    D, Y = _mixed_block()
    fits = fit_rows(D, Y, init=LogitParams(0.0, -2e4))
    assert fits.status.tolist() == [NOT_CONVERGED, NOT_CONVERGED, SEPARATED, NOT_CONVERGED, SEPARATED]
    separated = fits.status == SEPARATED
    assert (fits.iterations == 0).all() and (fits.beta[~separated] == -2e4).all()


def _full_step(d, y, p):
    """The full Newton candidate from p, with fit_rows' arithmetic, and the
    slope of the log-likelihood along the step there."""
    g, info = score(d, y, p), observed_information(d, p)
    det = info[0, 0] * info[1, 1] - info[0, 1] * info[0, 1]
    step = np.array([info[1, 1] * g[0] - info[0, 1] * g[1], info[0, 0] * g[1] - info[0, 1] * g[0]]) / det
    full = LogitParams(p.alpha + step[0], p.beta + step[1])
    return full, float(score(d, y, full) @ step)


@pytest.fixture
def loglik_rows(monkeypatch):
    """Rows of every log-likelihood the fit evaluates, one entry per call."""
    import geomasksim.logit as logit

    calls = []
    real = logit._loglik

    def counted(D, Y, *args):
        calls.append(Y.shape[0])
        return real(D, Y, *args)

    monkeypatch.setattr(logit, "_loglik", counted)
    return calls


def test_overshooting_step_kept_without_halving(loglik_rows):
    # from (0, 2) the full step of row 0 passes the maximum along the step
    # (negative slope at its end) yet raises the log-likelihood: the slope
    # test sends it to the halving rule, which keeps the full step. Row 1
    # (distances doubled) is lowered by its full step and halved; row 2
    # passes the slope test and evaluates no log-likelihood.
    D, Y = _mixed_block()
    D, Y = np.stack([D[0], 2.0 * D[0], D[4]]), Y[[0, 0, 4]]
    init = LogitParams(0.0, 2.0)
    ll0 = [log_likelihood(d, y, init) for d, y in zip(D, Y)]
    full, slope = zip(*(_full_step(d, y, init) for d, y in zip(D, Y)))
    ll1 = [log_likelihood(d, y, p) for d, y, p in zip(D, Y, full)]
    assert slope[0] < -1e-10 and ll1[0] > ll0[0]
    assert ll1[1] < ll0[1]
    assert slope[2] >= -1e-10
    # rows, and the rows of its first log-likelihood evaluation: once any
    # row fails the slope test, the whole block's, at its old point
    for rows, first in (([0], [1]), ([1], [1]), ([2], []), ([0, 1, 2], [3])):
        loglik_rows.clear()
        fits = fit_rows(D[rows], Y[rows], init=init, max_iter=1)
        took_full = [(fits.alpha[k], fits.beta[k]) == (full[i].alpha, full[i].beta) for k, i in enumerate(rows)]
        assert took_full == [i != 1 for i in rows]
        assert loglik_rows[:1] == first
        for max_iter in (1, 100):
            _assert_rows_match_oracle(D[rows], Y[rows], init=init, max_iter=max_iter)


def test_replicated_fits_evaluate_no_loglik(loglik_rows):
    import geomasksim.experiments as exp
    from geomasksim.masking import MaskSpec

    sims = [_sim(1000, seed=seed) for seed in range(16)]
    D, Y = np.stack([d for d, _ in sims]), np.stack([y for _, y in sims])
    assert (fit_rows(D, Y).status == CONVERGED).all()
    assert (fit_rows(*_sim(100_000, seed=7)).status == CONVERGED).all()
    # one fit_rows chunk of the replication kernel: 16 rows at n = 1000
    xy = np.random.default_rng(45).uniform(-0.5, 0.5, size=(1000, 2))
    y = (np.random.default_rng(46).random(1000) < expit(1.0 - 2.0 * np.hypot(*xy.T))).astype(np.float64)
    assert exp._row_chunks(range(16), 1000) == [range(16)]
    spec = MaskSpec("uniform", 0.0, "unconstrained")
    (fits,) = exp._run_cells([([(0, 0.1)], 16, True)], xy, Point(0.0, 0.0), None, spec, 41, 1, y=y)
    assert fits["converged"].all()
    assert loglik_rows == []
    # the one-row front end evaluates the log-likelihood once, at its estimate
    for k in range(3):
        fit_distance_choice(*_sim(500, seed=k))
        assert len(loglik_rows) == k + 1
    # a start whose full steps lower the log-likelihood evaluates it
    loglik_rows.clear()
    fit_rows(*_mixed_block(), init=LogitParams(2.0, 2.0))
    assert loglik_rows


def test_fit_rows_shared_distance_or_choices_broadcast():
    D, Y = _mixed_block()
    shared_d = fit_rows(D[0], Y[:2])
    stacked = fit_rows(np.stack([D[0], D[0]]), Y[:2])
    for name in _ROW_FIELDS:
        assert np.array_equal(getattr(shared_d, name), getattr(stacked, name), equal_nan=True)


def _reference_fit(d, y, max_iter=100, tol=1e-8):
    """The textbook Newton loop, one point per call, with logaddexp and expit
    arithmetic: the reference the fused kernel is compared against."""

    def loglik(a, b):
        eta = a + b * d
        return -(y * np.logaddexp(0.0, -eta) + (1 - y) * np.logaddexp(0.0, eta)).sum()

    a = b = 0.0
    ll = loglik(a, b)
    for it in range(1, max_iter + 1):
        p = expit(a + b * d)
        r, w = y - p, p * (1.0 - p)
        g = np.array([r.sum(), (r * d).sum()])
        info = np.array([[w.sum(), (w * d).sum()], [(w * d).sum(), (w * d * d).sum()]])
        if np.abs(g).max() < tol:
            return a, b, it - 1, True
        step = np.linalg.solve(info, g)
        scale = 1.0
        for _ in range(40):
            cand = loglik(a + scale * step[0], b + scale * step[1])
            if cand >= ll - 1e-10 * (1.0 + abs(ll)):
                break
            scale *= 0.5
        a, b, ll = a + scale * step[0], b + scale * step[1], cand
        if abs(a) > 1e4 or abs(b) > 1e4:
            return a, b, it, False
    return a, b, max_iter, False


def test_fused_pass_matches_reference_arithmetic():
    # tolerances fixed from float64 rounding of 200-term sums, not measured
    rng = np.random.default_rng(15)
    for _ in range(50):
        d, y = _sim(200, alpha=rng.uniform(-3, 3), beta=rng.uniform(-8, 8), seed=int(rng.integers(2**31)))
        p = LogitParams(rng.uniform(-40, 40), rng.uniform(-80, 80))
        eta = p.alpha + p.beta * d
        lam = expit(eta)
        ll = -(y * np.logaddexp(0.0, -eta) + (1 - y) * np.logaddexp(0.0, eta)).sum()
        assert log_likelihood(d, y, p) == pytest.approx(ll, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(score(d, y, p), [(y - lam).sum(), ((y - lam) * d).sum()], rtol=1e-12, atol=1e-12)
        w = lam * (1.0 - lam)
        want = [[w.sum(), (w * d).sum()], [(w * d).sum(), (w * d * d).sum()]]
        np.testing.assert_allclose(observed_information(d, p), want, rtol=1e-9, atol=1e-12)


def test_fits_match_reference_newton_loop():
    # same stopping decisions; estimates within the 1e-7 the stop rule allows
    # two correct implementations (see perfbench/checks.py). The reference
    # has no separation test, so a separated sample is checked on its own.
    rng = np.random.default_rng(16)
    for k in range(60):
        n = int(rng.choice([8, 30, 200, 1000]))
        d, y = _sim(n, alpha=rng.uniform(-3, 3), beta=rng.uniform(-20, 20), seed=k)
        if _cut_separated(d, y):
            with pytest.raises(InvalidFitError, match="separated"):
                fit_distance_choice(d, y)
            continue
        a, b, iterations, converged = _reference_fit(d, y.astype(float))
        fit = fit_distance_choice(d, y)
        assert (fit.iterations, fit.converged) == (iterations, converged)
        if converged:
            assert fit.params.alpha == pytest.approx(a, abs=1e-7)
            assert fit.params.beta == pytest.approx(b, abs=1e-7)


def _extreme_block(seed, rows, n, alpha, beta):
    # at these (alpha, beta) on d in [0, 2] many rows are separated or run away
    rng = np.random.default_rng(seed)
    D = rng.uniform(0.0, 2.0, (rows, n))
    return D, (rng.uniform(size=(rows, n)) < expit(alpha + beta * D)).astype(float)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 5),
    n=st.integers(2, 12),
    alpha=st.floats(-1e3, 1e3),
    beta=st.floats(-1e4, 1e4),
    max_iter=st.sampled_from([1, 3, 100]),
)
def test_fit_rows_rows_independent_property(seed, rows, n, alpha, beta, max_iter):
    _assert_rows_match_one_row_calls(*_extreme_block(seed, rows, n, alpha, beta), max_iter=max_iter)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 5),
    n=st.integers(2, 12),
    alpha=st.floats(-1e3, 1e3),
    beta=st.floats(-1e4, 1e4),
    init=st.sampled_from([LogitParams(0.0, 0.0), LogitParams(2.0, 2.0)]),
    max_iter=st.sampled_from([1, 3, 100]),
)
def test_fit_rows_matches_halving_rule_oracle_property(seed, rows, n, alpha, beta, init, max_iter):
    _assert_rows_match_oracle(*_extreme_block(seed, rows, n, alpha, beta), init=init, max_iter=max_iter)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 5),
    n=st.integers(1, 300),
    scale=st.sampled_from([1e-3, 1.0, 50.0]),
    signed=st.booleans(),
    shared_y=st.booleans(),
    singular=st.booleans(),
)
def test_origin_pass_bit_equal_to_general_pass(seed, rows, n, scale, signed, shared_y, singular):
    # at alpha = beta = 0, eta = +0.0 and e = 1 at every point: the closed
    # form must give the general helpers' moments there
    rng = np.random.default_rng(seed)
    D = rng.uniform(-scale if signed else 0.0, scale, (rows, n))
    if singular:
        D[rng.integers(rows)] = rng.uniform(0.0, scale)  # equal distances: a singular row
    Y = (rng.uniform(size=(1 if shared_y else rows, n)) < 0.5).astype(float)
    D, Y = _block(D, Y[0] if shared_y else Y)
    H, E, T1, T2 = np.empty((4, rows, n))
    M = _origin(D, Y, H, E, T1, T2)
    H[:], E[:] = 0.0, 1.0
    assert M.tobytes() == _moments(D, Y, H, E, T1, T2).tobytes()


@pytest.mark.parametrize("k", [129, 1000, 32769, 100_000, 262_147])
def test_numpy_sums_a_run_as_the_sum_of_its_pairwise_halves(k):
    # the column blocks of logit's passes rest on this: a float64 sum of
    # k > 128 contiguous elements is the sum of its first h elements plus
    # the sum of the rest, added left + right
    rng = np.random.default_rng(k)
    h = k // 2 - k // 2 % 8
    x = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, k)
    wide = rng.standard_normal((3, k + 9)) * 10.0 ** rng.integers(-8, 9, (3, k + 9))
    X = wide[:, 4 : 4 + k]  # rows of a slice of a wider array, as the passes' blocks are
    why = (
        f"numpy {np.__version__} does not sum {k} elements as the sum of its pairwise halves: "
        "the blocked Newton passes in logit no longer reproduce unblocked sums"
    )
    assert _bits(x[:h].sum() + x[h:].sum()) == _bits(x.sum()), why
    assert _bits(X[:, :h].sum(axis=1) + X[:, h:].sum(axis=1)) == _bits(X.sum(axis=1)), why


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 100_000, 100_003])
@pytest.mark.parametrize("rows", [1, 3])
def test_blocked_passes_give_the_bits_of_one_block(monkeypatch, loglik_rows, rows, n):
    import geomasksim.logit as logit

    rng = np.random.default_rng(n + rows)
    D = rng.uniform(0.0, 1.0, (rows, n))
    Y = (rng.uniform(size=(rows, n)) < expit(1.0 - 2.0 * D)).astype(float)
    Y[1:2] = 1.0  # a separated row: NaN fields
    # from (2, 2) the full steps lower the log-likelihood, so the fit halves them
    calls = [{}, {"init": LogitParams(2.0, 2.0)}, {"max_iter": 1}, {"init": LogitParams(2.0, 2.0), "max_iter": 2}]
    blocked = [fit_rows(D, Y, **kw) for kw in calls]
    assert loglik_rows
    p = LogitParams(0.5, -1.5)
    at_p = [log_likelihood(D[0], Y[0], p), score(D[0], Y[0], p), observed_information(D[0], p)]
    monkeypatch.setattr(logit, "_BLOCK", n)
    for kw, got in zip(calls, blocked):
        want = fit_rows(D, Y, **kw)
        for name in _ROW_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (kw, name)
    want = [log_likelihood(D[0], Y[0], p), score(D[0], Y[0], p), observed_information(D[0], p)]
    assert [_bits(v) for v in at_p] == [_bits(v) for v in want]


def test_fit_scratch_memory_does_not_grow_with_n():
    # four work arrays of at most _BLOCK points: 1 MB at any n, where
    # whole-row work arrays would take 6.4 MB at n = 200,000. From (2, 2)
    # the steps are halved in place, with no copy of the row.
    d, y = _sim(200_000, seed=5)
    y = y.astype(np.float64)
    for init in (LogitParams(0.0, 0.0), LogitParams(2.0, 2.0)):
        tracemalloc.start()
        try:
            fit = fit_distance_choice(d, y, init=init)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fit.converged
        assert peak <= 1.5e6, (init, peak)


def test_fit_rows_without_iterations_reports_the_origin():
    # with max_iter = 0 no Newton step is taken, and every field describes
    # the start point as the general helpers compute it, gradient norm
    # included; fit_distance_choice reports the log-likelihood there
    D, Y = _mixed_block()
    fits = fit_rows(D, Y, max_iter=0)
    H, E, T1, T2 = np.empty((4,) + D.shape)
    H[:], E[:] = 0.0, 1.0
    ll = _loglik(D, Y, H, E, T1, T2)
    M = _moments(D, Y, H, E, T1, T2)
    sw, swd, swd2 = M[:, 2:].T
    det = sw * swd2 - swd**2
    live = np.array([True, True, False, True, True])  # row 2 has all-equal choices
    want = {
        "alpha": np.where(live, 0.0, math.nan),
        "beta": np.where(live, 0.0, math.nan),
        "std_errors": np.where(
            live[:, None], np.sqrt(np.column_stack((swd2, sw)) / np.where(det > 0.0, det, math.nan)[:, None]), math.nan
        ),
        "information": np.where(live[:, None, None], M[:, [2, 3, 3, 4]].reshape(-1, 2, 2), math.nan),
        "iterations": np.zeros(5, dtype=np.int64),
        "gradient_norm": np.where(live, np.maximum(np.abs(M[:, 0]), np.abs(M[:, 1])), math.nan),
        "status": np.where(live, NOT_CONVERGED, SEPARATED).astype(np.int8),
    }
    assert set(want) == set(_ROW_FIELDS)
    for name, value in want.items():
        got = getattr(fits, name)
        assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name
    for i in np.flatnonzero(live):
        assert _bits(fit_distance_choice(D[i], Y[i], max_iter=0).loglik) == _bits(ll[i]), i


# --- the logistic function ---


# signed zeros, and where exp(-|eta|) goes subnormal (709) and to 0 (745)
_ETA_EDGES = (0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0)


def _eta_grid():
    """A sorted sample of [-800, 800]: the edges, a fine even grid and random draws."""
    rng = np.random.default_rng(17)
    return np.sort(np.concatenate([
        _ETA_EDGES,
        np.linspace(-800.0, 800.0, 160_001),
        rng.uniform(-800.0, 800.0, 100_000),
        rng.uniform(-40.0, 40.0, 100_000),
    ]))


def test_choice_probability_matches_expit():
    # each rounds two or three times, so they may differ by up to 2**-52
    eps = np.finfo(np.float64).eps
    eta = _eta_grid()
    assert np.abs(choice_probability(eta) - expit(eta)).max() <= eps
    for edge in _ETA_EDGES:
        assert abs(float(choice_probability(edge)) - float(expit(edge))) <= eps


def test_choice_probability_raises_no_floating_point_error():
    # exp(-|eta|) only shrinks: it goes subnormal beyond |eta| ~ 708.4, which
    # is the exact rounding of a tiny value, so underflow is let through;
    # nothing overflows, divides by zero or goes invalid
    with np.errstate(all="raise", under="ignore"):
        p = choice_probability(_eta_grid())
    assert np.isfinite(p).all()
    with np.errstate(all="raise"):
        choice_probability(np.linspace(-708.0, 708.0, 10_001))


def test_choice_probability_half_at_zero():
    assert float(choice_probability(0.0)) == 0.5
    assert float(choice_probability(-0.0)) == 0.5
    assert (choice_probability(np.zeros((2, 3))) == 0.5).all()


def test_choice_probability_in_unit_interval_and_nondecreasing():
    p = choice_probability(_eta_grid())
    assert ((p >= 0.0) & (p <= 1.0)).all()
    assert (np.diff(p) >= 0.0).all()
    assert p[0] == 0.0 and p[-1] == 1.0


def _where_form(eta):
    """The reference form of the logistic function, one new array per step:
    where(eta >= 0, 1, e) / (1 + e), e = exp(-|eta|)."""
    eta = np.asarray(eta, dtype=np.float64)
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0.0, 1.0, e) / (1.0 + e)


def test_choice_probability_bits_match_the_where_form():
    # computed in place, with no where copy: the same operations in the same
    # order, so the same bits, the same type and shape, and the argument
    # left as it was
    rng = np.random.default_rng(29)
    edges = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 1e308, -1e308]
    draws = np.concatenate([rng.uniform(-800.0, 800.0, 500), rng.normal(0.0, 3.0, 500)])
    values = np.concatenate([edges, draws])
    inputs = [
        *edges,  # Python floats
        *(np.asarray(v) for v in edges),  # 0-d arrays
        draws.astype(np.float32),
        values,
        values.reshape(2, -1),  # (R, n)
        values.reshape(2, -1)[:, ::3],  # strided
    ]
    for eta in inputs:
        before = np.array(eta, copy=True)
        got, want = choice_probability(eta), _where_form(eta)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.asarray(eta).tobytes() == before.tobytes()
    # written over its own float64 argument: the same bits, in that array
    eta = values.reshape(2, -1).copy()
    want = _where_form(eta)
    assert choice_probability(eta, out=eta) is eta
    assert eta.tobytes() == want.tobytes()


# --- intervals and tests ---


def test_z_95_is_the_two_sided_95_percent_quantile():
    assert Z_95 == pytest.approx(1.959964, abs=1e-6)


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
    (_, _), (lo, hi) = wald_ci(_fit_stub())
    assert (lo, hi) == pytest.approx((-2.196, -1.804), abs=1e-3)


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
