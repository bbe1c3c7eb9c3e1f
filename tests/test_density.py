import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geomasksim.density import (
    KDE_GRID_SIZE,
    KdeEstimate,
    _quartiles,
    kde,
    silverman_bandwidth,
)


def test_silverman_formula():
    rng = np.random.default_rng(1)
    v = rng.normal(size=1_000)
    sd = np.std(v, ddof=1)
    iqr = np.subtract(*np.percentile(v, [75, 25]))
    expected = 0.9 * min(sd, iqr / 1.34) * 1_000 ** (-0.2)
    assert silverman_bandwidth(v) == pytest.approx(expected, rel=1e-12)


def test_silverman_iqr_zero_falls_back_to_sd():
    # more than half the mass tied at one value: IQR = 0, sd > 0
    v = np.array([0.0] * 80 + [1.0] * 20)
    assert np.percentile(v, 75) - np.percentile(v, 25) == 0.0
    sd = np.std(v, ddof=1)
    assert silverman_bandwidth(v) == pytest.approx(0.9 * sd * 100 ** (-0.2), rel=1e-12)


def test_silverman_degenerate_sample():
    with pytest.raises(ValueError, match="^all values identical$"):
        silverman_bandwidth(np.full(50, 3.14))


def test_silverman_underflowing_spread_is_degenerate():
    # the squared deviations of a spread near 1e-300 round to 0, so sd is 0
    # though the values differ; kde must refuse without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small for a positive bandwidth$"):
            silverman_bandwidth(np.array([0.0, 6.2e-298]))
        with pytest.raises(ValueError, match="too small for a positive bandwidth$"):
            kde(np.array([0.0, 6.2e-298]))


def _with_outlier(n, value, outlier, at):
    v = np.full(n, value)
    v[at % n] = outlier
    return v


_TIED = st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0, 7.0]), min_size=2, max_size=200)
_CONSTANT_RUN = st.builds(
    _with_outlier, st.integers(2, 200), st.floats(-1e3, 1e3), st.floats(-1e6, 1e6), st.integers(0, 199)
)
_PLAIN = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200)
# magnitudes from 1e-300 to 1e300, both signs
_WIDE = st.lists(
    st.builds(
        lambda sign, m, e: sign * m * 10.0**e,
        st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99), st.integers(-300, 299),
    ),
    min_size=2,
    max_size=200,
)


def _silverman_reference(values):
    """The bandwidth through np.percentile itself."""
    sd = float(np.std(values, ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = sd if iqr == 0.0 else min(sd, iqr / 1.34)
    return 0.9 * spread * len(values) ** (-0.2)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_TIED, _CONSTANT_RUN, _PLAIN, _WIDE))
def test_quartiles_bit_equal_to_percentile(values):
    v = np.asarray(values, dtype=np.float64)
    assert np.array(_quartiles(v)).tobytes() == np.percentile(v, [75.0, 25.0]).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_TIED, _CONSTANT_RUN, _PLAIN))
# an IQR of one subnormal: a 5e-324 bandwidth, whose kernel norm overflows
@example([0.0, 0.0, 0.0, 1.0, 5e-324])
def test_silverman_and_kde_grid_bit_equal_to_percentile_reference(values):
    v = np.asarray(values, dtype=np.float64)
    assume(v.min() != v.max())
    bandwidth = _silverman_reference(v)
    if not bandwidth > 0.0:
        # sd underflows to 0 when the spread is near 1e-300: no bandwidth exists
        with pytest.raises(ValueError, match="too small for a positive bandwidth$"):
            silverman_bandwidth(v)
        with pytest.raises(ValueError, match="too small for a positive bandwidth$"):
            kde(v)
        return
    assert np.float64(silverman_bandwidth(v)).tobytes() == np.float64(bandwidth).tobytes()
    est = kde(v)
    assert np.float64(est.bandwidth).tobytes() == np.float64(bandwidth).tobytes()
    want = np.linspace(v.min() - 3.0 * bandwidth, v.max() + 3.0 * bandwidth, KDE_GRID_SIZE)
    assert est.grid.tobytes() == want.tobytes()
    assert np.isfinite(est.density).all()


def _at(est, x):
    """The estimate at x, interpolated linearly on its grid (0 outside it)."""
    return float(np.interp(x, est.grid, est.density, left=0.0, right=0.0))


@pytest.mark.parametrize(
    "values",
    [
        [0.0, 1e-250, 2e-250, 3e-250, 1e6],  # z*z overflows
        [0.0, 1e-300, 2e-300, 3e-300, 1e10],  # z itself overflows
    ],
)
def test_kde_bandwidth_far_below_range_raises_no_warning(values):
    # the bandwidth is hundreds of orders below the range, so grid points
    # lie that many bandwidths from a value: the kernel there is exp(-inf) = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = kde(np.array(values))
    assert np.isfinite(est.density).all()
    assert np.trapezoid(est.density, est.grid) == pytest.approx(1.0)


def test_kde_standard_normal_peak():
    # with Silverman bandwidth b the estimate at 0 concentrates near
    # N(0 | 0, 1 + b^2) = 0.3989/sqrt(1 + b^2); 0.3989 +- 0.02 covers it
    rng = np.random.default_rng(2)
    est = kde(rng.normal(size=100_000))
    assert _at(est, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=0.02)


def test_kde_memory_does_not_grow_with_the_sample():
    # each block of the grid-by-values evaluation holds a bounded number of
    # elements, not a bounded number of grid points times the sample size
    values = np.random.default_rng(1).normal(size=20_000)
    tracemalloc.start()
    try:
        kde(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_kde_density_bits_do_not_depend_on_the_block_size(monkeypatch):
    import geomasksim.density as density

    values = np.random.default_rng(4).standard_cauchy(size=3_000)
    expected = kde(values).density.tobytes()
    for elements in (1, 2_999, 3_000, 3_001, 10**6, 10**7):
        monkeypatch.setattr(density, "_EVAL_ELEMENTS", elements)
        assert kde(values).density.tobytes() == expected, elements


def test_kde_integral_is_one():
    rng = np.random.default_rng(3)
    for values in (rng.normal(size=10_000), rng.uniform(size=500), np.array([0.0, 1.0])):
        est = kde(values)
        assert np.trapezoid(est.density, est.grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_grid_shape_and_span():
    rng = np.random.default_rng(4)
    v = rng.normal(size=256)
    est = kde(v)
    assert est.bandwidth == silverman_bandwidth(v)
    assert est.grid.shape == (KDE_GRID_SIZE,)
    assert est.grid[0] == pytest.approx(v.min() - 3.0 * est.bandwidth)
    assert est.grid[-1] == pytest.approx(v.max() + 3.0 * est.bandwidth)


def test_kde_bimodal_sample():
    # two sharp modes near -1 and 1, a trough between (bandwidth about 0.23)
    v = np.concatenate([np.full(500, -1.0), np.full(500, 1.0)])
    est = kde(v)
    assert _at(est, -1.0) > 5 * _at(est, 0.0)
    assert _at(est, 1.0) > 5 * _at(est, 0.0)
    assert _at(est, -1.0) == pytest.approx(_at(est, 1.0), rel=1e-6)


def test_kde_input_validation():
    with pytest.raises(ValueError):
        kde(np.array([1.0]))
    with pytest.raises(ValueError):
        kde(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="^all values identical$"):
        kde(np.full(10, 2.0))


@pytest.mark.parametrize(
    "values",
    [[1e308, -2.0, -1.5], [1.7e308, 1.7e308, -1.7e308], [-1e308, 1e308, 0.0], [-1e308, 1e308, *np.linspace(0.0, 1.0, 50)]],
)
def test_kde_spread_beyond_float_range_raises_value_error(values):
    # the sd or the grid span overflows; this is a ValueError, and no
    # RuntimeWarning (an error under this suite's warning filter) comes first
    with pytest.raises(ValueError, match="too wide for a finite grid"):
        kde(np.array(values))


def test_kde_at_outside_grid_is_zero():
    est = kde(np.array([0.0, 1.0]))
    assert _at(est, est.grid[0] - 1.0) == 0.0
    assert _at(est, est.grid[-1] + 1.0) == 0.0


def test_kde_density_nonnegative_and_finite():
    rng = np.random.default_rng(5)
    est = kde(rng.exponential(size=2_000))
    assert (est.density >= 0.0).all()
    assert np.isfinite(est.density).all()


def test_kde_estimate_validation():
    with pytest.raises(ValueError):
        KdeEstimate(grid=np.arange(4.0), density=np.arange(3.0), bandwidth=0.1)
    with pytest.raises(ValueError):
        KdeEstimate(grid=np.arange(4.0), density=np.ones(4), bandwidth=0.0)
    with pytest.raises(ValueError):
        KdeEstimate(grid=np.arange(4.0), density=np.array([0.1, -0.1, 0.1, 0.1]), bandwidth=0.1)


def test_kde_matches_direct_sum_small_sample():
    # the chunked, overflow-tolerant evaluation gives the bits of the
    # naive single-shot kernel sum, and warns of nothing on ordinary data
    rng = np.random.default_rng(6)
    v = rng.normal(size=300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = kde(v)
    b = est.bandwidth
    z = (est.grid[:, None] - v[None, :]) / b
    direct = 1.0 / (300 * b * np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * z * z).sum(axis=1)
    direct /= np.trapezoid(direct, est.grid)
    assert est.density.tobytes() == direct.tobytes()
