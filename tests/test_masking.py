import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from geomasksim.geometry import UNIT_SQUARE, Point, facility_distances
from geomasksim.masking import (
    GAUSSIAN_CALIBRATION,
    _BLOCK,
    _LAWS,
    MaskSpec,
    _direction,
    _inside,
    checked_bounds,
    mask_coordinates,
    mask_rows,
)
from geomasksim.population import GridCells, build_municipality_grid
from geomasksim.rng import GeneratorPool, derive_stream

from mask_oracle import BOUNDS_KINDS, Exhausted, bounds_for, exhaustion_message, mask_one

SQUARE = np.asarray(UNIT_SQUARE.bounds)
TWO_PI = 2.0 * math.pi


def _square_cells(xy):
    """Each point's cell of the 1 x 1 grid: the unit square, as per-point bounds."""
    return build_municipality_grid(1).cells(xy)


def _in_square(xy):
    return _inside(xy[:, 0], xy[:, 1], SQUARE)


def _displacements(spec, stream, m):
    """(theta, delta) of m unconstrained displacements, read off masked copies of the origin."""
    offsets = mask_coordinates(np.zeros((m, 2)), spec, None, stream)
    return np.hypot(offsets[:, 0], offsets[:, 1]), np.arctan2(offsets[:, 1], offsets[:, 0]) % TWO_PI


def test_maskspec_validation():
    with pytest.raises(ValueError):
        MaskSpec(mechanism="cauchy")
    with pytest.raises(ValueError):
        MaskSpec(boundary="clip")
    with pytest.raises(ValueError):
        MaskSpec(theta_star=-0.1)
    with pytest.raises(ValueError):
        MaskSpec(max_attempts=0)


def test_gaussian_calibration_constant():
    assert GAUSSIAN_CALIBRATION == pytest.approx(math.sqrt(2.0 * math.log(100.0)))
    assert GAUSSIAN_CALIBRATION == pytest.approx(3.0349, abs=5e-5)


def test_zero_theta_star_draws_zero_displacement():
    theta, _ = _displacements(MaskSpec(theta_star=0.0), derive_stream(0, 0, 0), 1)
    assert theta[0] == 0.0


def test_uniform_mean_radius():
    # theta ~ U(0, 0.6) so E[theta] = 0.30; MC sd of the mean ~ 1.7e-4
    theta, _ = _displacements(MaskSpec(theta_star=0.6), derive_stream(11, 0, 0), 1_000_000)
    assert theta.max() <= 0.6
    assert theta.mean() == pytest.approx(0.30, abs=1e-3)


def test_uniform_radius_and_angle_distributions():
    spec = MaskSpec(theta_star=0.45)
    theta, delta = _displacements(spec, derive_stream(12, 0, 0), 1_000_000)
    # radius/theta_star and angle/2pi are each uniform on [0, 1)
    assert stats.kstest(theta / spec.theta_star, "uniform").pvalue > 0.01
    assert stats.kstest(delta / TWO_PI, "uniform").pvalue > 0.01
    assert abs(np.corrcoef(theta, delta)[0, 1]) < 0.01


def test_gaussian_radius_calibration():
    # sigma is calibrated so P(radius <= theta_star) = 0.99
    spec = MaskSpec(mechanism="gaussian", theta_star=1.0)
    theta, _ = _displacements(spec, derive_stream(13, 0, 0), 1_000_000)
    assert (theta <= 1.0).mean() == pytest.approx(0.99, abs=1e-3)


def test_uniform_draw_order_contract():
    # documented stream layout: m theta values then m delta values; delta is
    # TWO_PI times its raw draw, turned into (cos delta, sin delta) by _direction
    spec = MaskSpec(theta_star=0.3)
    xy = np.tile([[0.1, -0.2]], (5, 1))
    out = mask_coordinates(xy, spec, None, derive_stream(21, 2, 3))
    gen = derive_stream(21, 2, 3).generator()
    theta = gen.uniform(0.0, 0.3, 5)
    c, s = _direction(gen.random(5))
    expected = xy + np.column_stack((theta * c, theta * s))
    np.testing.assert_array_equal(out, expected)


def test_direction_within_2_eps_of_libm():
    # the half-angle form against libm's cos and sin of the same angle, on
    # 10**6 draws and the edge draws 0, 1/4, 1/2, 3/4 and 1 - 2**-53; at
    # u = 1/2, t = tan(pi/2) is about 1.6e16 and t*t must not overflow
    edges = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]
    u = np.concatenate([np.random.default_rng(31).random(1_000_000), edges])
    with np.errstate(all="raise"):
        c, s = _direction(u.copy())
    eps = np.finfo(np.float64).eps
    delta = TWO_PI * u
    assert np.abs(c - np.cos(delta)).max() <= 2 * eps
    assert np.abs(s - np.sin(delta)).max() <= 2 * eps
    assert np.abs(c).max() <= 1.0 and np.abs(s).max() <= 1.0
    assert np.abs(c * c + s * s - 1.0).max() <= 3 * eps
    assert (c[-5], s[-5]) == (1.0, 0.0) and c[-3] == -1.0


def test_gaussian_draw_order_contract():
    # documented stream layout: m x-offsets then m y-offsets
    spec = MaskSpec(mechanism="gaussian", theta_star=0.3)
    xy = np.zeros((4, 2))
    out = mask_coordinates(xy, spec, None, derive_stream(22, 0, 0))
    gen = derive_stream(22, 0, 0).generator()
    sigma = 0.3 / GAUSSIAN_CALIBRATION
    dx = gen.normal(0.0, sigma, 4)
    dy = gen.normal(0.0, sigma, 4)
    np.testing.assert_array_equal(out, np.column_stack((dx, dy)))


def test_corner_first_draw_acceptance():
    # from a corner of the unit square with theta_star = 0.5 <= side, a draw
    # stays inside exactly when the angle points into one quadrant: p = 1/4
    theta, delta = _displacements(MaskSpec(theta_star=0.5), derive_stream(14, 0, 0), 100_000)
    landed = np.column_stack((0.5 + theta * np.cos(delta), 0.5 + theta * np.sin(delta)))
    inside = _in_square(landed)
    assert inside.mean() == pytest.approx(0.25, abs=0.01)


def test_masked_distance_triangle_bound():
    # point at distance 0.5 from the origin, theta_star = 0.1: distorted
    # distance always lands in [0.4, 0.6]
    spec = MaskSpec(theta_star=0.1)
    xy = np.tile([[0.3, 0.4]], (10_000, 1))
    out = mask_coordinates(xy, spec, None, derive_stream(15, 0, 0))
    d = np.hypot(out[:, 0], out[:, 1])
    assert d.min() >= 0.4 - 1e-12 and d.max() <= 0.6 + 1e-12


def test_mask_coordinates_zero_theta_identity():
    xy = np.random.default_rng(3).uniform(-0.5, 0.5, size=(50, 2))
    out = mask_coordinates(xy, MaskSpec(theta_star=0.0), None, derive_stream(16, 0, 0))
    np.testing.assert_array_equal(out, xy)


def test_mask_coordinates_deterministic():
    xy = np.random.default_rng(4).uniform(-0.5, 0.5, size=(50, 2))
    spec = MaskSpec(theta_star=0.2)
    a = mask_coordinates(xy, spec, None, derive_stream(17, 1, 1))
    b = mask_coordinates(xy, spec, None, derive_stream(17, 1, 1))
    np.testing.assert_array_equal(a, b)


def test_redraw_keeps_points_inside():
    xy = np.random.default_rng(5).uniform(-0.5, 0.5, size=(200, 2))
    bounds = _square_cells(xy)
    spec = MaskSpec(theta_star=0.7, boundary="redraw")
    out = mask_coordinates(xy, spec, bounds, derive_stream(18, 0, 0))
    assert _in_square(out).all()
    # displacement length still bounded by theta_star
    assert np.hypot(*(out - xy).T).max() <= 0.7 + 1e-12


@pytest.mark.parametrize("mechanism", ["uniform", "gaussian"])
def test_shared_rectangle_matches_per_point_bounds(mechanism):
    # one (4,) rectangle and the same rectangle as every point's cell of the
    # 1 x 1 grid consume the stream identically, so the masked coordinates
    # are the same bits
    xy = np.random.default_rng(5).uniform(-0.5, 0.5, size=(500, 2))
    spec = MaskSpec(mechanism=mechanism, theta_star=0.7, boundary="redraw")
    shared = mask_coordinates(xy, spec, SQUARE, derive_stream(18, 1, 0))
    tiled = mask_coordinates(xy, spec, _square_cells(xy), derive_stream(18, 1, 0))
    np.testing.assert_array_equal(shared, tiled)
    assert _in_square(shared).all()


def test_redraw_matches_unconstrained_when_no_rejection():
    # interior point with theta_star smaller than any boundary gap: the first
    # draw is always accepted, so both policies consume the stream identically
    xy = np.array([[0.0, 0.0]])
    bounds = _square_cells(xy)
    a = mask_coordinates(xy, MaskSpec(theta_star=0.3, boundary="redraw"), bounds, derive_stream(19, 0, 0))
    b = mask_coordinates(xy, MaskSpec(theta_star=0.3), None, derive_stream(19, 0, 0))
    np.testing.assert_array_equal(a, b)


def test_redraw_requires_bounds():
    with pytest.raises(ValueError, match="bounds"):
        mask_coordinates(np.zeros((1, 2)), MaskSpec(theta_star=0.1, boundary="redraw"), None, derive_stream(0, 0, 0))


def test_redraw_requires_start_inside():
    # the point's given cell is column 5, row 5 of the 10 x 10 grid: [0, 0.1] x [0, 0.1]
    bounds = GridCells(build_municipality_grid(10), np.array([[5], [5]], dtype=np.uint8))
    np.testing.assert_array_equal(bounds.bounds(), [[0.0], [0.1], [0.0], [0.1]])
    with pytest.raises(ValueError, match="inside"):
        mask_coordinates(np.array([[0.5, 0.5]]), MaskSpec(theta_star=0.1, boundary="redraw"), bounds, derive_stream(0, 0, 0))


@pytest.mark.parametrize("n", [1, 12])
def test_redraw_exhaustion(n):
    # the points sit at the low corner of their cell of a 2**30 x 2**30 grid,
    # [0, 2**-30] on each axis: acceptance probability ~ (1e-9/1)**2 per
    # attempt, so 3 attempts always fail; the message lists the first ten
    xy = np.zeros((n, 2))
    bounds = build_municipality_grid(2**30).cells(xy)
    assert bounds.index.dtype == np.uint32 and bounds.bounds()[:, 0].tolist() == [0.0, 2**-30, 0.0, 2**-30]
    spec = MaskSpec(theta_star=1.0, boundary="redraw", max_attempts=3)
    with pytest.raises(RuntimeError) as info:
        mask_coordinates(xy, spec, bounds, derive_stream(20, 0, 0))
    assert str(info.value) == f"masking exhausted 3 redraw attempts for point index(es) {list(range(min(n, 10)))}"


@pytest.mark.parametrize("rows", [1, 3, 16])
@pytest.mark.parametrize("bounds_kind", BOUNDS_KINDS)
@pytest.mark.parametrize("mechanism", ["uniform", "gaussian"])
def test_batched_rows_match_per_replication_oracle(mechanism, bounds_kind, rows):
    # every row of one batched call carries the bits of its own replication
    # masked alone, whatever the other rows draw and however long they redraw
    xy = np.random.default_rng(31).uniform(-0.5, 0.5, size=(300, 2))
    bounds = bounds_for(bounds_kind, xy)
    theta_star = 0.14 if bounds_kind == "per-point" else 0.6
    spec = MaskSpec(mechanism, theta_star, "unconstrained" if bounds is None else "redraw")
    streams = [derive_stream(32, 4, rep) for rep in range(rows)]
    out = mask_rows(xy, spec, checked_bounds(xy, spec, bounds), GeneratorPool().positioned(streams))
    assert out.shape == (rows, 2, 300)
    for row, stream in zip(out, streams):
        np.testing.assert_array_equal(row.T, mask_one(xy, spec, bounds, stream.generator()))


@pytest.mark.parametrize("mechanism", ["uniform", "gaussian"])
def test_cells_across_column_blocks_match_per_replication_oracle(mechanism):
    # n = 3 blocks + 5: the first attempt's offsets, sums and membership test
    # run over four column blocks, the last one short, and every row keeps
    # the bits of its replication masked alone against its points' cells
    n, rows = 3 * _BLOCK + 5, 2
    xy = np.random.default_rng(39).uniform(-0.5, 0.5, size=(n, 2))
    bounds = bounds_for("per-point", xy)
    spec = MaskSpec(mechanism, 0.14, "redraw")
    streams = [derive_stream(39, 2, rep) for rep in range(rows)]
    out = mask_rows(xy, spec, checked_bounds(xy, spec, bounds), GeneratorPool().positioned(streams))
    for row, stream in zip(out, streams):
        np.testing.assert_array_equal(row.T, mask_one(xy, spec, bounds, stream.generator()))


def test_start_points_are_checked_in_every_column_block():
    # an outside point in the last, short block is named, with the first
    # ones of the earlier blocks, in ascending order
    n = 2 * _BLOCK + 3
    xy = np.random.default_rng(40).uniform(-0.5, 0.5, size=(n, 2))
    cells = bounds_for("per-point", xy)
    moved = xy.copy()
    moved[[_BLOCK - 1, _BLOCK, n - 1]] = [0.6, 0.0]  # outside the area, so outside every cell
    spec = MaskSpec("uniform", 0.1, "redraw")
    assert checked_bounds(xy, spec, cells) is cells
    with pytest.raises(ValueError, match=re.escape(f"offending index(es) {[_BLOCK - 1, _BLOCK, n - 1]}")):
        checked_bounds(moved, spec, cells)


@pytest.mark.parametrize("rows", [2, 16])
@pytest.mark.parametrize("boundary", ["unconstrained", "redraw"])
@pytest.mark.parametrize("mechanism", ["uniform", "gaussian"])
def test_batched_block_has_contiguous_planes(mechanism, boundary, rows):
    # the (R, 2, n) block is a view of plane-major storage: its x and y
    # planes are C-contiguous (R, n) arrays, redrawn points included
    xy = np.random.default_rng(36).uniform(-0.5, 0.5, size=(200, 2))
    spec = MaskSpec(mechanism, 0.6, boundary)
    bounds = SQUARE if boundary == "redraw" else None
    streams = [derive_stream(37, 0, rep) for rep in range(rows)]
    out = mask_rows(xy, spec, checked_bounds(xy, spec, bounds), GeneratorPool().positioned(streams))
    assert out.shape == (rows, 2, 200)
    assert out[:, 0].flags.c_contiguous and out[:, 1].flags.c_contiguous


@pytest.mark.parametrize("theta_star", [0.4, 0.0])
@pytest.mark.parametrize("mechanism", ["uniform", "gaussian"])
def test_offsets_are_written_into_the_draw_block(mechanism, theta_star):
    # both mechanisms' transforms return views of the (2, R, m) draws they
    # overwrite; gaussian offsets scaled in place keep the bits of numpy's
    # normal(0, sigma), whose zero products are +0.0
    draw, offsets, _ = _LAWS[mechanism]
    u = np.empty((2, 3, 50))
    draw(np.random.default_rng(38), out=u)
    ox, oy = offsets(theta_star, u)
    assert ox.shape == oy.shape == (3, 50)
    assert np.shares_memory(ox, u[0]) and np.shares_memory(oy, u[1])
    if mechanism == "gaussian":
        expected = np.random.default_rng(38).normal(0.0, theta_star / GAUSSIAN_CALIBRATION, (2, 3, 50))
        np.testing.assert_array_equal(u, expected)
        np.testing.assert_array_equal(np.signbit(u), np.signbit(expected))


@pytest.mark.parametrize("max_attempts", [1, 3])
def test_batched_exhaustion_names_the_oracles_row(max_attempts):
    # the batched loop raises for the lowest row still pending, with that
    # row's points: the error the per-replication loop raises first
    xy = np.random.default_rng(33).uniform(-0.5, 0.5, size=(40, 2))
    bounds = SQUARE
    spec = MaskSpec("uniform", 0.06, "redraw", max_attempts)
    streams = [derive_stream(34, 0, rep) for rep in range(16)]
    failing = {}
    for row, stream in enumerate(streams):
        try:
            mask_one(xy, spec, bounds, stream.generator())
        except Exhausted as exc:
            failing[row] = exc.point_indices
    first = min(failing)
    # the setup is chosen so that the first failing row is not row 0 and no
    # other failing row pends on the same points
    assert first > 0 and all(failing[r] != failing[first] for r in failing if r != first)
    with pytest.raises(RuntimeError) as info:
        mask_rows(xy, spec, checked_bounds(xy, spec, bounds), GeneratorPool().positioned(streams))
    assert str(info.value) == exhaustion_message(failing[first], max_attempts)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("mechanism", ["uniform", "gaussian"])
def test_per_point_columns_at_n_4_match_oracle(mechanism, rows):
    # at n = 4, the cells' (4, n) bounds and their (n, 4) rows have the same
    # shape: the kernel must read column i as point i's cell, as the
    # oracle's per-cell table rows do. Each point sits near a corner of its
    # own 4 x 4 grid cell, so most first draws land outside and are redrawn
    # against those bounds.
    xy = np.array([[-0.49, -0.49], [0.01, -0.26], [0.24, 0.26], [-0.26, 0.49]])
    bounds = bounds_for("per-point", xy)
    columns = bounds.bounds()
    assert bounds.index.shape == (2, 4) and columns.shape == (4, 4) and not np.array_equal(columns, columns.T)
    spec = MaskSpec(mechanism, 0.2, "redraw")
    streams = [derive_stream(35, 1, rep) for rep in range(rows)]
    out = mask_rows(xy, spec, checked_bounds(xy, spec, bounds), GeneratorPool().positioned(streams))
    for row, stream in zip(out, streams):
        np.testing.assert_array_equal(row.T, mask_one(xy, spec, bounds, stream.generator()))
        x_min, x_max, y_min, y_max = columns
        assert ((x_min <= row[0]) & (row[0] <= x_max) & (y_min <= row[1]) & (row[1] <= y_max)).all()


def test_bounds_shape_is_checked():
    # per-point bounds are the (2, n) cell index; its (n, 2) transpose, and
    # float per-point bounds in either layout, are refused
    xy = np.zeros((3, 2))
    spec = MaskSpec(theta_star=0.1, boundary="redraw")
    cells = _square_cells(xy)
    with pytest.raises(ValueError, match=r"\(2, n\) = \(2, 3\), got \(3, 2\)"):
        mask_coordinates(xy, spec, GridCells(cells.grid, cells.index.T), derive_stream(0, 0, 0))
    for floats in (np.tile(SQUARE, (3, 1)), np.tile(SQUARE[:, None], (1, 3))):
        with pytest.raises(ValueError, match=re.escape(f"one (4,) rectangle or GridCells, got shape {floats.shape}")):
            mask_coordinates(xy, spec, floats, derive_stream(0, 0, 0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    mechanism=st.sampled_from(["uniform", "gaussian"]),
    boundary=st.sampled_from(["unconstrained", "redraw"]),
    bounds_kind=st.sampled_from(["shared", "per-point"]),
    extents=st.sampled_from([1.0, math.sqrt(2.0), 2.0, 4.0]),
    max_attempts=st.sampled_from([1, 2, 10, 1000]),
    n=st.integers(1, 12),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_theta_star_beyond_the_area_property(mechanism, boundary, bounds_kind, extents, max_attempts, n, rows, seed):
    # theta* at and beyond the extent of the bounds (the unit square, or a
    # 1/4-wide grid cell): every row is the oracle's bits and, under redraw,
    # inside its bounds; or redraw runs out, and the error names the points
    # of the lowest row the oracle fails on
    xy = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, 2))
    bounds = bounds_for(bounds_kind, xy)
    theta_star = extents * (1.0 if bounds_kind == "shared" else 0.25)
    spec = MaskSpec(mechanism, theta_star, boundary, max_attempts)
    streams = [derive_stream(seed, 5, rep) for rep in range(rows)]
    expected, failing = [], {}
    for row, stream in enumerate(streams):
        try:
            expected.append(mask_one(xy, spec, bounds, stream.generator()))
        except Exhausted as exc:
            failing[row] = exc.point_indices
    if failing:
        with pytest.raises(RuntimeError) as info:
            mask_rows(xy, spec, checked_bounds(xy, spec, bounds), GeneratorPool().positioned(streams))
        assert str(info.value) == exhaustion_message(failing[min(failing)], max_attempts)
        return
    out = mask_rows(xy, spec, checked_bounds(xy, spec, bounds), GeneratorPool().positioned(streams))
    for row, want in zip(out, expected):
        np.testing.assert_array_equal(row.T, want)
    if boundary == "redraw":
        x_min, x_max, y_min, y_max = bounds[:, None] if bounds_kind == "shared" else bounds.bounds()
        assert ((x_min <= out[:, 0]) & (out[:, 0] <= x_max) & (y_min <= out[:, 1]) & (out[:, 1] <= y_max)).all()


def test_mask_point_unconstrained_and_redraw():
    xy = np.array([[0.49, 0.49]])
    bounds = _square_cells(xy)
    q = mask_coordinates(xy, MaskSpec(theta_star=0.4, boundary="redraw"), bounds, derive_stream(23, 0, 0))
    assert UNIT_SQUARE.contains(Point(*q[0]))
    r = mask_coordinates(xy, MaskSpec(theta_star=0.4), None, derive_stream(23, 0, 0))
    assert math.hypot(*(r[0] - xy[0])) <= 0.4


def _points(n=100, seed=6):
    return np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, 2))


def test_mask_dataset_zero_theta_reproduces_distances():
    xy = _points()
    masked = mask_coordinates(xy, MaskSpec(theta_star=0.0), None, derive_stream(24, 0, 0))
    np.testing.assert_array_equal(masked, xy)
    np.testing.assert_array_equal(facility_distances(masked, Point(0.0, 0.0)), facility_distances(xy, Point(0.0, 0.0)))


def test_mask_dataset_keeps_true_coords():
    xy = _points()
    points = xy.copy()
    masked = mask_coordinates(xy, MaskSpec(theta_star=0.25), None, derive_stream(25, 0, 0))
    np.testing.assert_array_equal(xy, points)
    assert np.abs(masked - xy).max() > 0.0


def test_mask_dataset_redraw_respects_area():
    xy = _points(n=300, seed=7)
    spec = MaskSpec(theta_star=0.9, boundary="redraw")
    masked = mask_coordinates(xy, spec, SQUARE, derive_stream(27, 0, 0))
    assert _in_square(masked).all()


def test_masked_second_moment_via_mask_machinery():
    # E[d_masked^2] for d = 0.5, theta_star = 0.3 is d^2 + theta_star^2/3 = 0.28
    xy = np.tile([[0.5, 0.0]], (1_000_000, 1))
    out = mask_coordinates(xy, MaskSpec(theta_star=0.3), None, derive_stream(28, 0, 0))
    sq = out[:, 0] ** 2 + out[:, 1] ** 2
    assert sq.mean() == pytest.approx(0.28, abs=1e-3)
