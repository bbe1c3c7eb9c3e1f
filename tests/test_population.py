import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from geomasksim.geometry import UNIT_SQUARE, Point, equivalent_circle_radius, facility_distances
from geomasksim.logit import LogitParams, choice_probability
from geomasksim.masking import _inside
from geomasksim.population import (
    DEFAULT_GENERATING_PARAMS,
    assign_to_centroid,
    build_municipality_grid,
    choice_probabilities,
    draw_choices,
    generate_csr_xy,
    simulate_choices_xy,
)
from geomasksim.rng import GeneratorPool, efficiency_true_stream, population_stream
from mask_oracle import grid_cells

AREA = UNIT_SQUARE

# E[L(1 + beta*d)] for (alpha, beta) = (1, -2) and d the distance from a
# uniform point on the centered unit square to the origin; frozen from an
# adaptive double quadrature with abs/rel error below 1e-12
CHOICE_RATE_QUADRATURE = 0.5571654559723803


def test_default_generating_params():
    assert DEFAULT_GENERATING_PARAMS == LogitParams(1.0, -2.0)


def test_generate_csr_shape_and_support():
    xy = generate_csr_xy(10_000, population_stream(1))
    assert xy.shape == (10_000, 2)
    assert _inside(xy[:, 0], xy[:, 1], np.asarray(AREA.bounds)).all()


def test_generate_csr_rejects_empty():
    with pytest.raises(ValueError):
        generate_csr_xy(0, population_stream(0))


def test_generate_csr_draw_order_contract():
    # stream layout: all n x-coordinates, then all n y-coordinates
    xy = generate_csr_xy(7, population_stream(2))
    gen = population_stream(2).generator()
    x = gen.uniform(-0.5, 0.5, 7)
    y = gen.uniform(-0.5, 0.5, 7)
    np.testing.assert_array_equal(xy, np.column_stack([x, y]))


def test_csr_mean_near_center():
    # mean of 1e5 uniforms on [-0.5, 0.5]: sd of the mean ~ 9e-4
    xy = generate_csr_xy(100_000, population_stream(4))
    assert abs(xy[:, 0].mean()) < 0.005
    assert abs(xy[:, 1].mean()) < 0.005


def test_csr_quadrant_balance():
    xy = generate_csr_xy(1_000_000, population_stream(5))
    q = (xy[:, 0] > 0).astype(int) * 2 + (xy[:, 1] > 0).astype(int)
    freq = np.bincount(q, minlength=4) / xy.shape[0]
    np.testing.assert_allclose(freq, 0.25, atol=0.002)


def test_csr_chi_square_uniformity():
    xy = generate_csr_xy(1_000_000, population_stream(6))
    counts, _, _ = np.histogram2d(xy[:, 0], xy[:, 1], bins=10, range=[[-0.5, 0.5], [-0.5, 0.5]])
    assert stats.chisquare(counts.ravel()).pvalue > 0.01


def test_simulate_choices_zero_beta_rate():
    xy = generate_csr_xy(1_000_000, population_stream(8))
    y = simulate_choices_xy(facility_distances(xy, Point(0.0, 0.0)), LogitParams(0.0, 0.0), population_stream(9))
    assert y.mean() == pytest.approx(0.5, abs=0.002)


def test_simulate_choices_rate_matches_quadrature():
    xy = generate_csr_xy(1_000_000, population_stream(10))
    y = simulate_choices_xy(facility_distances(xy, Point(0.0, 0.0)), LogitParams(1.0, -2.0), population_stream(11))
    # binomial sd of the mean is below 5e-4; allow 4 sigma plus the MC error
    # of the empirical distance distribution
    assert y.mean() == pytest.approx(CHOICE_RATE_QUADRATURE, abs=0.003)


def test_simulate_choices_marginal_probability_at_fixed_point():
    # a single point at distance 0.5 under (1, -2) has eta = 0: P(y=1) = 0.5
    d = facility_distances(np.tile([[0.3, 0.4]], (1, 1)), Point(0.0, 0.0))
    hits = 0
    reps = 4_000
    for rep in range(reps):
        y = simulate_choices_xy(d, LogitParams(1.0, -2.0), population_stream(20 + rep))
        hits += int(y[0])
    # 4 sigma binomial band around 0.5
    assert abs(hits / reps - 0.5) <= 4.0 * math.sqrt(0.25 / reps)


def test_simulate_choices_draw_order_contract():
    xy = generate_csr_xy(9, population_stream(12))
    y = simulate_choices_xy(facility_distances(xy, Point(0.1, 0.2)), LogitParams(1.0, -2.0), population_stream(13))
    gen = population_stream(13).generator()
    d = np.hypot(xy[:, 0] - 0.1, xy[:, 1] - 0.2)
    expected = (gen.uniform(0.0, 1.0, 9) < expit(1.0 - 2.0 * d)).astype(np.int64)
    np.testing.assert_array_equal(y, expected)


@pytest.mark.parametrize("rows", [1, 5])
def test_draw_choices_rows_are_each_streams_uniforms_below_the_probabilities(rows):
    prob = choice_probabilities(facility_distances(generate_csr_xy(300, population_stream(3)), Point(0.0, 0.0)),
                                LogitParams(1.0, -2.0))
    streams = [efficiency_true_stream(5, rep) for rep in range(rows)]
    block = draw_choices(prob, GeneratorPool().positioned(streams))
    assert block.shape == (rows, 300) and block.dtype == np.float64
    for row, stream in zip(block, streams):
        np.testing.assert_array_equal(row, stream.generator().uniform(0.0, 1.0, 300) < prob)
    assert set(np.unique(block)) <= {0.0, 1.0}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("params", [LogitParams(1.0, -2.0), LogitParams(-0.3, 7.25), LogitParams(40.0, -800.0)])
def test_choice_probabilities_match_the_expressions_they_replace_bit_for_bit(dtype, params):
    d = facility_distances(generate_csr_xy(2000, population_stream(17)), Point(0.0, 0.0)).astype(dtype)
    d[:4] = [0.0, 1e-30, 0.5, 1.5]
    got = choice_probabilities(d, params)
    assert got.dtype == np.float64
    # the set-up's in-place form
    eta = np.multiply(d, params.beta)
    eta += params.alpha
    eta = eta.astype(np.float64, copy=False)
    set_up = choice_probability(eta, out=eta)
    # the efficiency stage's and the information weights' alpha + beta * d
    efficiency = choice_probability(params.alpha + params.beta * d)
    for want in (set_up, efficiency):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_choice_probabilities_of_a_scalar_distance():
    assert float(choice_probabilities(0.5, LogitParams(1.0, -2.0))) == 0.5


# --- municipality grid ---


def test_grid_k1_single_cell():
    grid = build_municipality_grid(1)
    xy = np.array([[-0.5, -0.5], [0.1, 0.3], [0.5, 0.5]])
    np.testing.assert_array_equal(grid.cells(xy).bounds(), np.tile([[-0.5], [0.5], [-0.5], [0.5]], 3))
    assert grid.cell_radius == pytest.approx(equivalent_circle_radius(1.0))


def test_grid_k2_centroids():
    grid = build_municipality_grid(2)
    quadrants = np.array([[-0.4, -0.1], [0.3, -0.2], [-0.1, 0.4], [0.2, 0.2]])
    out, _ = assign_to_centroid(quadrants, grid)
    assert [tuple(row) for row in out] == [(-0.25, -0.25), (0.25, -0.25), (-0.25, 0.25), (0.25, 0.25)]


def test_grid_cells_tile_the_area():
    # one point at the center of each cell: the cells are all different and
    # their surfaces sum to the area's
    grid = build_municipality_grid(7)
    _, centers = grid_cells(7)
    x_min, x_max, y_min, y_max = grid.cells(centers).bounds()
    assert len({tuple(column) for column in grid.cells(centers).bounds().T}) == 49
    assert ((x_max - x_min) * (y_max - y_min)).sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_column_follows_x_and_row_follows_y():
    grid = build_municipality_grid(3)
    # the bottom-left cell starts at the area's corner; the next column is
    # one side along x, the next row one side along y
    x_min, _, y_min, _ = grid.cells(np.array([[-0.4, -0.4], [0.0, -0.4], [-0.4, 0.0]])).bounds()
    assert x_min[0] == -0.5 and y_min[0] == -0.5
    assert x_min[1] == pytest.approx(-0.5 + 1 / 3) and y_min[1] == -0.5
    assert x_min[2] == -0.5 and y_min[2] == pytest.approx(-0.5 + 1 / 3)


def test_grid_cell_radius_formula():
    grid = build_municipality_grid(10)
    assert grid.cell_radius == pytest.approx(math.sqrt(0.01 / math.pi))


def test_grid_rejects_bad_k():
    with pytest.raises(ValueError):
        build_municipality_grid(0)


def test_cell_bounds_interior_edges_go_up():
    grid = build_municipality_grid(2)
    bounds = grid.cells(np.array([[0.0, 0.0], [-0.25, -0.25], [0.5, 0.5], [-0.5, -0.5]])).bounds()
    # the shared edge at 0 belongs to the upper cell; the outer max corner is
    # clamped into the last cell
    lower, upper = [-0.5, 0.0, -0.5, 0.0], [0.0, 0.5, 0.0, 0.5]
    np.testing.assert_array_equal(bounds.T, [upper, lower, upper, lower])


def test_cell_bounds_out_of_grid():
    grid = build_municipality_grid(2)
    with pytest.raises(ValueError, match=r"^1 point\(s\) outside the grid, first index 1$"):
        grid.cells(np.array([[0.0, 0.0], [0.6, 0.0]]))


def test_cell_bounds_row_alignment():
    # bit-equal to a row-major per-cell loop (x0 = xmin + ix * side, then
    # x0 + side for the upper edge and x0 + 0.5 * side for the centroid), for
    # one point at each cell's center, its cell given as a (2, n) column and
    # row index from which the C-contiguous (4, n) bounds are computed, for
    # all points, for a slice and for an index array of them
    for k in (1, 2, 3, 4, 5, 7, 10, 20, 33, 100, 257):
        grid = build_municipality_grid(k)
        bounds, centroids = grid_cells(k)
        cells = grid.cells(centroids)
        iy, ix = np.divmod(np.arange(k * k), k)
        np.testing.assert_array_equal(cells.index, [ix, iy])
        assert cells.index.dtype == np.min_scalar_type(k - 1) and cells.index.flags.c_contiguous
        got = cells.bounds()
        assert grid.side == 1.0 / k
        assert got.shape == (4, k * k) and got.flags.c_contiguous
        assert got.tobytes() == bounds.T.copy().tobytes()
        some = np.arange(k * k)[::-3]
        assert cells.bounds(some).tobytes() == bounds[some].T.copy().tobytes()
        assert cells.bounds(slice(1, k * k, 2)).tobytes() == bounds[1::2].T.copy().tobytes()
        centers, same = assign_to_centroid(centroids, grid)
        assert centers.tobytes() == centroids.tobytes() and centers.flags.c_contiguous
        np.testing.assert_array_equal(same.index, cells.index)


def test_cell_index_dtype_is_the_smallest_that_holds_k():
    xy = generate_csr_xy(100, population_stream(4))
    for k, dtype in ((1, np.uint8), (10, np.uint8), (256, np.uint8), (257, np.uint16), (65_537, np.uint32)):
        cells = build_municipality_grid(k).cells(xy)
        assert cells.index.dtype == dtype and cells.index.shape == (2, 100)
        assert _inside(xy[:, 0], xy[:, 1], cells).all()
    # the outer max edges clamp into the last column and row, index k - 1 = 255
    assert build_municipality_grid(256).cells(np.array([[0.5, 0.5]])).index.tolist() == [[255], [255]]


def test_cell_bounds_memory_follows_the_points_not_the_grid():
    # a 50,000 x 50,000 grid: only the 1,000 points' cell indices, two bytes
    # each, and the bounds of their cells are built, nothing of size k^2
    xy = generate_csr_xy(1000, population_stream(3))
    grid = build_municipality_grid(50_000)
    tracemalloc.start()
    try:
        cells = grid.cells(xy)
        index_peak = tracemalloc.get_traced_memory()[1]
        bounds = cells.bounds()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.index.shape == (2, 1000) and cells.index.dtype == np.uint16
    assert bounds.shape == (4, 1000)
    x_min, x_max, y_min, y_max = bounds
    assert ((x_min <= xy[:, 0]) & (xy[:, 0] <= x_max) & (y_min <= xy[:, 1]) & (xy[:, 1] <= y_max)).all()
    assert _inside(xy[:, 0], xy[:, 1], cells).all()
    assert index_peak < 50_000
    assert peak < 200_000


# --- centroid assignment ---


def test_assign_to_centroid_replaces_coordinates():
    xy = generate_csr_xy(500, population_stream(30))
    grid = build_municipality_grid(10)
    points = xy.copy()
    out, cells = assign_to_centroid(xy, grid)
    assert {tuple(row) for row in out} <= {tuple(row) for row in grid_cells(10)[1]}
    np.testing.assert_array_equal(cells.index, grid.cells(points).index)
    np.testing.assert_array_equal(xy, points)  # the input coordinates are left as they are


def test_assign_to_centroid_idempotent():
    xy = generate_csr_xy(500, population_stream(32))
    grid = build_municipality_grid(10)
    once, cells = assign_to_centroid(xy, grid)
    twice, same_cells = assign_to_centroid(once, grid)
    np.testing.assert_array_equal(once, twice)
    np.testing.assert_array_equal(cells.index, same_cells.index)


def test_assign_to_centroid_k1_collapses_to_center():
    xy = generate_csr_xy(100, population_stream(34))
    out, _ = assign_to_centroid(xy, build_municipality_grid(1))
    np.testing.assert_array_equal(out, np.zeros((100, 2)))
    np.testing.assert_array_equal(facility_distances(out, Point(0.0, 0.0)), np.zeros(100))


def test_assign_to_centroid_displacement_bounded_by_half_diagonal():
    xy = generate_csr_xy(2_000, population_stream(36))
    grid = build_municipality_grid(10)
    out, _ = assign_to_centroid(xy, grid)
    disp = np.hypot(*(out - xy).T)
    assert disp.max() <= 0.5 * math.hypot(0.1, 0.1) + 1e-12


def test_assign_to_centroid_mean_displacement():
    # uniform point in a square of side a to its center: E = (a/6)(sqrt(2) +
    # ln(1 + sqrt(2))) = 0.0382597858... for a = 0.1; MC sd of the mean over
    # 1e5 points is ~6e-5
    xy = generate_csr_xy(100_000, population_stream(38))
    grid = build_municipality_grid(10)
    out, _ = assign_to_centroid(xy, grid)
    disp = np.hypot(*(out - xy).T)
    assert disp.mean() == pytest.approx(0.038259785823210636, abs=5e-4)
