import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomasksim.geometry import UNIT_SQUARE, Point, StudyArea, equivalent_circle_radius, facility_distances
from geomasksim.masking import _inside


def test_euclidean_distance_345():
    d = facility_distances(np.array([[0.3, 0.4]]), Point(0.0, 0.0))
    assert d.shape == (1,) and d[0] == pytest.approx(0.5, abs=1e-15)


def test_euclidean_distance_zero_and_diagonal():
    d = facility_distances(np.array([[0.2, -0.1], [1.0, 1.0]]), Point(0.2, -0.1))
    assert d[0] == 0.0
    assert d[1] == pytest.approx(math.hypot(0.8, 1.1))


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_equivalent_circle_radius_pi():
    assert equivalent_circle_radius(math.pi) == pytest.approx(1.0, abs=1e-15)


def test_equivalent_circle_radius_unit_area():
    assert equivalent_circle_radius(1.0) == pytest.approx(0.5641895835477563, abs=1e-15)


@settings(derandomize=True)
@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_equivalent_circle_radius_inverts_area(r):
    assert equivalent_circle_radius(math.pi * r * r) == pytest.approx(r, rel=1e-12)


def test_equivalent_circle_radius_rejects_nonpositive():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            equivalent_circle_radius(bad)


def test_study_area_unit_square():
    area = UNIT_SQUARE
    assert area.bounds == (-0.5, 0.5, -0.5, 0.5)
    assert area.contains(Point(0.5, 0.5))  # boundary inclusive
    assert not area.contains(Point(0.5000001, 0.0))


def test_study_area_rectangle_properties():
    area = StudyArea(0.0, 4.0, -1.0, 1.0)
    assert area.bounds == (0.0, 4.0, -1.0, 1.0)


def test_study_area_validation():
    with pytest.raises(ValueError):
        StudyArea(1.0, 0.0, 0.0, 1.0)  # x_min >= x_max
    with pytest.raises(ValueError):
        StudyArea(0.0, 1.0, 0.5, 0.5)  # y_min >= y_max
    with pytest.raises(ValueError):
        StudyArea(0.0, 1.0, 0.0, float("inf"))


def test_inside_matches_contains():
    # the masking kernel's vectorized membership test agrees with the area's
    xy = np.array([[0.0, 0.0], [0.5, 0.5], [0.51, 0.0], [-0.6, -0.6]])
    expected = [UNIT_SQUARE.contains(Point(x, y)) for x, y in xy]
    np.testing.assert_array_equal(_inside(xy[:, 0], xy[:, 1], np.asarray(UNIT_SQUARE.bounds)), expected)


def test_facility_distances_shape_and_values():
    xy = np.array([[0.0, 0.0], [0.3, 0.4], [1.0, 0.0]])
    d = facility_distances(xy, Point(1.0, 0.0))
    assert d.shape == (3,)
    np.testing.assert_allclose(d, [1.0, math.hypot(0.7, 0.4), 0.0], atol=1e-15)


def test_facility_distances_bitwise_sqrt_form_within_1ulp_of_hypot():
    # datasets, choice simulation and the replication harness all take their
    # distances from this one expression, so it must stay bit for bit
    # sqrt(dx*dx + dy*dy); that rounds apart from np.hypot by at most 1 ulp
    rng = np.random.default_rng(7)
    xy = rng.uniform(-0.5, 0.5, size=(100_000, 2))
    d = facility_distances(xy, Point(0.1, -0.2))
    dx, dy = xy[:, 0] - 0.1, xy[:, 1] - -0.2
    assert d.tobytes() == np.sqrt(dx * dx + dy * dy).tobytes()
    ulps = np.abs(d.view(np.int64) - np.hypot(dx, dy).view(np.int64))
    assert ulps.max() == 1
