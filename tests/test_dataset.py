import numpy as np
import pytest

from geomasksim.dataset import ChoiceDataset
from geomasksim.geometry import Point


def _ds(**kw):
    base = dict(
        points=np.array([[0.0, 0.0], [0.3, 0.4], [-0.2, 0.1]]),
        facility=Point(0.0, 0.0),
        choices=np.array([1, 0, 1]),
    )
    base.update(kw)
    return ChoiceDataset(**base)


def test_distances_autocomputed():
    ds = _ds()
    assert ds.distances.shape == (3,)
    np.testing.assert_allclose(ds.distances, [0.0, 0.5, np.hypot(0.2, 0.1)], atol=1e-15)
    assert ds.n == 3


def test_choice_validation():
    with pytest.raises(ValueError, match="0 or 1"):
        _ds(choices=np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="shape"):
        _ds(choices=np.array([0, 1]))


def test_shape_validation():
    with pytest.raises(ValueError):
        _ds(points=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        _ds(points=np.zeros((3, 3)))


def test_nonfinite_rejected():
    pts = np.array([[0.0, 0.0], [np.nan, 0.4], [-0.2, 0.1]])
    with pytest.raises(ValueError, match="finite"):
        _ds(points=pts)


def test_dtype_coercion():
    ds = _ds(choices=np.array([1.0, 0.0, 1.0]))
    assert ds.choices.dtype == np.int64
    assert ds.points.dtype == np.float64
