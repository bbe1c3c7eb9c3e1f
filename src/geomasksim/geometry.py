"""Planar geometry: points, the rectangular study area, point-to-facility distances.

Everything here is a pure function over immutable values, so it is safe to
call from any number of workers without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point:
    """A planar location in standardized map units."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class StudyArea:
    """Axis-aligned rectangular study region."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not all(math.isfinite(b) for b in self.bounds):
            raise ValueError(f"bounds must be finite, got {self.bounds}")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(f"bounds must satisfy x_min < x_max and y_min < y_max, got {self.bounds}")

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max)."""
        return self.xmin, self.xmax, self.ymin, self.ymax

    def contains(self, p: Point) -> bool:
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax


#: The study area of every run: the unit square centered on the origin.
UNIT_SQUARE = StudyArea(-0.5, 0.5, -0.5, 0.5)


def equivalent_circle_radius(surface_area: float) -> float:
    """Radius of the circle whose area equals ``surface_area``."""
    if not (surface_area > 0.0) or not math.isfinite(surface_area):
        raise ValueError(f"surface_area must be positive and finite, got {surface_area}")
    return math.sqrt(surface_area / math.pi)


def planar_norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) elementwise, as a new array; squares ``dx`` and
    ``dy`` in place.

    Four correctly rounded operations, several times cheaper than numpy's
    ``hypot``; on a million offsets at each of several scales about 17% of
    the results differ from ``hypot``'s by 1 ulp and none by more. Unlike
    ``hypot`` it overflows to inf once dx*dx or dy*dy does (an
    offset beyond about 1.3e154) and underflows to 0 where both squares do
    (below about 2e-162).
    """
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    d = np.add(dx, dy)
    return np.sqrt(d, out=d)


def facility_distances(xy: np.ndarray, facility: Point) -> np.ndarray:
    """Distances from each row of an (n, 2) coordinate array to the facility.

    A run's distances (``experiments.prepare_dataset`` and the centroid
    set-up), the replication harness (which applies ``planar_norm`` to
    (rows, n) planes of masked x and y) and ``fit`` all take their
    distances from this one expression, so a recomputed distance vector
    compares bit-for-bit with the original.
    """
    return planar_norm(xy[:, 0] - facility.x, xy[:, 1] - facility.y)
