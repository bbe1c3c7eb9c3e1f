"""Planar geometry: points, study areas, point-to-facility distances.

Everything here is a pure function over immutable values, so it is safe to
call from any number of workers without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


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
    """Axis-aligned rectangular study region.

    ``kind`` is either ``"unit-square-centered"`` (bounds fixed to
    (-0.5, 0.5, -0.5, 0.5)) or ``"axis-aligned-rectangle"``.
    """

    kind: str
    bounds: tuple[float, float, float, float]  # (x_min, x_max, y_min, y_max)

    UNIT_SQUARE_BOUNDS = (-0.5, 0.5, -0.5, 0.5)

    def __post_init__(self):
        if self.kind not in ("unit-square-centered", "axis-aligned-rectangle"):
            raise ValueError(f"unknown study-area kind: {self.kind!r}")
        x_min, x_max, y_min, y_max = self.bounds
        if not all(math.isfinite(b) for b in self.bounds):
            raise ValueError(f"bounds must be finite, got {self.bounds}")
        if not (x_min < x_max and y_min < y_max):
            raise ValueError(f"bounds must satisfy x_min < x_max and y_min < y_max, got {self.bounds}")
        if self.kind == "unit-square-centered" and self.bounds != self.UNIT_SQUARE_BOUNDS:
            raise ValueError("unit-square-centered area must have bounds (-0.5, 0.5, -0.5, 0.5)")

    @classmethod
    def unit_square(cls) -> "StudyArea":
        return cls("unit-square-centered", cls.UNIT_SQUARE_BOUNDS)

    @classmethod
    def rectangle(cls, x_min: float, x_max: float, y_min: float, y_max: float) -> "StudyArea":
        return cls("axis-aligned-rectangle", (x_min, x_max, y_min, y_max))

    @property
    def xmin(self) -> float:
        return self.bounds[0]

    @property
    def xmax(self) -> float:
        return self.bounds[1]

    @property
    def ymin(self) -> float:
        return self.bounds[2]

    @property
    def ymax(self) -> float:
        return self.bounds[3]

    @property
    def width(self) -> float:
        return self.bounds[1] - self.bounds[0]

    @property
    def height(self) -> float:
        return self.bounds[3] - self.bounds[2]

    @property
    def surface_area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        x_min, x_max, y_min, y_max = self.bounds
        return Point(0.5 * (x_min + x_max), 0.5 * (y_min + y_max))

    def contains(self, p: Point) -> bool:
        x_min, x_max, y_min, y_max = self.bounds
        return x_min <= p.x <= x_max and y_min <= p.y <= y_max

    def contains_xy(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an (m, 2) coordinate array."""
        x_min, x_max, y_min, y_max = self.bounds
        x, y = xy[:, 0], xy[:, 1]
        return (x_min <= x) & (x <= x_max) & (y_min <= y) & (y <= y_max)


def equivalent_circle_radius(surface_area: float) -> float:
    """Radius of the circle whose area equals ``surface_area``."""
    if not (surface_area > 0.0) or not math.isfinite(surface_area):
        raise ValueError(f"surface_area must be positive and finite, got {surface_area}")
    return math.sqrt(surface_area / math.pi)


def facility_distances(xy: np.ndarray, facility: Point) -> np.ndarray:
    """Distances from each row of an (n, 2) coordinate array to the facility.

    Datasets, choice simulation, the replication harness (which applies it
    to (rows, n) planes of masked x and y) and ``fit`` all take their
    distances from this one expression, so a recomputed distance vector
    compares bit-for-bit with the original.
    """
    return np.hypot(xy[:, 0] - facility.x, xy[:, 1] - facility.y)
