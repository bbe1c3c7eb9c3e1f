"""The choice dataset shared by the population, fitting and efficiency layers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Point, facility_distances


@dataclass
class ChoiceDataset:
    """Individuals, one facility, their distances and binary choices.

    ``points`` holds the true coordinates, shape (n, 2). When
    ``masked_points`` is set it becomes the active coordinate set and
    ``distances`` (n,) is derived from it; otherwise distances come from
    the true coordinates. Choices are 0/1, one per individual.
    """

    points: np.ndarray
    facility: Point
    choices: np.ndarray
    masked_points: np.ndarray | None = None
    distances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.choices = np.ascontiguousarray(self.choices, dtype=np.int64)
        if self.masked_points is not None:
            self.masked_points = np.ascontiguousarray(self.masked_points, dtype=np.float64)

        if self.points.ndim != 2 or self.points.shape[1] != 2 or self.points.shape[0] < 1:
            raise ValueError(f"points must have shape (n, 2) with n >= 1, got {self.points.shape}")
        n = self.points.shape[0]
        if self.choices.shape != (n,):
            raise ValueError(f"choices must have shape ({n},), got {self.choices.shape}")
        if self.masked_points is not None and self.masked_points.shape != self.points.shape:
            raise ValueError("masked_points must match the shape of points")
        if not np.isfinite(self.points).all():
            raise ValueError("coordinates must be finite")
        if self.masked_points is not None and not np.isfinite(self.masked_points).all():
            raise ValueError("masked coordinates must be finite")
        if not np.isin(self.choices, (0, 1)).all():
            raise ValueError("choices must be 0 or 1")

        self.distances = facility_distances(self.active_points, self.facility)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def active_points(self) -> np.ndarray:
        """Masked coordinates when present, otherwise the true coordinates."""
        return self.masked_points if self.masked_points is not None else self.points

    @property
    def true_distances(self) -> np.ndarray:
        """Distances computed from the true coordinates, shape (n,)."""
        if self.masked_points is None:
            return self.distances
        return facility_distances(self.points, self.facility)

    def with_masked_points(self, masked_xy: np.ndarray) -> "ChoiceDataset":
        """Copy with new active coordinates; distances recomputed, choices kept."""
        return replace(self, masked_points=masked_xy)
