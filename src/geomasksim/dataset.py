"""The choice dataset shared by the population, fitting and efficiency layers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Point, facility_distances


@dataclass
class ChoiceDataset:
    """Individuals, one facility, their distances and binary choices.

    ``points`` holds the coordinates, shape (n, 2), and ``distances`` (n,)
    is derived from them once. Choices are 0/1, one per individual.
    """

    points: np.ndarray
    facility: Point
    choices: np.ndarray
    distances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.choices = np.ascontiguousarray(self.choices, dtype=np.int64)

        if self.points.ndim != 2 or self.points.shape[1] != 2 or self.points.shape[0] < 1:
            raise ValueError(f"points must have shape (n, 2) with n >= 1, got {self.points.shape}")
        n = self.points.shape[0]
        if self.choices.shape != (n,):
            raise ValueError(f"choices must have shape ({n},), got {self.choices.shape}")
        if not np.isfinite(self.points).all():
            raise ValueError("coordinates must be finite")
        if not np.isin(self.choices, (0, 1)).all():
            raise ValueError("choices must be 0 or 1")

        self.distances = facility_distances(self.points, self.facility)

    @property
    def n(self) -> int:
        return self.points.shape[0]
