"""Synthetic populations and the distance-driven choice generator.

Populations are complete-spatial-randomness (CSR) point fields: coordinates
i.i.d. uniform over the study area. Choices are Bernoulli with success
probability L(alpha + beta * d) (``logit.choice_probability``), d the
distance to a single facility; the default generating coefficients are
(1, -2) so that distance deters choice.

Municipality grids are the synthetic stand-in for administrative units in
the centroid-assignment experiment: k x k equal square cells tiling the
study area, given as arrays in row-major order — (k^2, 4) cell bounds and
(k^2, 2) cell centers as centroids — plus one cell radius, the radius of
the circle of the same surface, as their size scale.

Draw-order contract (per stream): generate_csr_xy draws all n x-coordinates,
then all n y-coordinates; simulate_choices_xy draws n uniforms compared
against the per-point probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset
from .geometry import Point, StudyArea, equivalent_circle_radius
from .logit import LogitParams, choice_probability
from .rng import RngStream

DEFAULT_GENERATING_PARAMS = LogitParams(1.0, -2.0)


class OutOfGridError(ValueError):
    """A point falls outside every grid cell."""

    def __init__(self, point_indices):
        self.point_indices = list(point_indices)
        super().__init__(
            f"{len(self.point_indices)} point(s) outside the grid, first index {self.point_indices[0]}"
        )


@dataclass(frozen=True)
class MunicipalityGrid:
    """k x k equal cells tiling a study area, row-major from (xmin, ymin):
    cell iy * k + ix spans [xmin + ix * sx, xmin + ix * sx + sx] on x, and
    likewise on y, for cell sides (sx, sy)."""

    area: StudyArea
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def cell_side(self) -> tuple[float, float]:
        return self.area.width / self.k, self.area.height / self.k

    @property
    def cell_radius(self) -> float:
        """Radius of the circle of the same surface as one cell."""
        sx, sy = self.cell_side
        return equivalent_circle_radius(sx * sy)

    def cell_indices(self, xy: np.ndarray) -> np.ndarray:
        """Row-major cell index per point; raises for points outside the area.

        Points on interior cell edges belong to the upper cell; the area's
        outer max edges are clamped into the last row/column so the cells
        tile the closed area exactly.
        """
        xy = np.asarray(xy, dtype=np.float64)
        inside = (
            (xy[:, 0] >= self.area.xmin)
            & (xy[:, 0] <= self.area.xmax)
            & (xy[:, 1] >= self.area.ymin)
            & (xy[:, 1] <= self.area.ymax)
        )
        if not inside.all():
            raise OutOfGridError(np.flatnonzero(~inside))
        sx, sy = self.cell_side
        ix = np.minimum(((xy[:, 0] - self.area.xmin) / sx).astype(np.int64), self.k - 1)
        iy = np.minimum(((xy[:, 1] - self.area.ymin) / sy).astype(np.int64), self.k - 1)
        return iy * self.k + ix

    def cell_bounds(self) -> np.ndarray:
        """(k^2, 4) array of (xmin, xmax, ymin, ymax) per cell, row-major."""
        sx, sy = self.cell_side
        steps = np.arange(self.k)
        x0, y0 = (v.ravel() for v in np.meshgrid(self.area.xmin + steps * sx, self.area.ymin + steps * sy))
        return np.column_stack([x0, x0 + sx, y0, y0 + sy])

    def centroids(self) -> np.ndarray:
        """(k^2, 2) array of cell centers, row-major."""
        sx, sy = self.cell_side
        bounds = self.cell_bounds()
        return np.column_stack([bounds[:, 0] + 0.5 * sx, bounds[:, 2] + 0.5 * sy])


def build_municipality_grid(area: StudyArea, k: int) -> MunicipalityGrid:
    """Partition the area into k^2 equal rectangular cells (squares on a square area)."""
    return MunicipalityGrid(area, k)


def generate_csr_xy(n: int, area: StudyArea, stream: RngStream) -> np.ndarray:
    """(n, 2) i.i.d. uniform coordinates over the area."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = stream.generator()
    x = gen.uniform(area.xmin, area.xmax, n)
    y = gen.uniform(area.ymin, area.ymax, n)
    return np.column_stack([x, y])


def simulate_choices_xy(
    xy: np.ndarray,
    facility: Point,
    params: LogitParams,
    stream: RngStream,
) -> ChoiceDataset:
    """Bernoulli choices with P(y=1) = L(alpha + beta * d(point, facility))."""
    xy = np.asarray(xy, dtype=np.float64)
    # the dataset's own distances drive the probabilities, so they are
    # computed once; its placeholder choices are replaced by the 0/1 draws
    ds = ChoiceDataset(points=xy, facility=facility, choices=np.zeros(xy.shape[0], dtype=np.int64))
    prob = choice_probability(params.alpha + params.beta * ds.distances)
    u = stream.generator().uniform(0.0, 1.0, ds.n)
    ds.choices = (u < prob).astype(np.int64)
    return ds


def assign_to_centroid(ds: ChoiceDataset, grid: MunicipalityGrid) -> ChoiceDataset:
    """The dataset observed at its cell centroids (the unintentional
    locational error of administrative geocoding): each point replaced by
    the centroid of its cell, choices unchanged, distances recomputed.
    Idempotent: centroids map to themselves.
    """
    idx = grid.cell_indices(ds.points)
    return ChoiceDataset(grid.centroids()[idx], ds.facility, ds.choices)
