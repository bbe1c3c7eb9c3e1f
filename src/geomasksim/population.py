"""Synthetic populations and the distance-driven choice generator.

Populations are complete-spatial-randomness (CSR) point fields: coordinates
i.i.d. uniform over the study area ``UNIT_SQUARE``, an (n, 2) array.
The choice model, defined here alone: choices are Bernoulli with success
probability L(alpha + beta * d) (``choice_probabilities``), d the (n,)
distances to a single facility, drawn one generator a row by
``draw_choices``; the default generating coefficients are (1, -2) so that
distance deters choice.

Municipality grids are the synthetic stand-in for administrative units in
the centroid-assignment experiment: k x k equal square cells tiling
``UNIT_SQUARE``, with one cell radius, the radius of the circle of the same
surface, as their size scale. A grid gives each point its own cell as a
``GridCells``: (2, n) column and row indices in the smallest unsigned dtype
that holds k - 1 (one byte an index up to k = 256), the per-point bounds
masking reads. The float bounds of a cell are computed only for the points a
masking step tests; centroid assignment returns the cell centers and the
``GridCells``. Nothing of size k^2 is built, so a fine grid costs no more
memory than a coarse one.

Draw-order contract (per stream): generate_csr_xy draws all n x-coordinates,
then all n y-coordinates; draw_choices draws n uniforms compared against
the per-point probabilities, first on a row's stream: the set-up's choices
(simulate_choices_xy) and each efficiency replication's, before its mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import UNIT_SQUARE, equivalent_circle_radius
from .logit import LogitParams, choice_probability
from .rng import RngStream

DEFAULT_GENERATING_PARAMS = LogitParams(1.0, -2.0)
_LOWS = np.array([[UNIT_SQUARE.xmin], [UNIT_SQUARE.ymin]])  # the grid's low corner, as a column


@dataclass(frozen=True)
class MunicipalityGrid:
    """k x k equal square cells tiling ``UNIT_SQUARE`` from its (xmin, ymin)
    corner: the cell in column ix spans [xmin + ix * side, xmin + ix * side
    + side] on x, and the cell in row iy likewise on y."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def side(self) -> float:
        return (UNIT_SQUARE.xmax - UNIT_SQUARE.xmin) / self.k

    @property
    def cell_radius(self) -> float:
        """Radius of the circle of the same surface as one cell."""
        return equivalent_circle_radius(self.side * self.side)

    def cells(self, xy: np.ndarray) -> GridCells:
        """The cell of each of the (n, 2) points ``xy``; raises for points
        outside the area.

        Points on interior cell edges belong to the upper cell; the area's
        outer max edges are clamped into the last row/column so the cells
        tile the closed area exactly.
        """
        xmin, xmax, ymin, ymax = UNIT_SQUARE.bounds
        inside = (xy[:, 0] >= xmin) & (xy[:, 0] <= xmax) & (xy[:, 1] >= ymin) & (xy[:, 1] <= ymax)
        if not inside.all():
            outside = np.flatnonzero(~inside)
            raise ValueError(f"{outside.size} point(s) outside the grid, first index {outside[0]}")
        index = np.empty((2, xy.shape[0]), dtype=np.min_scalar_type(self.k - 1))
        for row, coord, low in ((0, xy[:, 0], xmin), (1, xy[:, 1], ymin)):
            # ix, then iy: clamp the outer max edge, then truncate (the offset is >= 0)
            scaled = coord - low
            scaled /= self.side
            index[row] = np.minimum(scaled, self.k - 1, out=scaled)
        return GridCells(self, index)


@dataclass(frozen=True, eq=False)
class GridCells:
    """The cells of n points in one grid: ``index`` is C-contiguous (2, n),
    the column (row 0) and row (row 1) index of each point's cell."""

    grid: MunicipalityGrid
    index: np.ndarray

    def bounds(self, points=slice(None)) -> np.ndarray:
        """(4, m) array whose rows are the xmin, xmax, ymin and ymax of the
        cells of ``points``, a slice or an index array of the n points:
        index * side + low, then + side."""
        index = self.index[:, points]
        bounds = np.empty((4, index.shape[1]))
        lows = bounds[::2]  # xmin and ymin
        np.multiply(index, self.grid.side, out=lows)
        lows += _LOWS
        np.add(lows, self.grid.side, out=bounds[1::2])
        return bounds


def build_municipality_grid(k: int) -> MunicipalityGrid:
    """Partition ``UNIT_SQUARE`` into k^2 equal square cells."""
    return MunicipalityGrid(k)


def generate_csr_xy(n: int, stream: RngStream) -> np.ndarray:
    """(n, 2) i.i.d. uniform coordinates over ``UNIT_SQUARE``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = stream.generator()
    xy = np.empty((n, 2))
    xy[:, 0] = gen.uniform(UNIT_SQUARE.xmin, UNIT_SQUARE.xmax, n)
    xy[:, 1] = gen.uniform(UNIT_SQUARE.ymin, UNIT_SQUARE.ymax, n)
    return xy


def choice_probabilities(d: np.ndarray, params: LogitParams) -> np.ndarray:
    """The float64 probabilities L(alpha + beta * d) at the distances ``d``:
    eta = d * beta + alpha is formed in the distances' own dtype, then as
    float64 turned into the probabilities in place, so the set-up holds one
    float64 array beside ``d`` and one temporary."""
    eta = np.multiply(d, params.beta)
    eta += params.alpha
    eta = np.asarray(eta, dtype=np.float64)  # a 0-d array for a scalar d
    return choice_probability(eta, out=eta)


def draw_choices(prob: np.ndarray, gens) -> np.ndarray:
    """A (len(gens), n) float64 block of 0.0/1.0 choices: row r is 1.0
    where the n ``random`` draws of ``gens[r]`` (``uniform(0, 1)``'s bits)
    fall below the (n,) probabilities ``prob``, written over the draws."""
    block = np.empty((len(gens), prob.size))
    for gen, row in zip(gens, block):
        gen.random(out=row)
    return np.less(block, prob, out=block)


def simulate_choices_xy(d: np.ndarray, params: LogitParams, stream: RngStream) -> np.ndarray:
    """(n,) bool choices, True with probability L(alpha + beta * d), for
    the (n,) distances ``d``, drawn from ``stream``."""
    return draw_choices(choice_probabilities(d, params), [stream.generator()])[0].astype(bool)


def assign_to_centroid(xy: np.ndarray, grid: MunicipalityGrid) -> tuple[np.ndarray, GridCells]:
    """The (n, 2) coordinates ``xy`` observed at their cell centroids (the
    unintentional locational error of administrative geocoding), with the
    cell of each point (``MunicipalityGrid.cells``): each point is replaced
    by the center of its cell, its cell's low corner + side / 2. Idempotent:
    centroids map to themselves.
    """
    cells = grid.cells(xy)
    centroids = np.multiply(cells.index.T, grid.side, order="C")
    centroids += _LOWS.T
    centroids += 0.5 * grid.side
    return centroids, cells
