"""Per-replication reference for the batched masking kernel.

``mask_one`` masks one replication the way the documented draw contract
reads, one attempt loop per replication: each attempt over the m pending
points draws m theta values then m delta values (uniform mechanism), or m
x-offsets then m y-offsets (gaussian mechanism), through numpy's own
``uniform``, ``random`` and ``normal``. The direction (cos delta, sin delta)
of delta = 2 * pi * draw comes from the package's ``_direction``, the one
place that evaluates it. The batched ``mask_coordinates`` must give the
same bits for every row, however many rows it masks at once. When its
redraw attempts run out, ``mask_one`` raises its own ``Exhausted`` with
every pending point; ``exhaustion_message`` is the text the kernel's
RuntimeError gives for them.
"""

import numpy as np

from geomasksim.geometry import UNIT_SQUARE
from geomasksim.masking import GAUSSIAN_CALIBRATION, _direction
from geomasksim.population import build_municipality_grid

BOUNDS_KINDS = ("none", "shared", "per-point")


class Exhausted(Exception):
    """The oracle ran out of redraw attempts with ``point_indices`` pending."""

    def __init__(self, point_indices):
        super().__init__(point_indices)
        self.point_indices = point_indices


def exhaustion_message(point_indices, max_attempts):
    """The kernel's exhaustion text for the pending ``point_indices``."""
    return f"masking exhausted {max_attempts} redraw attempts for point index(es) {point_indices[:10]}"


def bounds_for(kind, xy):
    """The bounds layouts the kernel takes, for points ``xy`` in the unit
    square: none, the square shared by every point, or each point's cell
    of a 4 x 4 grid as ``GridCells``."""
    if kind == "none":
        return None
    if kind == "shared":
        return np.asarray(UNIT_SQUARE.bounds)
    return build_municipality_grid(4).cells(xy)


def grid_cells(k):
    """(bounds, centroids) of the k x k grid's cells from a row-major loop
    over them: (k*k, 4) rows x0, x0 + side, y0, y0 + side with
    x0 = xmin + ix * side (likewise y0), and (k*k, 2) centers
    x0 + 0.5 * side, y0 + 0.5 * side."""
    side = 1.0 / k
    bounds, centroids = [], []
    for iy in range(k):
        for ix in range(k):
            x0, y0 = UNIT_SQUARE.xmin + ix * side, UNIT_SQUARE.ymin + iy * side
            bounds.append([x0, x0 + side, y0, y0 + side])
            centroids.append([x0 + 0.5 * side, y0 + 0.5 * side])
    return np.array(bounds), np.array(centroids)


def _offsets(spec, gen, m):
    if spec.mechanism == "uniform":
        theta = gen.uniform(0.0, spec.theta_star, m)
        c, s = _direction(gen.random(m))
        return np.column_stack((theta * c, theta * s))
    sigma = spec.theta_star / GAUSSIAN_CALIBRATION
    dx = gen.normal(0.0, sigma, m)
    dy = gen.normal(0.0, sigma, m)
    return np.column_stack((dx, dy))


def _inside(xy, bounds):
    x_min, x_max, y_min, y_max = bounds.T
    return (x_min <= xy[:, 0]) & (xy[:, 0] <= x_max) & (y_min <= xy[:, 1]) & (xy[:, 1] <= y_max)


def point_rows(cells):
    """(n, 4) rows x_min, x_max, y_min, y_max of each point's cell, looked
    up in the row-major per-cell table of ``grid_cells``."""
    k = cells.grid.k
    column, row = cells.index.astype(np.int64)
    return grid_cells(k)[0][row * k + column]


def mask_one(xy, spec, bounds, gen):
    """(n, 2) masked coordinates of one replication drawn from ``gen``.

    ``bounds`` are given in the kernel's layout, one (4,) rectangle or
    ``GridCells``, and the cells read here as one (x_min, x_max, y_min,
    y_max) row per point (``point_rows``)."""
    out = xy + _offsets(spec, gen, xy.shape[0])
    if spec.boundary == "unconstrained":
        return out
    bounds = bounds if isinstance(bounds, np.ndarray) else point_rows(bounds)
    pending = np.flatnonzero(~_inside(out, bounds))
    attempts = 1
    while pending.size:
        if attempts >= spec.max_attempts:
            raise Exhausted(pending.tolist())
        out[pending] = xy[pending] + _offsets(spec, gen, pending.size)
        pending = pending[~_inside(out[pending], bounds if bounds.ndim == 1 else bounds[pending])]
        attempts += 1
    return out
