"""Random displacement of point coordinates (geo-masking).

Two mechanisms are supported:

* ``uniform``: displacement distance theta ~ U(0, theta_star) and angle
  delta ~ U(0, 2*pi), drawn independently, so theta_star bounds the error
  exactly.
* ``gaussian``: Cartesian offsets drawn from a centered bivariate normal
  with independent components and common sigma = theta_star / sqrt(2*ln 100),
  the unique sigma for which the displacement radius stays within
  theta_star with probability 0.99.

Draw order is part of the determinism contract. For each masking attempt
over m pending points the stream is consumed as: m theta values then m
delta values (uniform mechanism), or m x-offsets then m y-offsets
(gaussian mechanism).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI
from .rng import RngStream, as_generator

#: sqrt(2*ln(100)); sigma = theta_star / GAUSSIAN_CALIBRATION puts 99% of
#: gaussian displacement radii inside theta_star.
GAUSSIAN_CALIBRATION = math.sqrt(2.0 * math.log(100.0))

MECHANISMS = ("uniform", "gaussian")
BOUNDARY_POLICIES = ("unconstrained", "redraw")


class BoundaryExhaustionError(RuntimeError):
    """Redraw attempts ran out before a point landed inside the area."""

    def __init__(self, point_indices, max_attempts):
        self.point_indices = list(point_indices)
        self.max_attempts = max_attempts
        super().__init__(
            f"masking exhausted {max_attempts} redraw attempts for point index(es) "
            f"{self.point_indices[:10]}"
        )

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the error survives the
        # pickle round trip from a pool worker to the parent
        return type(self), (self.point_indices, self.max_attempts)


@dataclass(frozen=True)
class MaskSpec:
    """The geo-masking law: mechanism, maximum displacement, boundary policy."""

    mechanism: str = "uniform"
    theta_star: float = 0.0
    boundary: str = "unconstrained"
    max_attempts: int = 1000

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}; expected one of {MECHANISMS}")
        if self.boundary not in BOUNDARY_POLICIES:
            raise ValueError(f"unknown boundary policy {self.boundary!r}; expected one of {BOUNDARY_POLICIES}")
        if not math.isfinite(self.theta_star) or self.theta_star < 0.0:
            raise ValueError(f"theta_star must be finite and >= 0, got {self.theta_star}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def with_theta_star(self, theta_star: float) -> "MaskSpec":
        return MaskSpec(self.mechanism, theta_star, self.boundary, self.max_attempts)


def _draw_offsets(spec: MaskSpec, gen: np.random.Generator, m: int) -> np.ndarray:
    """(m, 2) Cartesian offsets under the spec's mechanism."""
    if spec.mechanism == "uniform":
        theta = gen.uniform(0.0, spec.theta_star, m)
        delta = gen.uniform(0.0, TWO_PI, m)
        return np.column_stack((theta * np.cos(delta), theta * np.sin(delta)))
    sigma = spec.theta_star / GAUSSIAN_CALIBRATION
    dx = gen.normal(0.0, sigma, m)
    dy = gen.normal(0.0, sigma, m)
    return np.column_stack((dx, dy))


def _inside(xy: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Membership of (m, 2) coordinates in one (4,) rectangle or in per-point
    (m, 4) bounds."""
    x, y = xy[:, 0], xy[:, 1]
    x_min, x_max, y_min, y_max = bounds.T
    return (x_min <= x) & (x <= x_max) & (y_min <= y) & (y <= y_max)


def mask_coordinates(
    xy: np.ndarray,
    spec: MaskSpec,
    bounds: np.ndarray | None,
    rng: RngStream,
) -> np.ndarray:
    """Mask an (m, 2) coordinate array, redrawing against bounds.

    ``bounds`` is one (x_min, x_max, y_min, y_max) rectangle shared by every
    point, an (m, 4) array of such rows, one per point, or None under the
    unconstrained policy. Under the redraw policy every input point must
    start inside its bounds; displacements are re-drawn until the result
    falls back inside, up to ``spec.max_attempts`` per point.
    """
    xy = np.asarray(xy, dtype=np.float64)
    gen = as_generator(rng)
    if spec.boundary == "unconstrained" or bounds is None:
        if spec.boundary == "redraw" and bounds is None:
            raise ValueError("redraw policy requires bounds")
        return xy + _draw_offsets(spec, gen, xy.shape[0])

    bounds = np.asarray(bounds, dtype=np.float64)
    if not _inside(xy, bounds).all():
        outside = np.flatnonzero(~_inside(xy, bounds))
        raise ValueError(f"redraw policy requires points inside their bounds; offending index(es) {outside[:10].tolist()}")

    out = xy + _draw_offsets(spec, gen, xy.shape[0])
    pending = np.flatnonzero(~_inside(out, bounds))
    attempts = 1
    while pending.size:
        if attempts >= spec.max_attempts:
            raise BoundaryExhaustionError(pending.tolist(), spec.max_attempts)
        out[pending] = xy[pending] + _draw_offsets(spec, gen, pending.size)
        pending = pending[~_inside(out[pending], bounds if bounds.ndim == 1 else bounds[pending])]
        attempts += 1
    return out
