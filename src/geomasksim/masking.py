"""Random displacement of point coordinates (geo-masking).

Two mechanisms are supported, each defined once in the table ``_LAWS`` by
its raw draw, its offset transform and its offset's second moment E|o|^2:

* ``uniform``: displacement distance theta ~ U(0, theta_star) and angle
  delta ~ U(0, 2*pi), drawn independently, so theta_star bounds the error
  exactly; E|o|^2 = theta_star^2 / 3. cos delta and sin delta are taken
  from the half-angle tangent tan(delta / 2) (``_direction``), within 1 eps
  of libm's values.
* ``gaussian``: Cartesian offsets drawn from a centered bivariate normal
  with independent components and common sigma = theta_star / sqrt(2*ln 100),
  the unique sigma for which the displacement radius stays within
  theta_star with probability 0.99; E|o|^2 = 2 sigma^2 = theta_star^2 / ln 100.

Draw order is part of the determinism contract. For each masking attempt
over m pending points the stream is consumed as: m theta values then m
delta values (uniform mechanism), or m x-offsets then m y-offsets
(gaussian mechanism), scaled exactly as numpy's ``uniform(0, theta_star)``
and ``normal(0, sigma)`` scale them.

``mask_rows`` masks one point set once per generator, R replication rows
at a time, and keeps that per-row order. The first attempt draws into the
x and y planes of a plane-major (2, R, n) block, so that every ufunc runs
on contiguous (R, n) planes. Under the redraw policy one attempt loop
serves every row: it keeps the pending (row, point) pairs, and on each
attempt every row still pending draws its 2m values from its own
generator, in row order. A row's draws therefore do not depend on how many
rows are masked with it. ``mask_coordinates`` is its one-row form: one
stream, (n, 2) in and out.

Bounds are one (4,) rectangle (x_min, x_max, y_min, y_max) shared by every
point or each point's own grid cell (``population.GridCells``: a small
unsigned (column, row) index per point), whose float bounds are computed
only for the points a step tests. The first attempt adds the offsets and
tests membership in column blocks of at most ``_BLOCK`` points, so neither
the bounds nor the offset temporaries grow with n; each redraw attempt
computes the bounds of its pending points alone. ``mask_coordinates`` checks
on every call that each point starts inside its bounds (``checked_bounds``);
the experiment harness checks once per run and calls the unchecked kernel
``mask_rows`` for every chunk of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .population import GridCells
from .rng import RngStream

#: sqrt(2*ln(100)); sigma = theta_star / GAUSSIAN_CALIBRATION puts 99% of
#: gaussian displacement radii inside theta_star.
GAUSSIAN_CALIBRATION = math.sqrt(2.0 * math.log(100.0))

BOUNDARY_POLICIES = ("unconstrained", "redraw")

# Points per column block of the first attempt and of the start-point check:
# the offset temporaries and the cell bounds of one block stay in cache.
_BLOCK = 16384


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

    @property
    def second_moment(self) -> float:
        """E|o|^2 of the mechanism's unconstrained offset at theta_star."""
        return _LAWS[self.mechanism][2](self.theta_star)


def _direction(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos delta, sin delta) of delta = 2 * pi * u for raw uniform draws
    ``u`` in [0, 1), from the half-angle tangent t = tan(pi * u):
    cos delta = (1 - t*t) / (1 + t*t) and sin delta = 2t / (1 + t*t).

    pi * u is exactly half of 2 * pi * u (scaling by 2 is exact), so delta
    is the angle numpy's ``uniform(0, 2 * pi)`` draws; only its cosine and
    sine are evaluated differently from libm's, within 1 eps absolute on
    the draws measured. One vectorised ``tan`` replaces ``cos`` and ``sin``.
    t stays finite: its largest magnitude, about 1.6e16 at u = 1/2, squares
    to about 2.7e32, and there cos delta is -1 exactly.

    ``u`` is overwritten: it comes back holding sin delta.
    """
    t = np.multiply(u, math.pi, out=u)
    np.tan(t, out=t)
    t2 = t * t
    denom = t2 + 1.0
    c = np.divide(np.subtract(1.0, t2, out=t2), denom, out=t2)
    s = np.divide(np.multiply(t, 2.0, out=t), denom, out=t)
    return c, s


def _uniform_offsets(theta_star: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta = theta_star * u[0], with the bits of ``uniform(0, theta_star)``,
    along (cos delta, sin delta) of the delta draws ``u[1]``."""
    # scale * draw >= +0.0 here, which adding 0.0 leaves as it is
    theta = np.multiply(u[0], theta_star, out=u[0])
    c, s = _direction(u[1])
    oy = np.multiply(theta, s, out=s)
    return np.multiply(theta, c, out=theta), oy


def _gaussian_offsets(theta_star: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma * u, plus 0.0 as in ``normal(0, sigma)``, which turns a -0.0 product into +0.0."""
    u *= theta_star / GAUSSIAN_CALIBRATION
    u += 0.0
    return u[0], u[1]


#: mechanism -> (raw draw, offset transform, E|o|^2 at theta_star). The transform
#: writes the offsets (ox, oy) of raw draws u of shape (2, ..., m) into u, returning views.
_LAWS = {
    "uniform": (Generator.random, _uniform_offsets, lambda t: t * t / 3.0),
    "gaussian": (Generator.standard_normal, _gaussian_offsets, lambda t: 2.0 * (t / GAUSSIAN_CALIBRATION) ** 2),
}
MECHANISMS = tuple(_LAWS)


def _blocks(n: int) -> list[slice]:
    """Columns [0, n) cut into runs of at most ``_BLOCK``."""
    return [slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK)]


def _inside(x: np.ndarray, y: np.ndarray, bounds, points=slice(None)) -> np.ndarray:
    """Membership of coordinates in one shared (4,) rectangle, or in the
    cells of the ``points`` (a slice or an index array) of ``GridCells``."""
    x_min, x_max, y_min, y_max = bounds.tolist() if isinstance(bounds, np.ndarray) else bounds.bounds(points)
    return (x_min <= x) & (x <= x_max) & (y_min <= y) & (y <= y_max)


def checked_bounds(xy: np.ndarray, spec: MaskSpec, bounds) -> np.ndarray | GridCells | None:
    """The bounds ``mask_rows`` takes for the (n, 2) points ``xy`` under
    ``spec``: None under the unconstrained policy, else ``bounds`` (a
    rectangle as float64) once they are checked to be one (4,) rectangle
    or the ``GridCells`` of the n points, and every point, block by block,
    to start inside its bounds (ValueError otherwise).

    ``mask_coordinates`` checks on every call. The experiment harness masks
    the same points against the same bounds for a whole run, so it checks
    once per run and then calls ``mask_rows``.
    """
    if spec.boundary == "unconstrained":
        return None
    if bounds is None:
        raise ValueError("redraw policy requires bounds")
    n = xy.shape[0]
    if isinstance(bounds, GridCells):
        if bounds.index.shape != (2, n):
            raise ValueError(f"cell index must have shape (2, n) = (2, {n}), got {bounds.index.shape}")
    else:
        bounds = np.asarray(bounds, dtype=np.float64)
        if bounds.shape != (4,):
            raise ValueError(f"bounds must be one (4,) rectangle or GridCells, got shape {bounds.shape}")
    outside = np.empty(n, dtype=np.bool_)
    for block in _blocks(n):
        np.logical_not(_inside(xy[block, 0], xy[block, 1], bounds, block), out=outside[block])
    if outside.any():
        raise ValueError(
            "redraw policy requires points inside their bounds; "
            f"offending index(es) {np.flatnonzero(outside)[:10].tolist()}"
        )
    return bounds


def mask_coordinates(xy: np.ndarray, spec: MaskSpec, bounds, stream: RngStream) -> np.ndarray:
    """The (n, 2) coordinates ``xy`` masked once from the start of ``stream``.

    ``bounds`` is one (x_min, x_max, y_min, y_max) rectangle shared by every
    point, the ``GridCells`` of the n points (each point's own cell), or
    None under the unconstrained policy. Under the redraw
    policy every input point must start inside its bounds, which every call
    checks (``checked_bounds``); displacements are re-drawn until the
    result falls back inside, up to ``spec.max_attempts`` per point, and a
    RuntimeError names the points still outside when they run out.
    """
    xy = np.asarray(xy, dtype=np.float64)
    return mask_rows(xy, spec, checked_bounds(xy, spec, bounds), [stream.generator()])[0].T.copy()


def mask_rows(xy: np.ndarray, spec: MaskSpec, bounds, gens: list[Generator]) -> np.ndarray:
    """The (n, 2) float64 points ``xy`` masked once per generator of
    ``gens``, against ``bounds`` as ``checked_bounds`` returns them; nothing
    is checked here. Row r draws from ``gens[r]`` alone.

    Returns an (R, 2, n) block: [:, 0] the masked x and [:, 1] the masked y
    of each row. It is the transpose of plane-major (2, R, n) storage, so
    the x and y planes stay C-contiguous and every offset, add and
    membership ufunc runs on (R, b) blocks of contiguous rows, b at most
    ``_BLOCK``. When the redraw attempts run out, a RuntimeError names the
    pending points of the lowest row still pending.
    """
    x, y = xy[:, 0], xy[:, 1]
    draw, offsets, _ = _LAWS[spec.mechanism]

    # each row's raw draws, turned into its masked coordinates in place;
    # two calls per row consume its stream as one call of 2n values would
    out = np.empty((2, len(gens), x.size))
    for gen, row_x, row_y in zip(gens, out[0], out[1]):
        draw(gen, out=row_x)
        draw(gen, out=row_y)
    redraw = spec.boundary == "redraw"
    outside = np.empty(out.shape[1:], dtype=np.bool_) if redraw else None
    for block in _blocks(x.size):
        ox, oy = offsets(spec.theta_star, out[:, :, block])
        np.add(x[block], ox, out=out[0, :, block])
        np.add(y[block], oy, out=out[1, :, block])
        if redraw:
            np.logical_not(_inside(out[0, :, block], out[1, :, block], bounds, block), out=outside[:, block])
    if not redraw:
        return out.transpose(1, 0, 2)

    # pending (row, point) pairs in row-major order, so rows is ascending
    rows, points = np.divmod(np.flatnonzero(outside), x.size)
    attempts = 1
    while rows.size:
        if attempts >= spec.max_attempts:
            pending = points[rows == rows[0]][:10].tolist()
            raise RuntimeError(f"masking exhausted {spec.max_attempts} redraw attempts for point index(es) {pending}")
        # rows is ascending, so each pending row's points are one run of it
        u = np.empty((2, rows.size))
        stop = 0
        for r, m in enumerate(np.bincount(rows).tolist()):
            if m:
                start, stop = stop, stop + m
                draw(gens[r], out=u[0, start:stop])
                draw(gens[r], out=u[1, start:stop])
        ox, oy = offsets(spec.theta_star, u)
        px, py = x[points] + ox, y[points] + oy
        out[0, rows, points], out[1, rows, points] = px, py
        keep = ~_inside(px, py, bounds, points)
        rows, points = rows[keep], points[keep]
        attempts += 1
    return out.transpose(1, 0, 2)
