"""Gaussian kernel density estimation for Monte Carlo estimate distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KDE_GRID_SIZE = 512
_EVAL_ELEMENTS = 1 << 15  # grid points x values per block: 256 KB temporaries, one grid point for larger samples


@dataclass(frozen=True)
class KdeEstimate:
    """Density evaluated on a fixed grid; integrates to 1 by trapezoid rule."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float

    def __post_init__(self):
        if self.grid.shape != self.density.shape:
            raise ValueError("grid and density shapes differ")
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if (self.density < 0.0).any():
            raise ValueError("density must be nonnegative")


def _quartiles(values: np.ndarray) -> tuple[float, float]:
    """(q75, q25) of a sample of n >= 2 values, bit-equal to
    ``np.percentile(values, [75.0, 25.0])``.

    numpy's default "linear" rule: the q-quantile sits at position
    h = q (n - 1) of the sorted sample, between a = s[floor(h)] and
    b = s[floor(h) + 1] with weight t = h - floor(h), and is interpolated as
    b - (b - a)(1 - t) when t >= 1/2 and a + (b - a) t otherwise. (numpy's
    own percentile calls np.unique, which imports numpy.ma on first use.)
    """
    s = np.sort(values)
    out = []
    for q in (0.75, 0.25):
        h = (s.size - 1) * q
        i = int(h)
        t = h - i
        a, b = float(s[i]), float(s[i + 1])
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return out[0], out[1]


def silverman_bandwidth(values: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5), with sd alone when the IQR is zero.

    The IQR fallback keeps the bandwidth positive for small or tie-heavy
    samples that still have spread; a sample without a positive bandwidth
    (all values identical, or a spread so small that the bandwidth
    underflows to 0) is a ValueError.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.min() == values.max():
        # sd can come out ~1e-16 instead of 0 for constant samples (the mean
        # rounds off by an ulp), so test degeneracy on the range, not the sd
        raise ValueError("all values identical")
    sd = float(np.std(values, ddof=1))
    q75, q25 = _quartiles(values)
    iqr = q75 - q25
    spread = sd if iqr == 0.0 else min(sd, iqr / 1.34)
    bandwidth = 0.9 * spread * len(values) ** (-0.2)
    if not bandwidth > 0.0:
        # a spread near 1e-300 underflows: the squared deviations round to 0
        raise ValueError(f"spread {spread!r} too small for a positive bandwidth")
    return bandwidth


def kde(values) -> KdeEstimate:
    """Gaussian-kernel density, at the Silverman bandwidth, on 512 equally
    spaced points spanning the data range plus 3 bandwidths each side.

    The grid truncates a small amount of kernel mass for tiny samples, so
    the evaluated density is renormalized to integrate to exactly 1 over
    the grid (trapezoid rule).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError(f"need >= 2 values, got {values.size}")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    with np.errstate(over="ignore"):  # a spread near the float range overflows the sd or the grid
        bandwidth = silverman_bandwidth(values)
        lo, hi = values.min() - 3.0 * bandwidth, values.max() + 3.0 * bandwidth
        if not np.isfinite(hi - lo):
            raise ValueError("values spread too wide for a finite grid")
        # a near-subnormal bandwidth overflows norm; the density is renormalized below, so 1 serves there
        norm = 1.0 / (values.size * bandwidth * np.sqrt(2.0 * np.pi))
    norm = norm if np.isfinite(norm) else 1.0

    grid = np.linspace(lo, hi, KDE_GRID_SIZE)
    density = np.empty(KDE_GRID_SIZE)
    step = max(1, _EVAL_ELEMENTS // values.size)  # a grid point sums its own row: no bit depends on step
    for start in range(0, KDE_GRID_SIZE, step):
        block = grid[start : start + step]
        # z, and z*z above all, overflow to inf for a grid point hundreds of
        # orders of bandwidths from a value, where exp(-inf) = 0 is its kernel
        with np.errstate(over="ignore"):
            z = (block[:, None] - values[None, :]) / bandwidth
            density[start : start + block.size] = norm * np.exp(-0.5 * z * z).sum(axis=1)

    density /= np.trapezoid(density, grid)
    return KdeEstimate(grid=grid, density=density, bandwidth=bandwidth)
