"""Monte Carlo oracles for the masked second moment, shared by criterion 4
and the efficiency unit tests, and the rejected printed formula they are
checked against."""

import math

import numpy as np

from geomasksim.masking import MaskSpec, mask_coordinates
from geomasksim.rng import RngStream


def masked_second_moment_mc(d: float, theta_star: float, stream: RngStream, draws: int = 1_000_000) -> float:
    """Monte Carlo E(d_masked^2) for one true distance, unconstrained uniform
    masking — the oracle that adjudicates between the derived moment and
    ``as_printed_sq_masked_distance``.
    """
    if d < 0.0 or theta_star < 0.0:
        raise ValueError("d and theta_star must be >= 0")
    gen = stream.generator()
    theta = gen.uniform(0.0, theta_star, draws)
    delta = gen.uniform(0.0, 2.0 * math.pi, draws)
    # place the true point at (d, 0): masked squared distance to the origin
    sq = (d + theta * np.cos(delta)) ** 2 + (theta * np.sin(delta)) ** 2
    return float(sq.mean())


def as_printed_sq_masked_distance(d: float, theta_star: float) -> float:
    """The printed second moment d^2 + theta*/3, a length added to an area;
    criterion 4 checks that the Monte Carlo moment rejects it."""
    return d * d + theta_star / 3.0


def masked_sq_shift_mc(d: float, spec: MaskSpec, stream: RngStream, draws: int = 1_000_000) -> tuple[float, float]:
    """Mean and standard error of d_masked^2 - d^2 over ``draws`` copies of
    the point (d, 0), masked once through ``mask_coordinates`` under the
    unconstrained policy, with the facility at the origin. Its mean
    estimates the offset second moment E|o|^2 of ``spec``'s mechanism.
    """
    xy = np.zeros((draws, 2))
    xy[:, 0] = d
    masked = mask_coordinates(xy, spec, None, stream)
    shift = (masked * masked).sum(axis=1) - d * d
    return float(shift.mean()), float(shift.std(ddof=1) / math.sqrt(draws))
