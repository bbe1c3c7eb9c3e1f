"""Monte Carlo oracle for the masked second moment, shared by criterion 4
and the efficiency unit tests."""

import math

import numpy as np

from geomasksim.rng import as_generator


def masked_second_moment_mc(d: float, theta_star: float, rng, draws: int = 1_000_000) -> float:
    """Monte Carlo E(d_masked^2) for one true distance, unconstrained uniform
    masking — the oracle that adjudicates between the moment variants.

    ``rng`` is an RngStream or a numpy Generator.
    """
    if d < 0.0 or theta_star < 0.0:
        raise ValueError("d and theta_star must be >= 0")
    gen = as_generator(rng)
    theta = gen.uniform(0.0, theta_star, draws)
    delta = gen.uniform(0.0, 2.0 * math.pi, draws)
    # place the true point at (d, 0): masked squared distance to the origin
    sq = (d + theta * np.cos(delta)) ** 2 + (theta * np.sin(delta)) ** 2
    return float(sq.mean())
