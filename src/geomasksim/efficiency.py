"""Fisher information for the distance coefficient and the analytic
efficiency loss induced by uniform geo-masking.

Information is the no-intercept beta-beta entry sum L(1-L) d^2 with L
(``logit.choice_probability``) evaluated at the TRUE distances
(probabilities are treated as fixed by the generating geometry, not as
functions of the perturbed coordinates). Under
masking, d^2 is replaced by its expectation over the displacement law, and
the efficiency loss is the ratio

    EL(theta*) = info(true) / info(masked moment)

which equals 1 at theta* = 0 and decreases strictly as the masking radius
grows. The second moment is

    E(d_masked^2) = d^2 + theta*^2 / 3

from expanding the displaced squared distance with radius ~ U(0, theta*)
and angle ~ U(0, 2*pi): cross terms average to zero and E[radius^2] =
theta*^2/3. (A printed d^2 + theta*/3 adds a length to an area; the
Monte Carlo oracle of acceptance criterion 4 rejects it.)

The empirical companion ratio var(beta_hat true) / var(beta_hat masked) is
computed from replicated fits; note the analytic ratio as defined above is
an information ratio (true over masked), so values below 1 mean the masked
information is LARGER — the empirical variance ratio is reported alongside
without forcing the two onto one interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset
from .logit import LogitParams, choice_probability

_MIN_CONVERGED_FITS = 30


class DegenerateInformationError(ValueError):
    """True-coordinate information is zero; the efficiency ratio is undefined."""


class InsufficientDataError(ValueError):
    """Too few converged fits to estimate a variance ratio."""


@dataclass(frozen=True)
class EfficiencyReport:
    """Analytic (and optionally empirical) efficiency loss at one masking radius."""

    theta_star: float
    info_true: float
    info_masked_analytic: float
    el_analytic: float
    el_empirical: float | None

    def __post_init__(self):
        if not self.info_true > 0.0 or not self.info_masked_analytic > 0.0:
            raise ValueError("information values must be positive")
        if not 0.0 < self.el_analytic <= 1.0:
            raise ValueError(f"el_analytic must lie in (0, 1], got {self.el_analytic}")


def expected_sq_masked_distance(d: float, theta_star: float):
    """Expected squared distance d^2 + theta*^2 / 3 after uniform masking of
    one endpoint.

    Accepts scalars or arrays in ``d``. theta_star = 0 returns d^2 exactly.
    """
    if theta_star < 0.0:
        raise ValueError(f"theta_star must be >= 0, got {theta_star}")
    d = np.asarray(d, dtype=np.float64)
    if (d < 0.0).any():
        raise ValueError("distances must be >= 0")
    out = d * d + theta_star * theta_star / 3.0
    return float(out) if out.ndim == 0 else out


def information_beta(
    ds: ChoiceDataset,
    p: LogitParams,
    theta_star: float = 0.0,
) -> float:
    """beta-information sum L(1-L) E(d_masked^2) with the logistic weights
    L = ``choice_probability(alpha + beta * d)`` at the true distances.

    theta_star = 0 gives the true-coordinate information sum L(1-L) d^2.
    Both sides of the efficiency ratio go through this one expression, so
    the ratio is exactly 1 at theta_star = 0.
    """
    d = ds.distances
    lam = choice_probability(p.alpha + p.beta * d)
    return float((lam * (1.0 - lam) * expected_sq_masked_distance(d, theta_star)).sum())


def empirical_variance_ratio(true_betas: np.ndarray, masked_betas: np.ndarray) -> float:
    """var(beta_hat) over true-coordinate fits / var over masked fits.

    Takes the converged estimates of each side; fewer than 30 on either
    side is an error.
    """
    if len(true_betas) < _MIN_CONVERGED_FITS or len(masked_betas) < _MIN_CONVERGED_FITS:
        raise InsufficientDataError(
            f"need >= {_MIN_CONVERGED_FITS} converged fits on each side, "
            f"got {len(true_betas)} true / {len(masked_betas)} masked"
        )
    v_true = float(np.var(true_betas, ddof=1))
    v_masked = float(np.var(masked_betas, ddof=1))
    if v_masked == 0.0:
        raise InsufficientDataError("masked-fit variance is zero; ratio undefined")
    return v_true / v_masked


def efficiency_report(
    ds: ChoiceDataset,
    p: LogitParams,
    theta_star: float,
    el_empirical: float | None = None,
) -> EfficiencyReport:
    """Bundle the analytic quantities (and an optional empirical ratio) for one theta*.

    el_analytic = info(true) / info(masked moment): 1 at theta* = 0 and
    decreasing in theta*.
    """
    info_true = information_beta(ds, p)
    if info_true <= 0.0:
        raise DegenerateInformationError(f"true information is {info_true}")
    info_masked = information_beta(ds, p, theta_star=theta_star)
    return EfficiencyReport(
        theta_star=theta_star,
        info_true=info_true,
        info_masked_analytic=info_masked,
        el_analytic=info_true / info_masked,
        el_empirical=el_empirical,
    )

