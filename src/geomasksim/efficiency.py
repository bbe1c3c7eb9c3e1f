"""Fisher information for the distance coefficient and the analytic
efficiency loss induced by geo-masking.

Information is the no-intercept beta-beta entry sum L(1-L) d^2 with L the
choice model's probabilities L(alpha + beta * d), the ones the choices are
drawn from (``population.choice_probabilities``), evaluated at the TRUE
distances (probabilities are treated as fixed by the generating geometry,
not as functions of the perturbed coordinates). Under masking, d^2 is
replaced by its expectation over the displacement law, and the efficiency
loss is the ratio

    EL(theta*) = info(true) / info(masked moment)

which equals 1 at theta* = 0 and decreases strictly as the masking radius
grows. The second moment is

    E(d_masked^2) = d^2 + E|o|^2

from expanding the squared distance displaced by a centred offset o: the
cross term averages to zero. E|o|^2 is the mask law's
``MaskSpec.second_moment``: theta*^2/3 for uniform (radius ~ U(0, theta*))
and 2 sigma^2 = theta*^2 / ln 100 for gaussian. (A printed d^2 + theta*/3
adds a length to an area; the Monte Carlo oracle of acceptance criterion 4
rejects it.) It is the unconstrained law's moment: under the redraw policy
the empirical ratio masks with the truncated law, while EL stays the
unconstrained law's design-stage ratio.

The empirical companion var(beta_hat true) / var(beta_hat masked) comes
from replicated fits and is reported next to EL, a design-stage information
ratio, without forcing the two onto one interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logit import LogitParams
from .masking import MaskSpec
from .population import choice_probabilities

MIN_CONVERGED_FITS = 30  # on each side of an empirical variance ratio


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


def expected_sq_masked_distance(d: float, spec: MaskSpec):
    """d^2 + E|o|^2 for scalar or array ``d``: the expected squared distance
    after masking one endpoint under ``spec``'s unconstrained law, and d^2
    exactly at theta_star = 0."""
    d = np.asarray(d, dtype=np.float64)
    if (d < 0.0).any():
        raise ValueError("distances must be >= 0")
    out = d * d + spec.second_moment
    return float(out) if out.ndim == 0 else out


def information_beta(d: np.ndarray, p: LogitParams, spec: MaskSpec = MaskSpec()) -> float:
    """beta-information sum L(1-L) E(d_masked^2) under ``spec``, with the
    logistic weights L = ``choice_probabilities(d, p)`` at the true
    distances ``d``.

    The default spec (theta_star = 0) gives the true-coordinate sum
    L(1-L) d^2. Both sides of the efficiency ratio go through this one
    expression, so the ratio is exactly 1 at theta_star = 0.
    """
    lam = choice_probabilities(d, p)
    return float((lam * (1.0 - lam) * expected_sq_masked_distance(d, spec)).sum())


def empirical_variance_ratio(true_betas: np.ndarray, masked_betas: np.ndarray) -> float:
    """var(beta_hat) over true-coordinate fits / var over masked fits, from
    the converged estimates of each side. Fewer than ``MIN_CONVERGED_FITS``
    on either side, or no masked-fit variance, is a RuntimeError: a run
    whose fits came out so cannot finish."""
    if len(true_betas) < MIN_CONVERGED_FITS or len(masked_betas) < MIN_CONVERGED_FITS:
        raise RuntimeError(
            f"need >= {MIN_CONVERGED_FITS} converged fits on each side, "
            f"got {len(true_betas)} true / {len(masked_betas)} masked"
        )
    v_true = float(np.var(true_betas, ddof=1))
    v_masked = float(np.var(masked_betas, ddof=1))
    if v_masked == 0.0:
        raise RuntimeError("masked-fit variance is zero; ratio undefined")
    return v_true / v_masked


def efficiency_report(
    d: np.ndarray, p: LogitParams, spec: MaskSpec, el_empirical: float | None = None
) -> EfficiencyReport:
    """The analytic quantities (and an optional empirical ratio) at the true
    distances ``d`` for the mask law ``spec`` at its theta*. el_analytic =
    info(true) / info(masked moment) is 1 at theta* = 0 and decreasing in
    theta*. Zero true information, where the ratio is 0/0, is a
    ValueError."""
    info_true = information_beta(d, p)
    if info_true <= 0.0:
        raise ValueError(f"true information is {info_true}")
    info_masked = information_beta(d, p, spec)
    return EfficiencyReport(
        theta_star=spec.theta_star,
        info_true=info_true,
        info_masked_analytic=info_masked,
        el_analytic=info_true / info_masked,
        el_empirical=el_empirical,
    )

