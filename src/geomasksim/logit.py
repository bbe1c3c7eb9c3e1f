"""Binary logit on a single distance regressor: likelihood, score,
information, and Newton-Raphson maximum likelihood with Wald inference.

The model is P(y=1) = L(eta) with L the standardized logistic CDF and
eta = alpha + beta * d. The log-likelihood is globally concave in
(alpha, beta), so Newton iteration from the origin with step halving finds
the unique maximum whenever one exists. All log terms use the stable
log-sigmoid form, which is overflow-free for |eta| up to ~700.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from scipy.special import expit

from .dataset import ChoiceDataset

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

# Estimates beyond this magnitude are treated as runaway (quasi-separation).
_DIVERGENCE_BOUND = 1e4


class SeparationError(ValueError):
    """The response is degenerate (all 0s or all 1s); the MLE does not exist."""


class SingularInformationError(RuntimeError):
    """The information matrix is numerically singular."""


class InvalidFitError(ValueError):
    """An operation required a converged fit."""


@dataclass(frozen=True)
class LogitParams:
    """Intercept and distance coefficient (per map unit)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"parameters must be finite, got ({self.alpha}, {self.beta})")


@dataclass
class LogitFit:
    """Fit result with Wald ingredients and convergence diagnostics."""

    params: LogitParams
    std_errors: tuple[float, float]  # (se_alpha, se_beta)
    loglik: float
    information: np.ndarray  # 2x2 negative Hessian at the estimate
    converged: bool
    iterations: int
    gradient_norm: float


def _eta(d: np.ndarray, p: LogitParams) -> np.ndarray:
    return p.alpha + p.beta * d


def log_likelihood(d: np.ndarray, y: np.ndarray, p: LogitParams) -> float:
    """Binomial log-likelihood of choices ``y`` at distances ``d``."""
    eta = _eta(d, p)
    # log L(eta) = -log(1+exp(-eta)); log(1-L(eta)) = -log(1+exp(eta))
    return float(-(y * np.logaddexp(0.0, -eta) + (1 - y) * np.logaddexp(0.0, eta)).sum())


def score(d: np.ndarray, y: np.ndarray, p: LogitParams) -> np.ndarray:
    """Gradient of the log-likelihood: (sum(y - L), sum((y - L) d))."""
    resid = y - expit(_eta(d, p))
    return np.array([resid.sum(), (resid * d).sum()])


def observed_information(d: np.ndarray, p: LogitParams) -> np.ndarray:
    """Negative Hessian of the log-likelihood, entries sum(L(1-L) * [1, d; d, d^2]).

    Positive semidefinite everywhere; positive definite unless the distances
    are all equal or the probabilities are fully saturated.
    """
    lam = expit(_eta(d, p))
    w = lam * (1.0 - lam)
    sw = w.sum()
    swd = (w * d).sum()
    swd2 = (w * d * d).sum()
    return np.array([[sw, swd], [swd, swd2]])


def fit_distance_choice(
    d: np.ndarray,
    y: np.ndarray,
    init: LogitParams = LogitParams(0.0, 0.0),
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LogitFit:
    """Newton-Raphson ML fit on raw (distance, choice) arrays.

    Convergence is declared when the gradient max-norm drops below ``tol``.
    Each Newton step is halved until it does not decrease the log-likelihood.
    Quasi-separated samples (probabilities saturating with unbounded step
    growth) are returned flagged ``converged=False`` instead of raising;
    a truly singular information matrix raises.
    """
    d = np.asarray(d, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.min() == y.max():
        raise SeparationError("choices are all identical; the logit MLE does not exist")

    alpha, beta = init.alpha, init.beta
    ll = log_likelihood(d, y, init)
    converged = False
    iterations = 0
    grad_norm = math.inf

    for iterations in range(1, max_iter + 1):
        p = LogitParams(alpha, beta)
        g = score(d, y, p)
        info = observed_information(d, p)
        grad_norm = float(np.abs(g).max())
        if grad_norm < tol:
            converged = True
            iterations -= 1  # this pass only verified the previous step
            break

        det = info[0, 0] * info[1, 1] - info[0, 1] ** 2
        if not math.isfinite(det) or det <= 0.0:
            raise SingularInformationError(f"information determinant {det} at iteration {iterations}")
        step_a = (info[1, 1] * g[0] - info[0, 1] * g[1]) / det
        step_b = (info[0, 0] * g[1] - info[0, 1] * g[0]) / det

        # Step halving guards against overshoot on near-separated samples.
        # The acceptance slack admits rounding-level decreases: near the
        # optimum a Newton step improves the log-likelihood by less than the
        # summation noise of computing it, and exact nondecrease would stall.
        slack = 1e-10 * (1.0 + abs(ll))
        scale = 1.0
        for _ in range(40):
            cand = LogitParams(alpha + scale * step_a, beta + scale * step_b)
            ll_cand = log_likelihood(d, y, cand)
            if ll_cand >= ll - slack:
                break
            scale *= 0.5
        alpha, beta = alpha + scale * step_a, beta + scale * step_b
        ll = ll_cand

        if abs(alpha) > _DIVERGENCE_BOUND or abs(beta) > _DIVERGENCE_BOUND:
            break  # runaway estimates: quasi-separation, report non-convergence

    params = LogitParams(alpha, beta)
    info = observed_information(d, params)
    det = info[0, 0] * info[1, 1] - info[0, 1] ** 2
    if converged and (not math.isfinite(det) or det <= 0.0):
        raise SingularInformationError(f"information determinant {det} at the optimum")
    se = (
        (math.sqrt(info[1, 1] / det), math.sqrt(info[0, 0] / det))
        if det > 0.0
        else (math.nan, math.nan)
    )

    return LogitFit(
        params=params,
        std_errors=se,
        loglik=ll,
        information=info,
        converged=converged,
        iterations=iterations,
        gradient_norm=grad_norm,
    )


def fit_logit(ds: ChoiceDataset) -> LogitFit:
    """Fit the logit model to a dataset's active distances."""
    return fit_distance_choice(ds.distances, ds.choices)


def z_quantile(level: float) -> float:
    """Two-sided normal quantile for a confidence level in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


def wald_ci(fit: LogitFit, level: float = 0.95) -> tuple[tuple[float, float], tuple[float, float]]:
    """Wald confidence intervals (alpha interval, beta interval)."""
    if not fit.converged:
        raise InvalidFitError("confidence intervals require a converged fit")
    z = z_quantile(level)
    intervals = []
    for estimate, se in zip((fit.params.alpha, fit.params.beta), fit.std_errors):
        intervals.append((estimate - z * se, estimate + z * se))
    return intervals[0], intervals[1]
