"""Binary logit on a single distance regressor: likelihood, score,
information, and Newton-Raphson maximum likelihood with Wald inference.

The model is P(y=1) = L(eta) with L the standardized logistic CDF and
eta = alpha + beta * d. The log-likelihood is globally concave in
(alpha, beta), so Newton iteration from the origin with step halving finds
the unique maximum whenever one exists.

One kernel, ``fit_rows``, fits an (R, n) block of (distance, choice) rows at
once; every fit in the package goes through it, ``fit_distance_choice`` as a
one-row block. Each Newton pass is fused. With e = exp(-|eta|):

    probability     p = where(eta >= 0, 1, e) * v  with  v = 1/(1 + e)
    weight          w = p(1 - p) = e*v * v
    log-likelihood  sum(y*eta - max(eta, 0) - log1p(e))

so a pass costs one ``exp`` per point and overflows for no eta. The score
(sum r, sum r*d) with r = y - p and the information (sum w, sum w*d,
sum w*d^2) come from the same p and w. One routine, ``_step``, takes each
Newton step s, halved where needed. The full step is accepted by the slope
of the log-likelihood along s at its end, g_new . s, from the score the
next pass needs anyway: the log-likelihood is concave along s, so
ll(new) - ll(old) >= g_new . s, and a slope of at least -1e-10 meets the
step-halving rule unhalved. Once a row fails this test, the block
evaluates the log-likelihood (one ``log1p`` per point) at its old point and
at step-halving candidates until each failing row has one within
1e-10 * (1 + |ll|) of its old value. A fit that starts at the origin, as
every fit in the package does, takes its first pass in closed form
(``_origin``). ``log_likelihood``, ``score`` and ``observed_information``
are one-row views of the same pass.

Each pass decides at one site, from the current estimate, which rows stop
and how (``fit_rows``). This module alone decides a fit without an
estimate: a SEPARATED row (a distance cut splits its choices, so the MLE
does not exist; Albert & Anderson, Biometrika 71, 1984) or a SINGULAR one
reports NaN, and ``fit_distance_choice`` raises InvalidFitError for both.

``choice_probability`` is the package's one logistic function outside the
fit, in the same overflow-free form: ``population.choice_probabilities``,
the choice model's one L(alpha + beta * d), takes L from it.

Row independence: the bits of a row depend neither on the other rows of its
block nor on how its columns are cut. Elementwise operations are exact per
element. A pass runs over column blocks of at most ``_BLOCK`` points in four
(rows, min(n, _BLOCK)) work arrays, allocated once per ``fit_rows`` call, so
a fit's scratch memory does not grow with n. The blocks are the leaves of
the tree that numpy's pairwise summation follows (``_tree``): it sums a run
of k > 128 elements as the sum of its first h = k//2 - (k//2) % 8 elements
plus the sum of the rest. A block's sums are ``.sum(axis=1)`` over its
columns, which reduces each row as the 1-D sum of those elements would, and
the blocks' sums combine left + right in the tree's order, so every row sum
is the bits of that row's 1-D sum. Rows that stop are dropped by taking
row subsets; halved steps are tried on the whole block in place. The
replication harness passes max(1, 16384 // n) rows per call, which keeps
the work arrays in cache while a row fits in one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100
#: two-sided 95% normal quantile of the Wald intervals and tests
Z_95 = 1.9599639845400536  # statistics.NormalDist().inv_cdf(0.975)

# Estimates beyond this magnitude are treated as runaway (quasi-separation).
_DIVERGENCE_BOUND = 1e4
# A CONVERGED row with a weight sum sum p(1-p) below this is tested for
# separation: saturated ones stop near 1e-7, the harness's rows at n = 1000
# above 200, and a row's points tied at its cut weigh at most 1/4 each.
_SATURATED = 4.0
#: smallest normal float64: a determinant below _TINY * max(1, diagonal)
#: is singular, since the standard errors sqrt(diagonal / det) would not be
#: finite
_TINY = float(np.finfo(np.float64).tiny)
# Step-halving candidates per Newton step: scales 1, 1/2, ..., 2**-39.
_MIN_SCALE = 2.0**-39
# A candidate is accepted when the log-likelihood fell by at most
# _SLACK * (1 + |ll|): near the optimum a Newton step improves it by less
# than the summation noise of computing it, and exact nondecrease would stall.
_SLACK = 1e-10
# Points per column block of a Newton pass (see _tree). At n = 100,000 the
# blocks hold 25,000 points, which ran a pass faster than no blocks or than
# 12,500-point ones.
_BLOCK = 1 << 15

#: Row statuses of a ``fit_rows`` block.
CONVERGED, NOT_CONVERGED, SEPARATED, SINGULAR = range(4)


class InvalidFitError(ValueError):
    """A fit has no estimate, or an operation required a converged fit."""


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


@dataclass
class RowFits:
    """Per-row results of ``fit_rows``; entry i belongs to row i of the block."""

    alpha: np.ndarray
    beta: np.ndarray
    std_errors: np.ndarray  # (R, 2): (se_alpha, se_beta)
    information: np.ndarray  # (R, 2, 2)
    iterations: np.ndarray
    gradient_norm: np.ndarray
    status: np.ndarray  # CONVERGED, NOT_CONVERGED, SEPARATED or SINGULAR


def _block(d, y) -> tuple[np.ndarray, ...]:
    """``d`` as float64 and ``y`` broadcast to one (R, n) shape. Bool and
    integer choices are kept as they are: each ufunc that reads them casts
    0 and 1 to float64 exactly, so they fit to the bits of float64 ones with
    no float64 copy; other choices become float64."""
    D, Y = np.atleast_2d(np.asarray(d, dtype=np.float64)), np.atleast_2d(y)
    if Y.dtype.kind not in "biu":
        Y = Y.astype(np.float64, copy=False)
    return (D, Y) if D.shape == Y.shape else np.broadcast_arrays(D, Y)


def choice_probability(eta, out: np.ndarray | None = None) -> np.ndarray:
    """L(eta) = 1/(1 + exp(-eta)) elementwise, as where(eta >= 0, 1, e)/(1 + e)
    with e = exp(-|eta|).

    e and the quotient are computed in one float64 array: a new one, or
    ``out``, a float64 array of eta's shape, which may be ``eta`` itself;
    otherwise ``eta`` is never written. exp never overflows, so L is finite
    for every finite eta, and L(0) is exactly 1/2. Where eta < 0, e/(1 + e)
    rounds twice, so between adjacent floats L can step down by an ulp.
    """
    eta = np.asarray(eta, dtype=np.float64)
    nonnegative = eta >= 0.0  # taken first, since ``out`` may be ``eta``
    e = np.abs(eta, out=np.empty_like(eta) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = 1.0 + e
    np.copyto(e, 1.0, where=nonnegative)
    e /= denominator
    return e if e.ndim else e[()]


def _tree(n: int):
    """numpy's pairwise-sum tree over n columns, cut down to blocks of at
    most ``_BLOCK``: a run of k > _BLOCK columns splits at
    h = k//2 - (k//2) % 8 into a (left, right) pair of subtrees, and a block
    is a column slice. None when one block holds every column."""

    def split(lo, hi):
        if hi - lo <= _BLOCK:
            return slice(lo, hi)
        h = lo + (hi - lo) // 2 - (hi - lo) // 2 % 8
        return split(lo, h), split(h, hi)

    return split(0, n) if n > _BLOCK else None


def _pass(kernel, tree, D, Y, W, a=None, b=None) -> np.ndarray:
    """``kernel(D, Y, H, E, T1, T2)`` on each column block of ``tree``, with
    eta and e at the per-row (a, b) filled in first unless ``a`` is None,
    and the blocks' row sums added left + right in the tree's order. ``W``
    is the work arrays (H, E, T1, T2), at least one block wide."""
    if type(tree) is tuple:
        left, right = tree
        return _pass(kernel, left, D, Y, W, a, b) + _pass(kernel, right, D, Y, W, a, b)
    if tree is not None:
        D, Y = D[:, tree], Y[:, tree]
        W = (v[:, : D.shape[1]] for v in W)
    H, E, T1, T2 = W
    if a is not None:
        _eta_exp(D, a, b, H, E)
    return kernel(D, Y, H, E, T1, T2)


def _eta_exp(D, a, b, H, E) -> None:
    """eta = a + b*d into H and e = exp(-|eta|) into E, with per-row a, b."""
    np.multiply(D, b[:, None], out=H)
    H += a[:, None]
    np.abs(H, out=E)
    np.negative(E, out=E)
    np.exp(E, out=E)


def _loglik(D, Y, H, E, T1, T2) -> np.ndarray:
    """Per-row log-likelihood from eta (H) and e (E); reads no D, and
    overwrites T1 and T2.

    Each point's term y*eta - max(eta, 0) - log1p(e) is <= 0, so the row sum
    has no cancellation.
    """
    np.multiply(Y, H, out=T1)
    T1 -= np.maximum(H, 0.0, out=T2)
    T1 -= np.log1p(E, out=T2)
    return T1.sum(axis=1)


def _moments(D, Y, H, E, T1, T2) -> np.ndarray:
    """(rows, 5) sums [r, r*d, w, w*d, w*d*d] with r = y - p, w = p(1 - p),
    at the point whose eta and e are in H and E; overwrites E, T1 and T2."""
    M = np.empty((H.shape[0], 5))
    np.add(E, 1.0, out=T1)
    np.reciprocal(T1, out=T1)  # v = 1/(1+e): p where eta >= 0, 1 - p elsewhere
    E *= T1  # u = e*v: the other one
    np.multiply(E, T1, out=T2)
    M[:, 2] = T2.sum(axis=1)
    T2 *= D
    M[:, 3] = T2.sum(axis=1)
    T2 *= D
    M[:, 4] = T2.sum(axis=1)
    # p = max(u, copysign(v, eta)) picks v where eta >= 0 (u <= 1/2 <= v)
    # and u elsewhere, without a branch per point
    np.copysign(T1, H, out=T1)
    np.maximum(E, T1, out=T1)
    np.subtract(Y, T1, out=T1)
    M[:, 0] = T1.sum(axis=1)
    T1 *= D
    M[:, 1] = T1.sum(axis=1)
    return M


def _origin(D, Y, H, E, T1, T2) -> np.ndarray:
    """``_moments`` of every row at alpha = beta = 0, in closed form; reads
    neither H nor E, and overwrites T1 and T2.

    There eta = a + b*d is +0.0 and e = 1 at every finite d, so p = 1/2 and
    w = 1/4 at every point. sum(w) is taken over one row filled with 1/4,
    and the rest as sum(y - 1/2), sum((y - 1/2)*d), sum(d*0.25) and
    sum(d*0.25*d): the products and row sums of the general pass, bit for
    bit, in 8 elementwise passes instead of 20.
    """
    M = np.empty((D.shape[0], 5))
    T2[:1] = 0.25
    M[:, 2] = T2[:1].sum(axis=1)
    np.multiply(D, 0.25, out=T2)
    M[:, 3] = T2.sum(axis=1)
    T2 *= D
    M[:, 4] = T2.sum(axis=1)
    np.subtract(Y, 0.5, out=T1)
    M[:, 0] = T1.sum(axis=1)
    T1 *= D
    M[:, 1] = T1.sum(axis=1)
    return M


def _row_pass(kernel, d, y, p: LogitParams) -> np.ndarray:
    """``_pass`` of ``kernel`` on the one (d, y) row at ``p``, with a one-row
    work array."""
    D, Y = _block(d, y)
    W = tuple(np.empty((4, 1, min(D.shape[1], _BLOCK))))
    return _pass(kernel, _tree(D.shape[1]), D, Y, W, np.array([p.alpha]), np.array([p.beta]))[0]


def log_likelihood(d: np.ndarray, y: np.ndarray, p: LogitParams) -> float:
    """Binomial log-likelihood of choices ``y`` at distances ``d``."""
    return float(_row_pass(_loglik, d, y, p))


def score(d: np.ndarray, y: np.ndarray, p: LogitParams) -> np.ndarray:
    """Gradient of the log-likelihood: (sum(y - L), sum((y - L) d))."""
    return _row_pass(_moments, d, y, p)[:2]


def observed_information(d: np.ndarray, p: LogitParams) -> np.ndarray:
    """Negative Hessian of the log-likelihood, entries sum(L(1-L) * [1, d; d, d^2]).

    Positive semidefinite everywhere; positive definite unless the distances
    are all equal or the probabilities are fully saturated.
    """
    sw, swd, swd2 = _row_pass(_moments, d, 0.0, p)[2:]
    return np.array([[sw, swd], [swd, swd2]])


def _separated(D, Y) -> np.ndarray:
    """Which rows, each holding both choices, a distance cut separates:
    max(d | y=1) <= min(d | y=0) or the reverse, unless the distances are
    all equal (a SINGULAR row), in four masked reductions and no sort."""
    one = Y != 0
    zero = ~one
    hi1, hi0 = (np.max(D, axis=1, where=w, initial=-math.inf) for w in (one, zero))
    lo1, lo0 = (np.min(D, axis=1, where=w, initial=math.inf) for w in (one, zero))
    return ((hi1 <= lo0) | (hi0 <= lo1)) & (np.minimum(lo1, lo0) < np.maximum(hi1, hi0))


def _step(tree, D, Y, a, b, step_a, step_b, W):
    """Take each row's Newton step, halved until the log-likelihood is within
    _SLACK * (1 + |ll|) of its old value ``ll``, and return the new (a, b)
    and the ``_moments`` there; passes run on the blocks of ``tree`` and
    overwrite the work arrays ``W``.

    Scales run 1, 1/2, ..., _MIN_SCALE, and the last is taken regardless. The
    full step is kept without evaluating ll when the slope along it at the
    candidate, g_new . step, is at least -_SLACK: the log-likelihood is
    concave along the step, so then ll(new) >= ll(old) - _SLACK. Once a row
    fails that test, the whole block evaluates ll at its old point and at
    each scale until every failing row has taken the first scale it accepts,
    and the block's moments are taken again at the new point, the same bits
    as the accepted candidates'.
    """
    new_a, new_b = a + step_a, b + step_b
    M = _pass(_moments, tree, D, Y, W, new_a, new_b)
    # a NaN slope fails the comparison and is halved too
    pending = ~(M[:, 0] * step_a + M[:, 1] * step_b >= -_SLACK)
    if pending.any():
        ll = _pass(_loglik, tree, D, Y, W, a, b)
        floor, scale = ll - _SLACK * (1.0 + np.abs(ll)), 1.0
        while pending.any():
            ca, cb = a + scale * step_a, b + scale * step_b
            # a NaN candidate fails the comparison and is halved too
            ok = pending & ((_pass(_loglik, tree, D, Y, W, ca, cb) >= floor) | (scale == _MIN_SCALE))
            new_a[ok], new_b[ok] = ca[ok], cb[ok]
            pending, scale = pending & ~ok, scale * 0.5
        M = _pass(_moments, tree, D, Y, W, new_a, new_b)
    return new_a, new_b, M


def fit_rows(
    d: np.ndarray,
    y: np.ndarray,
    init: LogitParams = LogitParams(0.0, 0.0),
    max_iter: int = DEFAULT_MAX_ITER,
) -> RowFits:
    """Newton-Raphson ML fits of a block of (distance, choice) rows.

    ``d`` and ``y`` broadcast to (R, n); a 1-D one is shared by every row.
    The choices ``y`` may be bool (one byte a point, as the package's own
    choices are), integer or float: bool and integer choices are read as
    they are, with no float64 copy, and fit to the same bits as their
    float64 values. A row with all-equal choices is SEPARATED. Every other
    row starts at ``init`` and stops before a Newton step: NOT_CONVERGED
    once ``max_iter`` steps are taken or its estimate lies beyond the
    divergence bound (quasi-separation; a start beyond it stops at once),
    else SINGULAR unless its information determinant is finite and at least
    ``_TINY`` times max(1, its diagonal) (so that the standard errors are
    finite), else CONVERGED once its gradient max-norm is below
    ``DEFAULT_TOL``. A row that ran away, or converged with a weight sum
    below ``_SATURATED``, is SEPARATED instead if ``_separated`` says so.
    A SEPARATED or SINGULAR row has no estimate: NaN in every float field,
    0 ``iterations``. Any other row's ``iterations`` counts the steps taken,
    and its ``information`` and ``gradient_norm`` are those of its
    estimate. Each step is halved by ``_step``. The distances must be
    finite: the start at the origin is taken in closed form (``_origin``),
    which holds for finite d.
    """
    D, Y = _block(d, y)
    R, n = D.shape
    alpha, beta, gradient_norm = np.full((3, R), math.nan)
    info = np.full((R, 3), math.nan)  # (sum w, sum w*d, sum w*d*d)
    iterations = np.zeros(R, dtype=np.int64)
    status = np.full(R, SEPARATED, dtype=np.int8)  # every other row is stored when it stops

    idx = np.flatnonzero(Y.min(axis=1) != Y.max(axis=1))
    if idx.size < R:
        D, Y = D[idx], Y[idx]
    m, tree = idx.size, _tree(n)
    W = tuple(np.empty((4, m, min(n, _BLOCK))))
    a, b = np.full(m, init.alpha), np.full(m, init.beta)
    if init.alpha == 0.0 and init.beta == 0.0:
        M = _pass(_origin, tree, D, Y, W)
    else:
        M = _pass(_moments, tree, D, Y, W, a, b)

    for steps in range(max_iter + 1):
        if not m:
            break
        gnorm = np.maximum(np.abs(M[:, 0]), np.abs(M[:, 1]))
        det = M[:, 2] * M[:, 4] - M[:, 3] ** 2
        # a runaway estimate is quasi-separation
        ran_away = (np.abs(a) > _DIVERGENCE_BOUND) | (np.abs(b) > _DIVERGENCE_BOUND)
        out = ran_away | (steps == max_iter)
        # M[:, 2:5:2] is the diagonal (sum w, sum w*d*d)
        singular = ~(np.isfinite(det) & (det >= _TINY * M[:, 2:5:2].max(axis=1, initial=1.0)))
        stopped = out | singular | (gnorm < DEFAULT_TOL)
        if stopped.any():
            code = np.where(out, NOT_CONVERGED, np.where(singular, SINGULAR, CONVERGED))
            # a runaway row, or a converged one whose weight sum M[:, 2] shows saturation, may be separated
            suspect = np.flatnonzero(ran_away | stopped & (code == CONVERGED) & (M[:, 2] < _SATURATED))
            if suspect.size:
                code[suspect[_separated(D[suspect], Y[suspect])]] = SEPARATED
            status[idx[stopped]] = code[stopped]
            fitted = stopped & ((code == CONVERGED) | (code == NOT_CONVERGED))
            rows = idx[fitted]
            alpha[rows], beta[rows] = a[fitted], b[fitted]
            gradient_norm[rows], info[rows], iterations[rows] = gnorm[fitted], M[fitted, 2:], steps
            keep = ~stopped
            idx, a, b, M, det = (v[keep] for v in (idx, a, b, M, det))
            m = idx.size
            if not m:
                break
            D, Y = D[keep], Y[keep]
            W = tuple(v[:m] for v in W)

        g0, g1, i00, i01, i11 = M.T
        step_a = (i11 * g0 - i01 * g1) / det
        step_b = (i00 * g1 - i01 * g0) / det
        a, b, M = _step(tree, D, Y, a, b, step_a, step_b, W)

    sw, swd, swd2 = info.T
    det = sw * swd2 - swd**2
    return RowFits(
        alpha=alpha,
        beta=beta,
        std_errors=np.sqrt(np.column_stack((swd2, sw)) / np.where(det > 0.0, det, math.nan)[:, None]),
        information=info[:, [0, 1, 1, 2]].reshape(R, 2, 2),
        iterations=iterations,
        gradient_norm=gradient_norm,
        status=status,
    )


def fit_distance_choice(
    d: np.ndarray,
    y: np.ndarray,
    init: LogitParams = LogitParams(0.0, 0.0),
    max_iter: int = DEFAULT_MAX_ITER,
) -> LogitFit:
    """Newton-Raphson ML fit on raw (distance, choice) arrays: ``fit_rows``
    on one row, with the log-likelihood at the estimate from
    ``log_likelihood``.

    A fit that ran out of steps is returned flagged ``converged=False``; one
    without an estimate, SEPARATED or SINGULAR, raises InvalidFitError
    saying which.
    """
    fits = fit_rows(d, y, init, max_iter)
    if fits.status[0] == SEPARATED:
        raise InvalidFitError("the choices are separated, all identical or split by a distance cut: no logit MLE exists")
    if fits.status[0] == SINGULAR:
        raise InvalidFitError("the information matrix is singular, so the distance slope cannot be identified")
    params = LogitParams(float(fits.alpha[0]), float(fits.beta[0]))
    return LogitFit(
        params=params,
        std_errors=(float(fits.std_errors[0, 0]), float(fits.std_errors[0, 1])),
        loglik=log_likelihood(d, y, params),
        information=fits.information[0],
        converged=bool(fits.status[0] == CONVERGED),
        iterations=int(fits.iterations[0]),
        gradient_norm=float(fits.gradient_norm[0]),
    )


def wald_ci(fit: LogitFit) -> tuple[tuple[float, float], tuple[float, float]]:
    """95% Wald confidence intervals (alpha interval, beta interval)."""
    if not fit.converged:
        raise InvalidFitError("confidence intervals require a converged fit")
    (se_a, se_b), p = fit.std_errors, fit.params
    return (p.alpha - Z_95 * se_a, p.alpha + Z_95 * se_a), (p.beta - Z_95 * se_b, p.beta + Z_95 * se_b)
