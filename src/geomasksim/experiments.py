"""Monte Carlo experiment harness: mask coordinates, refit, aggregate.

Three experiment kinds share one machinery:

* ``csr-population`` — CSR individuals on the unit square, one facility at
  the center, binary choices from the generating logit; coordinates are
  re-masked per replication over a theta* grid (fractions of a reference
  radius, default 0.707) and the model is refit each time.
* ``fixed-area-grid`` — same harness with the reference radius tied to the
  study region's equivalent circle radius, the analog of masking within a
  fixed administrative-unit scale.
* ``centroid`` — individuals are first collapsed to the centroids of a
  k x k cell grid (unintentional locational error); each replication then
  re-masks every individual uniformly within its own cell with theta* equal
  to the cell's equivalent radius.

Fixed-y design: choices are generated exactly once, before the baseline
fit, and never regenerated afterward; a checksum of the choice vector is
asserted inside every worker so that all cross-replication variation is
attributable to locational error alone.

Determinism: replication (theta_index, rep) owns a private stream derived
from the run seed, so results are independent of worker count and schedule;
records are emitted sorted by (theta_star, rep). Replications are fitted in
row chunks by ``fit_rows``, whose rows do not depend on each other, so the
records do not depend on the chunk size or the worker task size either.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .dataset import ChoiceDataset
from .efficiency import (
    DEFAULT_MOMENT_VARIANT,
    EfficiencyReport,
    efficiency_report,
    empirical_variance_ratio,
)
from .geometry import Point, StudyArea, equivalent_circle_radius, facility_distances
from .logit import (
    SEPARATED,
    SINGULAR,
    LogitFit,
    LogitParams,
    RowFits,
    fit_distance_choice,  # noqa: F401  (bound here for perfbench/tracer.py, which wraps it by name)
    fit_logit,
    fit_rows,
    wald_ci,
    z_quantile,
)
from .masking import MaskSpec, mask_coordinates
from .population import (
    DEFAULT_GENERATING_PARAMS,
    assign_to_centroid,
    build_municipality_grid,
    generate_csr_xy,
    simulate_choices_xy,
)
from .rng import choices_stream, derive_stream, efficiency_masked_stream, efficiency_true_stream, population_stream

EXPERIMENTS = ("centroid", "fixed-area-grid", "csr-population")

DEFAULT_THETA_GRID = tuple(round(i / 10, 1) for i in range(1, 11))
# Half-diagonal of the unit square as printed (0.707), the reference scale
# for the CSR experiment's theta* grid.
CSR_REFERENCE_RADIUS = 0.707
# Equivalent circle radius of the unit study region, the analog of a fixed
# administrative-unit scale.
FIXED_AREA_REFERENCE_RADIUS = equivalent_circle_radius(1.0)

DEFAULT_REPLICATIONS = 1000
FAST_REPLICATIONS = 200
DEFAULT_GRID_K = 10

_REP_BLOCK = 64  # replications per worker task
# Points per fit_rows call: a chunk of max(1, _ROW_ELEMENTS // n) rows keeps
# the kernel's (rows, n) work arrays in cache.
_ROW_ELEMENTS = 16384
_MIN_CELL_CONVERGENCE = 0.5
_CI_LEVEL = 0.95


class EmptyCellError(ValueError):
    """No converged replication records for a theta* cell."""


class BatchConvergenceError(RuntimeError):
    """A theta* cell converged on fewer than half of its replications."""

    def __init__(self, theta_star: float, rate: float):
        self.theta_star = theta_star
        self.rate = rate
        super().__init__(f"cell theta*={theta_star:g} converged on {rate:.1%} of replications")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulation run."""

    experiment: str
    n: int = 1000
    replications: int = DEFAULT_REPLICATIONS
    theta_grid: tuple[float, ...] = DEFAULT_THETA_GRID
    reference_radius: float = CSR_REFERENCE_RADIUS
    generating_params: LogitParams = DEFAULT_GENERATING_PARAMS
    mask: MaskSpec = MaskSpec()
    seed: int = 0
    workers: int = 1
    grid_k: int = DEFAULT_GRID_K
    area: StudyArea = StudyArea.unit_square()
    facility: Point | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.grid_k < 1:
            raise ValueError(f"grid_k must be >= 1, got {self.grid_k}")
        if not self.theta_grid:
            raise ValueError("theta_grid must be nonempty")
        if any(not 0.0 <= f <= 1.0 for f in self.theta_grid):
            raise ValueError(f"theta_grid fractions must lie in [0, 1], got {self.theta_grid}")
        if list(self.theta_grid) != sorted(set(self.theta_grid)):
            raise ValueError("theta_grid must be strictly ascending")
        if not self.reference_radius > 0.0:
            raise ValueError(f"reference_radius must be > 0, got {self.reference_radius}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @property
    def resolved_facility(self) -> Point:
        return self.facility if self.facility is not None else self.area.center

    def theta_values(self) -> tuple[float, ...]:
        """Absolute masking radii: reference_radius x grid fractions."""
        return tuple(self.reference_radius * f for f in self.theta_grid)


@dataclass(frozen=True)
class ReplicationRecord:
    """One refit after one masking replication."""

    theta_star: float
    rep: int
    alpha_hat: float
    beta_hat: float
    se_beta: float
    converged: bool
    iterations: int
    significant_beta: bool
    outside_true_ci: bool


@dataclass(frozen=True)
class CurveRow:
    """Aggregates over one theta* cell (converged records only; the
    convergence rate is over all records)."""

    theta_star: float
    mean_abs_beta: float
    sd_beta: float
    pct_outside_true_ci: float
    pct_nonsignificant: float
    convergence_rate: float

    def __post_init__(self):
        for name in ("pct_outside_true_ci", "pct_nonsignificant"):
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"{name} must lie in [0, 100], got {v}")
        if not 0.0 <= self.convergence_rate <= 1.0:
            raise ValueError(f"convergence_rate must lie in [0, 1], got {self.convergence_rate}")


@dataclass(frozen=True)
class AttenuationCurve:
    """Per-theta* aggregate rows, sorted by ascending theta*."""

    rows: tuple[CurveRow, ...]

    def __post_init__(self):
        thetas = [r.theta_star for r in self.rows]
        if thetas != sorted(thetas):
            raise ValueError("curve rows must be sorted by theta_star")

    def theta_stars(self) -> list[float]:
        return [r.theta_star for r in self.rows]


@dataclass
class ExperimentResult:
    """Everything one run produces, pre-serialization."""

    config: ExperimentConfig
    baseline: LogitFit
    records: list[ReplicationRecord]
    curve: AttenuationCurve
    dataset: ChoiceDataset


@dataclass
class EfficiencyRun:
    """Analytic reports plus the replicated estimates behind el_empirical."""

    reports: list[EfficiencyReport]
    true_betas: np.ndarray
    masked_betas: list[np.ndarray]  # aligned with reports


def choices_checksum(choices: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(choices, dtype=np.int64).tobytes()).hexdigest()


def prepare_dataset(config: ExperimentConfig) -> ChoiceDataset:
    """Generate the run's population and its once-and-for-all choices."""
    xy = generate_csr_xy(config.n, config.area, population_stream(config.seed))
    return simulate_choices_xy(
        xy,
        config.resolved_facility,
        config.generating_params,
        choices_stream(config.seed),
    )


def run_baseline(config: ExperimentConfig, ds: ChoiceDataset | None = None) -> LogitFit:
    """Fit on the unmasked coordinates; its 95% CI is the comparison baseline.

    For the centroid experiment the observed (not-distorted) data are the
    centroid-assigned coordinates, so the baseline is fit on those.
    """
    if ds is None:
        ds = prepare_dataset(config)
        if config.experiment == "centroid":
            ds = assign_to_centroid(ds, build_municipality_grid(config.area, config.grid_k))
    return fit_logit(ds)


# ----------------------------------------------------------------- workers

_WORKER: dict = {}


def _init_worker(payload: dict) -> None:
    _WORKER.update(payload)


def _row_chunks(reps: range, n: int) -> list[range]:
    """``reps`` cut into runs of at most max(1, _ROW_ELEMENTS // n), one
    ``fit_rows`` call each."""
    step = max(1, _ROW_ELEMENTS // n)
    return [reps[i : i + step] for i in range(0, len(reps), step)]


def _fit_or_none(fits: RowFits) -> list[LogitFit | None]:
    """The one failure policy for replicated fits, row by row.

    A row with degenerate choices (all 0s or all 1s) or a singular
    information matrix has no estimate; such a replication counts as
    non-converged (None) instead of aborting the run.
    """
    return [None if fits.status[i] in (SEPARATED, SINGULAR) else fits.fit(i) for i in range(len(fits))]


def _masked_distances(xy: np.ndarray, spec: MaskSpec, bounds: np.ndarray | None, facility: Point, rng) -> np.ndarray:
    """One replication's distances: mask the coordinates, measure to the facility."""
    return facility_distances(mask_coordinates(xy, spec, bounds, rng), facility)


def _replicate_block(task: tuple[int, float, int, int], state: dict | None = None) -> list[ReplicationRecord]:
    """Run replications [rep_start, rep_stop) of one theta* cell, fitting
    them in row chunks."""
    theta_index, theta_star, rep_start, rep_stop = task
    st = state if state is not None else _WORKER
    xy = st["xy"]
    y = st["y"]
    if choices_checksum(y) != st["y_checksum"]:
        raise RuntimeError("choice vector changed after baseline; fixed-y contract violated")
    spec = st["base_spec"].with_theta_star(theta_star)
    bounds = st["bounds"]
    facility = st["facility"]
    ci_lo, ci_hi = st["baseline_ci"]
    z = st["z"]
    seed = st["seed"]

    records = []
    for reps in _row_chunks(range(rep_start, rep_stop), y.size):
        D = np.stack([_masked_distances(xy, spec, bounds, facility, derive_stream(seed, theta_index, rep)) for rep in reps])
        fits = _fit_or_none(fit_rows(D, y))
        del D  # the next chunk masks without this one's distances alive
        for rep, fit in zip(reps, fits):
            if fit is None:
                records.append(
                    ReplicationRecord(theta_star, rep, math.nan, math.nan, math.nan, False, 0, False, False)
                )
                continue
            beta = fit.params.beta
            se = fit.std_errors[1]
            records.append(
                ReplicationRecord(
                    theta_star=theta_star,
                    rep=rep,
                    alpha_hat=fit.params.alpha,
                    beta_hat=beta,
                    se_beta=se,
                    converged=fit.converged,
                    iterations=fit.iterations,
                    significant_beta=bool(fit.converged and se > 0.0 and abs(beta) / se >= z),
                    outside_true_ci=bool(fit.converged and not ci_lo <= beta <= ci_hi),
                )
            )
    return records


def _run_cells(
    cells: list[tuple[int, float]],
    base_xy: np.ndarray,
    y: np.ndarray,
    bounds: np.ndarray | None,
    base_spec: MaskSpec,
    facility: Point,
    baseline_ci: tuple[float, float],
    seed: int,
    replications: int,
    workers: int,
) -> list[ReplicationRecord]:
    """Execute all (cell, replication) tasks and return sorted records."""
    payload = {
        "xy": np.ascontiguousarray(base_xy, dtype=np.float64),
        "y": np.ascontiguousarray(y, dtype=np.float64),
        "y_checksum": choices_checksum(y),
        "base_spec": base_spec,
        "bounds": bounds,
        "facility": facility,
        "baseline_ci": baseline_ci,
        "z": z_quantile(_CI_LEVEL),
        "seed": seed,
    }
    tasks = [
        (theta_index, theta_star, start, min(start + _REP_BLOCK, replications))
        for theta_index, theta_star in cells
        for start in range(0, replications, _REP_BLOCK)
    ]

    records: list[ReplicationRecord] = []
    if workers == 1:
        for task in tasks:
            records.extend(_replicate_block(task, state=payload))
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(payload,)) as pool:
            for block in pool.map(_replicate_block, tasks, chunksize=1):
                records.extend(block)

    records.sort(key=lambda r: (r.theta_star, r.rep))
    for theta_index, theta_star in cells:
        cell = [r for r in records if r.theta_star == theta_star]
        rate = sum(r.converged for r in cell) / len(cell)
        if rate < _MIN_CELL_CONVERGENCE:
            raise BatchConvergenceError(theta_star, rate)
    return records


# -------------------------------------------------------------- experiments

def summarize_replications(records: list[ReplicationRecord], baseline: LogitFit | None = None) -> CurveRow:
    """Aggregate one theta* cell into a curve row.

    Moments and percentages use converged records only; the convergence rate
    is over all records. With ``baseline`` given, each converged record's
    outside_true_ci flag is cross-checked against the baseline CI.
    """
    if not records:
        raise EmptyCellError("no records")
    thetas = {r.theta_star for r in records}
    if len(thetas) != 1:
        raise ValueError(f"records span multiple theta* cells: {sorted(thetas)}")
    ok = [r for r in records if r.converged]
    if not ok:
        raise EmptyCellError(f"no converged records at theta*={records[0].theta_star:g}")
    if baseline is not None:
        lo, hi = wald_ci(baseline, _CI_LEVEL)[1]
        for r in ok:
            if r.outside_true_ci != (not lo <= r.beta_hat <= hi):
                raise ValueError(f"record (theta*={r.theta_star:g}, rep={r.rep}) inconsistent with baseline CI")
    betas = np.array([r.beta_hat for r in ok])
    abs_betas = np.abs(betas)
    # Moments about the first estimate: a cell of identical estimates (the
    # theta* = 0 cell) gets exactly that estimate as its mean and zero spread,
    # whatever its bits; a plain mean of k equal values can round.
    return CurveRow(
        theta_star=records[0].theta_star,
        mean_abs_beta=float(abs_betas[0] + (abs_betas - abs_betas[0]).mean()),
        sd_beta=float(np.std(betas - betas[0], ddof=1)) if betas.size > 1 else 0.0,
        pct_outside_true_ci=100.0 * sum(r.outside_true_ci for r in ok) / len(ok),
        pct_nonsignificant=100.0 * sum(not r.significant_beta for r in ok) / len(ok),
        convergence_rate=len(ok) / len(records),
    )


def build_curve(records: list[ReplicationRecord], baseline: LogitFit | None = None) -> AttenuationCurve:
    """Group records by theta* and summarize each cell."""
    cells: dict[float, list[ReplicationRecord]] = {}
    for r in records:
        cells.setdefault(r.theta_star, []).append(r)
    rows = [summarize_replications(cells[t], baseline) for t in sorted(cells)]
    return AttenuationCurve(rows=tuple(rows))


def run_attenuation_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Mask-and-refit over the theta* grid (csr-population / fixed-area-grid).

    Per replication: mask the true coordinates under the config's mask
    law at theta* = reference_radius x fraction, recompute distances to the
    facility, refit, record. A cell with under 50% convergence aborts the
    batch; individual failures are recorded and carried.
    """
    if config.experiment == "centroid":
        raise ValueError("use run_centroid_experiment for the centroid analog")
    ds = prepare_dataset(config)
    baseline = run_baseline(config, ds)
    bounds = np.asarray(config.area.bounds, dtype=np.float64) if config.mask.boundary == "redraw" else None
    records = _run_cells(
        cells=list(enumerate(config.theta_values())),
        base_xy=ds.points,
        y=ds.choices,
        bounds=bounds,
        base_spec=config.mask,
        facility=config.resolved_facility,
        baseline_ci=wald_ci(baseline, _CI_LEVEL)[1],
        seed=config.seed,
        replications=config.replications,
        workers=config.workers,
    )
    return ExperimentResult(
        config=config,
        baseline=baseline,
        records=records,
        curve=build_curve(records, baseline),
        dataset=ds,
    )


def run_centroid_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Centroid-assignment analog: re-mask every individual within its cell.

    The observed data place each individual at its cell centroid; the
    baseline is fit on those coordinates. Each replication re-masks all
    individuals uniformly with theta* = the cell equivalent radius,
    redrawing until the displaced point stays inside its own cell, then
    refits. The curve row's pct_outside_true_ci complement is the share of
    replications statistically indistinguishable from the baseline.
    """
    if config.experiment != "centroid":
        raise ValueError(f"config.experiment is {config.experiment!r}, expected 'centroid'")
    grid = build_municipality_grid(config.area, config.grid_k)
    ds = prepare_dataset(config)
    observed = assign_to_centroid(ds, grid)
    baseline = fit_logit(observed)

    cell_idx = grid.cell_indices(observed.active_points)
    bounds = grid.cell_bounds()[cell_idx]
    cell_theta = grid.cells[0].equivalent_radius
    base_spec = dataclasses.replace(config.mask, boundary="redraw")
    records = _run_cells(
        cells=[(0, cell_theta)],
        base_xy=observed.active_points,
        y=observed.choices,
        bounds=bounds,
        base_spec=base_spec,
        facility=config.resolved_facility,
        baseline_ci=wald_ci(baseline, _CI_LEVEL)[1],
        seed=config.seed,
        replications=config.replications,
        workers=config.workers,
    )
    return ExperimentResult(
        config=config,
        baseline=baseline,
        records=records,
        curve=build_curve(records, baseline),
        dataset=observed,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch on the experiment kind."""
    if config.experiment == "centroid":
        return run_centroid_experiment(config)
    return run_attenuation_experiment(config)


def run_efficiency_experiment(
    config: ExperimentConfig,
    baseline: LogitFit | None = None,
    ds: ChoiceDataset | None = None,
    replications: int | None = None,
    variant: str = DEFAULT_MOMENT_VARIANT,
) -> EfficiencyRun:
    """Analytic efficiency loss over the theta* grid plus an empirical
    variance-ratio companion.

    The analytic ratio uses the fixed dataset and the baseline (fitted)
    parameters. The empirical side regenerates choices per replication —
    from the true coordinates for the numerator fits, and from the true
    coordinates but refit on freshly masked ones for the denominator — so
    both sides carry sampling variability (unlike the fixed-y attenuation
    records, which would give the true coordinates zero variance). A
    replication without an estimate counts as non-converged, as in the
    attenuation harness; fewer than 30 converged fits on either side of a
    ratio raises InsufficientDataError.
    """
    if ds is None:
        ds = prepare_dataset(config)
    if baseline is None:
        baseline = fit_logit(ds)
    # derived default tracks the attenuation run but stays within what the
    # variance ratio can tolerate; an explicit replications= is taken as-is
    reps = replications if replications is not None else min(300, max(30, config.replications))
    if reps < 30:
        raise ValueError(f"need >= 30 efficiency replications, got {reps}")
    params = baseline.params
    d_true = ds.true_distances
    prob = expit(config.generating_params.alpha + config.generating_params.beta * d_true)
    bounds = np.asarray(config.area.bounds, dtype=np.float64) if config.mask.boundary == "redraw" else None

    def regenerate_choices(gen: np.random.Generator) -> np.ndarray:
        return (gen.uniform(0.0, 1.0, config.n) < prob).astype(np.float64)

    true_fits = []
    for chunk in _row_chunks(range(reps), config.n):
        Y = np.stack([regenerate_choices(efficiency_true_stream(config.seed, rep).generator()) for rep in chunk])
        true_fits += _fit_or_none(fit_rows(d_true, Y))
    true_fits = [f for f in true_fits if f is not None]
    true_betas = np.array([f.params.beta for f in true_fits if f.converged])

    reports = []
    masked_betas = []
    for theta_index, theta_star in enumerate(config.theta_values()):
        spec = config.mask.with_theta_star(theta_star)
        masked_fits = []
        for chunk in _row_chunks(range(reps), config.n):
            D, Y = [], []
            for rep in chunk:
                # one stream per replication: its choices first, then its mask
                gen = efficiency_masked_stream(config.seed, theta_index, rep).generator()
                Y.append(regenerate_choices(gen))
                D.append(_masked_distances(ds.points, spec, bounds, ds.facility, gen))
            masked_fits += _fit_or_none(fit_rows(np.stack(D), np.stack(Y)))
        masked_fits = [f for f in masked_fits if f is not None]
        el_emp = empirical_variance_ratio(true_fits, masked_fits)
        reports.append(efficiency_report(ds, params, theta_star, variant=variant, el_empirical=el_emp))
        masked_betas.append(np.array([f.params.beta for f in masked_fits if f.converged]))

    return EfficiencyRun(reports=reports, true_betas=true_betas, masked_betas=masked_betas)
