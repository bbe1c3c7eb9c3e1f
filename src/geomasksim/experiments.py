"""Monte Carlo experiment harness: mask coordinates, refit, aggregate.

Three experiment kinds share one entry point, ``run_experiment``:

* ``csr-population`` — CSR individuals on the unit square, one facility at
  the center, binary choices from the generating logit; coordinates are
  re-masked per replication over a theta* grid (fractions of a reference
  radius, default 0.707) and the model is refit each time.
* ``fixed-area-grid`` — same harness with the reference radius tied to the
  study region's equivalent circle radius, the analog of masking within a
  fixed administrative-unit scale.
* ``centroid`` — individuals are first collapsed to the centroids of a
  k x k cell grid (unintentional locational error); each replication then
  re-masks every individual under the ``[mask] mechanism``, redrawn until it
  lands inside its own cell, with theta* equal to the cell's equivalent
  radius. It has no efficiency run.

Each kind is set up here alone: its default radius (``_DEFAULT_RADIUS``), a
centroid config's one cell (``ExperimentConfig``), its data, bounds and stages
(``run_experiment``) and its efficiency run (``run_efficiency_experiment``).
A run's data is three arrays (``prepare_dataset``): the (n, 2) coordinates,
their (n,) distances to the facility and the (n,) bool choices.

Every replicated fit, the efficiency stage's included, goes through one
kernel: ``_run_cells`` cuts a run's stages into one list of (cell,
replication range) tasks and runs it in-process or, on Linux, in one pool
of forked workers (``_fork_pool``: no ``concurrent.futures``, no
``multiprocessing``) that read task indices from one shared pipe and answer
down a result pipe each, each block stored at its task's index;
``_replicate_block`` handles a task in row chunks. Per chunk it positions
one pooled Philox generator per replication at the start of that
replication's stream, draws each row's regenerated choices first
(efficiency cells only: ``population.draw_choices`` from the choice
model's probabilities at the true distances), masks every row in one
``mask_rows`` call (whose redraw loop serves the whole chunk while each row
draws from its own generator; ``_run_cells`` checks once per run that every
point starts inside its bounds), takes the (rows, n) masked distances from
the block's contiguous x and y planes and fits the chunk with one
``fit_rows`` call. One failure policy and the 50% cell-convergence rule
apply to every cell. The attenuation stage keeps the (cells, replications)
columns, adds the two test flags and aggregates each cell from them; the
efficiency stage reads the converged estimates of its cells.

Fixed-y design: the attenuation run generates choices exactly once, before
the baseline fit, and never regenerates them; every fixed task, once its
last fit is done, compares them exactly with a private copy taken before
the first, so that all cross-replication variation is attributable to
locational error alone.

Determinism: replication (theta_index, rep) owns a private stream derived
from the run seed, so results are independent of worker count and schedule;
the columns hold the cells in ascending theta* and each cell's replications
in order, the records CSV's row order. Replications are masked and fitted
in row chunks; neither a row's draws nor its fit depend on the other rows,
so the outputs do not depend on the chunk size or the worker task size
either.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import select
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .efficiency import MIN_CONVERGED_FITS, EfficiencyReport, efficiency_report, empirical_variance_ratio
from .geometry import UNIT_SQUARE, Point, equivalent_circle_radius, facility_distances, planar_norm
from .logit import CONVERGED, Z_95, InvalidFitError, LogitFit, LogitParams, fit_distance_choice, fit_rows, wald_ci
from .masking import MaskSpec, checked_bounds, mask_rows
from .population import (
    DEFAULT_GENERATING_PARAMS,
    GridCells,
    MunicipalityGrid,
    assign_to_centroid,
    build_municipality_grid,
    choice_probabilities,
    draw_choices,
    generate_csr_xy,
    simulate_choices_xy,
)
from .rng import (
    MAX_INDEX,
    GeneratorPool,
    choices_stream,
    derive_stream,
    efficiency_masked_stream,
    efficiency_true_stream,
    population_stream,
)

DEFAULT_THETA_GRID = tuple(round(i / 10, 1) for i in range(1, 11))
# Each kind's default reference radius at grid size k: the unit square's half-diagonal as
# printed, its equivalent circle radius (a fixed administrative unit's scale), a grid cell's.
CSR_REFERENCE_RADIUS = 0.707
FIXED_AREA_REFERENCE_RADIUS = equivalent_circle_radius(1.0)
_DEFAULT_RADIUS = {
    "centroid": lambda k: MunicipalityGrid(k).cell_radius,
    "fixed-area-grid": lambda k: FIXED_AREA_REFERENCE_RADIUS,
    "csr-population": lambda k: CSR_REFERENCE_RADIUS,
}
EXPERIMENTS = tuple(_DEFAULT_RADIUS)

DEFAULT_REPLICATIONS = 1000
FAST_REPLICATIONS = 200
DEFAULT_GRID_K = 10

_REP_BLOCK = 64  # replications per worker task
# Points per fit_rows call: a chunk of max(1, _ROW_ELEMENTS // n) rows keeps
# the kernel's (rows, n) work arrays in cache. From n = 16,384 on a chunk is
# one row, and the kernel itself caps its work arrays at one column block
# (logit._BLOCK points), so fit scratch memory does not grow with n.
_ROW_ELEMENTS = 16384
_MIN_CELL_CONVERGENCE = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that decides a run's outputs; the worker count, which
    moves no output bit, is an argument of the run instead. Its checks, with
    those of the fields' own dataclasses, are the only rules a config file's
    experiment keys must meet.
    A ``reference_radius`` of None becomes the kind's default at ``grid_k``.
    Its given values checked, a config is set to the run it makes, so that
    two configs are equal exactly when their outputs are: a centroid config
    masks with ``theta_grid`` (1.0,) at the grid's cell radius under the
    redraw policy; the other kinds, which build no grid, take ``grid_k``
    ``DEFAULT_GRID_K``; ``mask.max_attempts`` takes ``MaskSpec``'s default
    unless the boundary is redraw, and ``mask.theta_star`` is 0.0, since
    each cell sets its own."""

    experiment: str
    n: int = 1000
    replications: int = DEFAULT_REPLICATIONS
    theta_grid: tuple[float, ...] = DEFAULT_THETA_GRID
    reference_radius: float | None = None
    generating_params: LogitParams = DEFAULT_GENERATING_PARAMS
    mask: MaskSpec = MaskSpec()
    seed: int = 0
    grid_k: int = DEFAULT_GRID_K
    facility: Point = Point(0.0, 0.0)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.replications <= MAX_INDEX:
            raise ValueError(f"replications must lie in [1, {MAX_INDEX}], got {self.replications}")
        if self.grid_k < 1:
            raise ValueError(f"grid_k must be >= 1, got {self.grid_k}")
        if not self.theta_grid:
            raise ValueError("theta_grid must be nonempty")
        if any(not 0.0 <= f <= 1.0 for f in self.theta_grid):
            raise ValueError(f"theta_grid fractions must lie in [0, 1], got {self.theta_grid}")
        if list(self.theta_grid) != sorted(set(self.theta_grid)):
            raise ValueError("theta_grid must be strictly ascending")
        if self.reference_radius is None:
            object.__setattr__(self, "reference_radius", _DEFAULT_RADIUS[self.experiment](self.grid_k))
        if not 0.0 < self.reference_radius < math.inf:
            raise ValueError(f"reference_radius must be positive and finite, got {self.reference_radius}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not UNIT_SQUARE.contains(self.facility):
            raise ValueError(f"facility ({self.facility.x}, {self.facility.y}) lies outside the study area")
        if self.experiment == "centroid":
            object.__setattr__(self, "theta_grid", (1.0,))
            object.__setattr__(self, "reference_radius", _DEFAULT_RADIUS["centroid"](self.grid_k))
            object.__setattr__(self, "mask", dataclasses.replace(self.mask, boundary="redraw"))
        else:
            object.__setattr__(self, "grid_k", DEFAULT_GRID_K)
        max_attempts = self.mask.max_attempts if self.mask.boundary == "redraw" else MaskSpec().max_attempts
        object.__setattr__(self, "mask", dataclasses.replace(self.mask, theta_star=0.0, max_attempts=max_attempts))

    def theta_values(self) -> tuple[float, ...]:
        """Absolute masking radii: reference_radius x grid fractions."""
        return tuple(self.reference_radius * f for f in self.theta_grid)


@dataclass(frozen=True)
class ReplicationRecord:
    """One refit after one masking replication: a row of the records CSV."""

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
    """One theta* cell, a row of the curve CSV: aggregates over its converged
    replications (the convergence rate is over all of them), then its
    EfficiencyReport's efficiency loss, None where the run has none: an
    el_analytic in (0, 1], as EfficiencyReport's, and a finite, positive
    el_empirical."""

    theta_star: float
    mean_abs_beta: float
    sd_beta: float
    pct_outside_true_ci: float
    pct_nonsignificant: float
    convergence_rate: float
    el_analytic: float | None = None
    el_empirical: float | None = None

    def __post_init__(self):
        for name in ("pct_outside_true_ci", "pct_nonsignificant"):
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"{name} must lie in [0, 100], got {v}")
        if not 0.0 <= self.convergence_rate <= 1.0:
            raise ValueError(f"convergence_rate must lie in [0, 1], got {self.convergence_rate}")
        if self.el_analytic is not None and not 0.0 < self.el_analytic <= 1.0:
            raise ValueError(f"el_analytic must lie in (0, 1], got {self.el_analytic}")
        if self.el_empirical is not None and not 0.0 < self.el_empirical < math.inf:
            raise ValueError(f"el_empirical must be finite and positive, got {self.el_empirical}")


@dataclass(frozen=True)
class AttenuationCurve:
    """Per-theta* aggregate rows, sorted by ascending theta*."""

    rows: tuple[CurveRow, ...]

    def __post_init__(self):
        thetas = [r.theta_star for r in self.rows]
        if thetas != sorted(thetas):
            raise ValueError("curve rows must be sorted by theta_star")


@dataclass
class ExperimentResult:
    """Everything one run produces, pre-serialization."""

    baseline: LogitFit
    theta_stars: tuple[float, ...]  # one per cell, ascending
    columns: dict[str, np.ndarray]  # RECORD_COLUMNS, each (cells, replications)
    curve: AttenuationCurve
    efficiency: EfficiencyRun | None  # None for the centroid kind


@dataclass
class EfficiencyRun:
    """Analytic reports plus the replicated estimates behind el_empirical."""

    reports: list[EfficiencyReport]
    true_betas: np.ndarray
    masked_betas: list[np.ndarray]  # aligned with reports


def prepare_dataset(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The run's population ``xy`` (n, 2), its distances ``d`` (n,) to the
    facility and its once-and-for-all choices ``y``, (n,) bool, one byte a
    point, which every fit of the run reads as they are."""
    xy = generate_csr_xy(config.n, population_stream(config.seed))
    d = facility_distances(xy, config.facility)
    return xy, d, simulate_choices_xy(d, config.generating_params, choices_stream(config.seed))


# ----------------------------------------------------------------- workers

# The kernel masks each chunk through this name, where perfbench/tracer.py
# times the masking layer. It is the unchecked ``mask_rows``: ``_run_cells``
# checks the start points once per run.
mask_coordinates = mask_rows
# perfbench/tracer.py times the fit layer under this name too; ``fit_baseline`` calls ``fit_distance_choice``.
fit_logit = fit_distance_choice

# Per-replication columns of a run: the fields of a record after its
# (theta_star, rep). The block kernel fills all but the two flags, which the
# attenuation run adds.
RECORD_COLUMNS = tuple(f.name for f in dataclasses.fields(ReplicationRecord))[2:]
_COLUMNS = RECORD_COLUMNS[:-2]


def _row_chunks(reps: range, n: int) -> list[range]:
    """``reps`` cut into runs of at most max(1, _ROW_ELEMENTS // n), one
    ``fit_rows`` call each."""
    step = max(1, _ROW_ELEMENTS // n)
    return [reps[i : i + step] for i in range(0, len(reps), step)]


def _replicate_block(task: tuple[int, float | None, int, int, bool], state: dict) -> dict:
    """Fit replications [rep_start, rep_stop) of one cell, in row chunks.

    A cell is (theta_index, theta_star); theta_star None leaves the points
    unmasked (the efficiency run's true-coordinate cell). Each replication
    draws from its own stream: first its regenerated choices when the task
    is not ``fixed`` (efficiency), then its mask. Per chunk of rows, one
    ``draw_choices``, one ``mask_rows`` and one ``fit_rows`` call serve
    every row, each row on its own pooled generator.
    A fixed task ends by comparing the choices it fitted exactly with the
    run's private copy (RuntimeError when they differ), so a write made
    during any fixed task is caught, a process's last one included.
    Returns the ``_COLUMNS`` of the block's rows as ``fit_rows`` reports
    them, so that a row without an estimate (separated choices or a
    singular information matrix) is a NaN, unconverged row with 0
    iterations instead of aborting the run.
    """
    theta_index, theta_star, rep_start, rep_stop, fixed = task
    xy, facility, bounds, seed, y, prob = (state[k] for k in ("xy", "facility", "bounds", "seed", "y", "prob"))
    spec = None if theta_star is None else dataclasses.replace(state["base_spec"], theta_star=theta_star)
    d = facility_distances(xy, facility) if spec is None else None

    chunks = []
    for reps in _row_chunks(range(rep_start, rep_stop), xy.shape[0]):
        if fixed:
            streams = [derive_stream(seed, theta_index, rep) for rep in reps]
        elif spec is None:
            streams = [efficiency_true_stream(seed, rep) for rep in reps]
        else:
            streams = [efficiency_masked_stream(seed, theta_index, rep) for rep in reps]
        gens = state["generators"].positioned(streams)
        D, Y = d, (y if fixed else draw_choices(prob, gens))
        if spec is not None:
            masked = mask_coordinates(xy, spec, bounds, gens)
            masked[:, 0] -= facility.x
            masked[:, 1] -= facility.y
            D = planar_norm(masked[:, 0], masked[:, 1])  # facility_distances' expression, over (rows, n) planes
            del masked
        fits = fit_rows(D, Y)
        del D, Y  # the next chunk draws without this one's rows alive
        chunks.append((fits.alpha, fits.beta, fits.std_errors[:, 1], fits.status == CONVERGED, fits.iterations))
    if fixed and not np.array_equal(y, state["y_copy"]):
        raise RuntimeError("choice vector changed after baseline; fixed-y contract violated")
    return {name: np.concatenate(column) for name, column in zip(_COLUMNS, zip(*chunks))}


def _serve(tasks: list, payload: dict, task_fd: int, result_fd: int, parent_fds: list[int]) -> None:
    """A forked worker's whole life: run each task index read from the task
    pipe that all workers share and write (index, block, None) or (index,
    None, exception) to its own result pipe as an 8-byte length and a
    pickle, until the parent closes the task pipe; leave by ``os._exit``,
    never into the parent's code."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for fd in parent_fds:
            os.close(fd)
        while data := os.read(task_fd, 4):  # each index is one 4-byte write, which a pipe keeps whole
            index = int.from_bytes(data, "little")
            try:
                message = pickle.dumps((index, _replicate_block(tasks[index], payload), None))
            except Exception as exc:
                message = pickle.dumps((index, None, exc))
            view = memoryview(len(message).to_bytes(8, "little") + message)
            while view:
                view = view[os.write(result_fd, view):]
        code = 0
    finally:
        os._exit(code)


def _worker_lost(pid: int) -> RuntimeError:
    """Reap a worker that died and say how it ended."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit code {code}"
    return RuntimeError(f"a worker process died before the run finished (pid {pid}, {how})")


def _fork_pool(tasks: list, payload: dict, processes: int) -> list[dict]:
    """``_replicate_block`` of every task, in task order, from ``processes``
    forked workers that inherit ``tasks`` and ``payload``.

    The workers read task indices from one shared pipe, which holds
    2 * ``processes`` tasks in flight, and each answers down a result pipe
    of its own. The first failure stops the sends; once the tasks in flight
    are back, the failure with the lowest task index is raised, the one an
    in-process run raises; a builtin exception crosses the result pipe's
    pickle as it is. A result pipe that ends while the task pipe is open
    raises a RuntimeError naming the worker. On any exception,
    KeyboardInterrupt included, the workers are killed. On every exit every pipe is closed
    and then every worker reaped, with every catchable signal blocked, so a
    signal handler's exception arrives after the last reap.
    """
    blocks, failures, sent, in_flight = [None] * len(tasks), {}, 0, 0
    pids, unread = {}, {}  # by the read end of each worker's result pipe: its pid, its result bytes not yet unpickled
    task_r, task_w = os.pipe()  # the parent keeps the read end open, so a send never meets a closed pipe
    try:
        # the workers start with SIGINT blocked, so each ignores it before it can arrive
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(processes):
                result_r, result_w = os.pipe()
                unread[result_r] = bytearray()
                try:
                    if (pid := os.fork()) == 0:
                        _serve(tasks, payload, task_r, result_w, [task_w, *unread])
                    pids[result_r] = pid
                finally:
                    os.close(result_w)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        while True:
            while in_flight < 2 * processes and sent < len(tasks) and not failures:
                os.write(task_w, sent.to_bytes(4, "little"))
                in_flight, sent = in_flight + 1, sent + 1
            if not in_flight:
                break
            for fd in select.select(list(unread), [], [])[0]:
                if not (data := os.read(fd, 1 << 16)):
                    raise _worker_lost(pids.pop(fd))
                buffer = unread[fd]
                buffer += data
                while len(buffer) >= 8 and len(buffer) >= 8 + (size := int.from_bytes(buffer[:8], "little")):
                    index, block, exc = pickle.loads(buffer[8 : 8 + size])
                    del buffer[: 8 + size]
                    in_flight -= 1
                    if exc is None:
                        blocks[index] = block
                    else:
                        failures[index] = exc
        if failures:
            raise failures[min(failures)]
        return blocks
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())  # no handler may skip a reap
        try:
            for fd in (task_r, task_w, *unread):
                os.close(fd)  # a worker still waiting for a task reads end of file and leaves
            for pid in pids.values():
                os.waitpid(pid, 0)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _run_cells(
    stages: list[tuple[list[tuple[int, float | None]], int, bool]],
    xy: np.ndarray,
    facility: Point,
    bounds: tuple[float, float, float, float] | GridCells,
    base_spec: MaskSpec,
    seed: int,
    workers: int,
    *,
    y: np.ndarray | None = None,
    prob: np.ndarray | None = None,
) -> list[dict[str, np.ndarray]]:
    """Fit every (cell, replication) of a run's stages and return, per stage,
    the ``_COLUMNS``, each shaped (cells, replications).

    A stage is (cells, replications, fixed): a ``fixed`` one (attenuation)
    refits the choices ``y``, the others (efficiency) redraw them per
    replication from the generating probabilities ``prob``. ``xy`` is used
    as it is when it already is C-contiguous float64, and ``y``, of any
    dtype ``fit_rows`` takes, when it is C-contiguous; otherwise each is
    copied once. Under the redraw policy every point must
    start inside ``bounds`` (one (4,) rectangle, or each point's grid cell
    as ``GridCells``). That is checked once here, before any replication,
    by ``checked_bounds``, the check ``masking.mask_coordinates`` makes on
    every call (ValueError). The tasks of all stages, in stage order, run
    in-process or, on Linux, in one ``_fork_pool`` of at most ``workers``
    processes, no more than there are tasks or CPUs this process may use;
    elsewhere they run in-process, with the same bits. The workers share
    one task pipe and ignore SIGINT: on KeyboardInterrupt the parent kills
    them, closes every pipe, reaps them all with every catchable signal
    blocked and re-raises; a dead worker raises a RuntimeError. A cell
    converging on under half of its replications raises a RuntimeError
    naming its stage, cell and rate, the stages checked in order.
    """
    xy = np.ascontiguousarray(xy, dtype=np.float64)
    payload = {
        "xy": xy,
        "facility": facility,
        "bounds": checked_bounds(xy, base_spec, bounds),
        "seed": seed,
        "y": None if y is None else np.ascontiguousarray(y),
        "y_copy": None if y is None else np.array(y),  # the fixed-y check's private copy
        "prob": prob,
        "base_spec": base_spec,
        "generators": GeneratorPool(),
    }
    tasks = [
        (theta_index, theta_star, start, min(start + _REP_BLOCK, replications), fixed)
        for cells, replications, fixed in stages
        for theta_index, theta_star in cells
        for start in range(0, replications, _REP_BLOCK)
    ]
    processes = min(workers, len(tasks), len(os.sched_getaffinity(0))) if sys.platform.startswith("linux") else 1
    if processes == 1:
        blocks = [_replicate_block(task, payload) for task in tasks]
    else:
        blocks = _fork_pool(tasks, payload, processes)

    results = []
    for cells, replications, fixed in stages:
        k = len(cells) * len(range(0, replications, _REP_BLOCK))  # the stage's tasks
        own, blocks = blocks[:k], blocks[k:]
        fits = {name: np.concatenate([b[name] for b in own]).reshape(len(cells), replications) for name in _COLUMNS}
        for (_, theta_star), converged in zip(cells, fits["converged"]):
            rate = np.count_nonzero(converged) / replications
            if rate < _MIN_CELL_CONVERGENCE:
                stage = "attenuation stage (fixed choices)" if fixed else "efficiency stage (regenerated choices)"
                cell = "true-coordinate cell" if theta_star is None else f"cell theta*={theta_star:g}"
                raise RuntimeError(f"{stage}: {cell} converged on {rate:.1%} of replications")
        results.append(fits)
    return results


# -------------------------------------------------------------- experiments

def build_curve(theta_stars: tuple[float, ...], columns: dict[str, np.ndarray], reports=None) -> AttenuationCurve:
    """One curve row per theta* cell of the (cells, replications) columns,
    with the efficiency loss of the cell's EfficiencyReport in ``reports``.

    Moments and percentages use converged replications only; the
    convergence rate is over all of them.
    """
    beta, converged = columns["beta_hat"], columns["converged"]
    rows = []
    for c, (theta_star, report) in enumerate(zip(theta_stars, reports or [None] * len(theta_stars))):
        ok = converged[c]
        k = np.count_nonzero(ok)
        betas = beta[c][ok]
        abs_betas = np.abs(betas)
        # Moments about the first estimate: a cell of identical estimates (the
        # theta* = 0 cell) gets exactly that estimate as its mean and zero
        # spread, whatever its bits; a plain mean of k equal values can round.
        rows.append(CurveRow(
            theta_star=theta_star,
            mean_abs_beta=float(abs_betas[0] + (abs_betas - abs_betas[0]).mean()),
            sd_beta=float(np.std(betas - betas[0], ddof=1)) if k > 1 else 0.0,
            pct_outside_true_ci=100.0 * np.count_nonzero(columns["outside_true_ci"][c][ok]) / k,
            pct_nonsignificant=100.0 * np.count_nonzero(~columns["significant_beta"][c][ok]) / k,
            convergence_rate=k / ok.size,
            el_analytic=None if report is None else report.el_analytic,
            el_empirical=None if report is None else report.el_empirical,
        ))
    return AttenuationCurve(rows=tuple(rows))


def _add_flags(fits: dict[str, np.ndarray], ci: tuple[float, float]) -> dict[str, np.ndarray]:
    """``fits`` with the two test flags of every replication added: beta
    significant (Wald, |beta|/se >= z) and beta outside the baseline CI
    ``ci`` (inclusive bounds). A replication that did not converge, failed
    rows (NaN) included, is false in both."""
    beta, se, converged = fits["beta_hat"], fits["se_beta"], fits["converged"]
    tested = converged & (se > 0.0)
    z_stat = np.divide(np.abs(beta), se, out=np.zeros_like(beta), where=tested)
    lo, hi = ci
    return fits | {
        "significant_beta": tested & (z_stat >= Z_95),
        "outside_true_ci": converged & ~((lo <= beta) & (beta <= hi)),
    }


def _data_name(config: ExperimentConfig) -> str:
    """The run's data as a failure message names it: kind, n and seed."""
    return f"the generated data ({config.experiment}, n={config.n}, seed={config.seed})"


def fit_baseline(config: ExperimentConfig, d: np.ndarray, y: np.ndarray) -> LogitFit:
    """The baseline fit on the run's observed distances ``d`` and choices
    ``y``; one without an estimate or that does not converge raises
    InvalidFitError naming the run's kind, n and seed."""
    data = _data_name(config)
    try:
        baseline = fit_distance_choice(d, y)
    except InvalidFitError as exc:  # e.g. every centroid equidistant from the facility
        raise InvalidFitError(f"baseline fit on {data} has no estimate: {exc}") from exc
    if not baseline.converged:
        raise InvalidFitError(
            f"baseline fit did not converge on {data}: {baseline.iterations} iterations, "
            f"gradient norm {baseline.gradient_norm:.3g}"
        )
    return baseline


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Mask-and-refit over the run's theta* cells with fixed choices, and
    the efficiency run of every kind but centroid.

    Per replication: mask the observed coordinates under ``config.mask`` at
    the cell's theta* (``config.theta_values()``), recompute distances to
    the facility, refit, flag. Redraws stay inside the study area, or, for
    the centroid analog, which observes each individual at its cell
    centroid, inside the individual's own cell; there the curve row's
    pct_outside_true_ci complement is the share of replications
    statistically indistinguishable from the baseline. The baseline is
    ``fit_baseline`` on the observed distances. A cell with under 50%
    convergence aborts the batch; individual failures are kept as
    non-converged rows. The efficiency cells, at min(300,
    max(MIN_CONVERGED_FITS, replications)) replications, follow in the same
    ``_run_cells`` call, in at most ``workers`` processes, and their reports
    fill the curve's efficiency columns; the outputs are the same bits for
    any count."""
    xy, d, y = prepare_dataset(config)
    bounds = UNIT_SQUARE.bounds
    if config.experiment == "centroid":
        del d  # the true distances; the centroids' replace them
        xy, bounds = assign_to_centroid(xy, build_municipality_grid(config.grid_k))
        d = facility_distances(xy, config.facility)
        efficiency, prob = [], None
    else:
        *efficiency, prob = _efficiency_stage(config, d, min(300, max(MIN_CONVERGED_FITS, config.replications)))
    baseline = fit_baseline(config, d, y)  # fail before any replication
    if not efficiency:
        d = None  # the centroid kind writes no efficiency report, the one later reader of d
    theta_stars = config.theta_values()
    fits, *efficiency_fits = _run_cells(
        [(list(enumerate(theta_stars)), config.replications, True), *efficiency], xy, config.facility,
        bounds, config.mask, config.seed, workers, y=y, prob=prob,
    )
    columns = _add_flags(fits, wald_ci(baseline)[1])
    efficiency_run = _efficiency_run(config, d, baseline, *efficiency_fits) if efficiency_fits else None
    return ExperimentResult(
        baseline=baseline,
        theta_stars=theta_stars,
        columns=columns,
        curve=build_curve(theta_stars, columns, efficiency_run.reports if efficiency_run else None),
        efficiency=efficiency_run,
    )


def _efficiency_stage(config: ExperimentConfig, d: np.ndarray, replications: int) -> tuple:
    """The efficiency stage at ``replications`` and the generating
    probabilities at the true distances ``d`` its choices are redrawn from."""
    stage = ([(0, None), *enumerate(config.theta_values())], replications, False)
    return stage, choice_probabilities(d, config.generating_params)


def _efficiency_run(config: ExperimentConfig, d: np.ndarray, baseline: LogitFit, fits: dict | None) -> EfficiencyRun:
    """The efficiency reports, with el_empirical from the stage's columns
    ``fits``; without them (no replications) analytic alone. A ratio that
    ``empirical_variance_ratio`` cannot take raises its RuntimeError again
    naming the run and the theta* cell."""
    if fits is None:
        betas = [np.empty(0)] * (len(config.theta_grid) + 1)
    else:
        betas = [beta[converged] for beta, converged in zip(fits["beta_hat"], fits["converged"])]
    true_betas, masked_betas = betas[0], betas[1:]
    reports = []
    for theta_star, masked in zip(config.theta_values(), masked_betas):
        try:
            ratio = None if fits is None else empirical_variance_ratio(true_betas, masked)
        except RuntimeError as exc:
            raise RuntimeError(f"efficiency stage on {_data_name(config)}, cell theta*={theta_star:g}: {exc}") from exc
        spec = dataclasses.replace(config.mask, theta_star=theta_star)
        reports.append(efficiency_report(d, baseline.params, spec, el_empirical=ratio))
    return EfficiencyRun(reports=reports, true_betas=true_betas, masked_betas=masked_betas)


def run_efficiency_experiment(config: ExperimentConfig, replications: int, workers: int = 1) -> EfficiencyRun:
    """Analytic efficiency loss over the theta* grid plus an empirical
    variance-ratio companion: the efficiency stage of ``run_experiment``
    alone, for ``geomasksim efficiency``. At 0 ``replications`` the reports
    are analytic alone (el_empirical None); any other count outside
    [MIN_CONVERGED_FITS, rng.MAX_INDEX] raises ValueError before any data is
    generated.

    The analytic ratio uses the true distances and the baseline (fitted)
    parameters from ``fit_baseline``. The empirical side regenerates
    choices per replication — from the true coordinates for the numerator
    fits, and from the true coordinates but refit on freshly masked ones
    for the denominator — so both sides carry sampling variability (unlike
    the fixed-y attenuation records, which would give the true coordinates
    zero variance). Both sides are cells of one ``_run_cells`` stage in at
    most ``workers`` processes, under the attenuation run's failure policy:
    a cell converging on under half of its replications, or fewer than
    MIN_CONVERGED_FITS converged fits on either side of a ratio, is a run
    that cannot finish and raises a RuntimeError naming the cell. Input the
    run cannot take raises a ValueError: a baseline fit without an estimate
    (InvalidFitError) and, before any data is generated, the centroid kind
    and a replication count out of range."""
    if config.experiment == "centroid":
        raise ValueError("efficiency does not run the centroid kind; simulate writes no efficiency table for it")
    if replications and not MIN_CONVERGED_FITS <= replications <= MAX_INDEX:
        allowed = f"[{MIN_CONVERGED_FITS}, {MAX_INDEX}]"
        raise ValueError(f"efficiency replications must be 0 or lie in {allowed}, got {replications}")
    xy, d, y = prepare_dataset(config)
    baseline = fit_baseline(config, d, y)
    if replications == 0:
        return _efficiency_run(config, d, baseline, None)
    stage, prob = _efficiency_stage(config, d, replications)
    (fits,) = _run_cells([stage], xy, config.facility, UNIT_SQUARE.bounds, config.mask, config.seed, workers, prob=prob)
    return _efficiency_run(config, d, baseline, fits)
