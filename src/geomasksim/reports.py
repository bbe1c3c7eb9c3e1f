"""CSV emission/ingestion and the run manifest.

All emissions are deterministic for a fixed (seed, config, version): floats
are printed with 17 significant digits (shortest exact round-trip for IEEE
doubles; a failed fit's estimates as ``nan``), booleans as
``true``/``false``, missing values as empty cells; rows are in ascending
theta* (records: then by rep); files end with a trailing newline and are
UTF-8. Every reader goes through ``_read_rows``: it rejects a file whose
header or whose field count on any row differs from its schema, and names
the line of a row whose values it cannot read.

Schemas:

    records:    theta_star,rep,alpha_hat,beta_hat,se_beta,converged,
                iterations,significant_beta,outside_true_ci
                (written from the run's (cells, replications) columns,
                each formatted whole by its dtype, and read back as
                ReplicationRecord rows)
    curve:      theta_star,mean_abs_beta,sd_beta,pct_outside_true_ci,
                pct_nonsignificant,convergence_rate,el_analytic,
                el_empirical
    efficiency: theta_star,info_true,info_masked_analytic,el_analytic,
                el_empirical
    points:     id,x,y[,choice]
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .efficiency import EfficiencyReport
from .experiments import RECORD_COLUMNS, AttenuationCurve, CurveRow

RECORDS_HEADER = ("theta_star", "rep") + RECORD_COLUMNS
CURVE_HEADER = (
    "theta_star", "mean_abs_beta", "sd_beta", "pct_outside_true_ci",
    "pct_nonsignificant", "convergence_rate", "el_analytic", "el_empirical",
)
EFFICIENCY_HEADER = (
    "theta_star", "info_true", "info_masked_analytic", "el_analytic", "el_empirical",
)
POINTS_HEADER = ("id", "x", "y")  # and an optional "choice" column


@dataclass(frozen=True)
class ReplicationRecord:
    """One row of a records CSV: one refit after one masking replication."""

    theta_star: float
    rep: int
    alpha_hat: float
    beta_hat: float
    se_beta: float
    converged: bool
    iterations: int
    significant_beta: bool
    outside_true_ci: bool


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _format_column(values: np.ndarray) -> list[str]:
    """``_fmt`` of every value of a 1-d array, chosen once by its dtype:
    ``true``/``false`` for bools, ``str`` for ints, ``.17g`` for floats."""
    if values.dtype == np.bool_:
        return np.where(values, "true", "false").tolist()
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return [format(v, ".17g") for v in values.tolist()]


def _write_csv(path: str | Path, header: tuple[str, ...], rows) -> Path:
    """``header`` and then ``rows`` of formatted fields, one line each. No
    formatted number, flag or empty cell holds a comma, quote or newline,
    so the fields are joined as ``csv.writer`` would write them, unquoted."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
    return path


def _write_rows(path: str | Path, header: tuple[str, ...], rows) -> Path:
    return _write_csv(path, header, ([_fmt(v) for v in row] for row in rows))


def write_records_csv(theta_stars: tuple[float, ...], columns: dict[str, np.ndarray], path: str | Path) -> Path:
    """One row per (cell, replication) of the ``RECORD_COLUMNS``, each shaped
    (cells, replications) with cell c at ``theta_stars[c]``; rows follow
    the columns' order, cell by cell. Each cell's columns are formatted
    whole (``_format_column``), to the bytes ``_fmt`` gives per value."""
    if not theta_stars:
        raise ValueError("no records to write")

    def rows():
        for c, theta_star in enumerate(theta_stars):
            fields = [_format_column(columns[name][c]) for name in RECORD_COLUMNS]
            reps = map(str, range(len(fields[0])))
            yield from zip(repeat(_fmt(theta_star)), reps, *fields)

    return _write_csv(path, RECORDS_HEADER, rows())


def _record(row: dict[str, str]) -> ReplicationRecord:
    return ReplicationRecord(
        theta_star=float(row["theta_star"]),
        rep=int(row["rep"]),
        alpha_hat=float(row["alpha_hat"]),
        beta_hat=float(row["beta_hat"]),
        se_beta=float(row["se_beta"]),
        converged=_parse_bool(row["converged"]),
        iterations=int(row["iterations"]),
        significant_beta=_parse_bool(row["significant_beta"]),
        outside_true_ci=_parse_bool(row["outside_true_ci"]),
    )


def read_records_csv(path: str | Path) -> list[ReplicationRecord]:
    return _read_rows(path, _record, RECORDS_HEADER)


def write_curve_csv(
    curve: AttenuationCurve,
    efficiency_reports: list[EfficiencyReport] | None,
    path: str | Path,
) -> Path:
    """One row per theta*; efficiency columns are empty when no reports are
    supplied (e.g. centroid runs). Reports, when given, must cover the same
    theta* grid in the same order."""
    reports: list[EfficiencyReport | None]
    if efficiency_reports is None:
        reports = [None] * len(curve.rows)
    else:
        if len(efficiency_reports) != len(curve.rows):
            raise ValueError(
                f"{len(efficiency_reports)} efficiency reports for {len(curve.rows)} curve rows"
            )
        for row, rep in zip(curve.rows, efficiency_reports):
            if abs(row.theta_star - rep.theta_star) > 1e-12:
                raise ValueError(f"report theta* {rep.theta_star} does not match row {row.theta_star}")
        reports = list(efficiency_reports)

    def cells():
        for row, rep in zip(curve.rows, reports):
            yield (
                row.theta_star, row.mean_abs_beta, row.sd_beta,
                row.pct_outside_true_ci, row.pct_nonsignificant, row.convergence_rate,
                None if rep is None else rep.el_analytic,
                None if rep is None else rep.el_empirical,
            )

    return _write_rows(path, CURVE_HEADER, cells())


def _curve_row(row: dict[str, str]) -> CurveRow:
    return CurveRow(
        theta_star=float(row["theta_star"]),
        mean_abs_beta=float(row["mean_abs_beta"]),
        sd_beta=float(row["sd_beta"]),
        pct_outside_true_ci=float(row["pct_outside_true_ci"]),
        pct_nonsignificant=float(row["pct_nonsignificant"]),
        convergence_rate=float(row["convergence_rate"]),
    )


def read_curve_csv(path: str | Path) -> AttenuationCurve:
    return AttenuationCurve(rows=tuple(_read_rows(path, _curve_row, CURVE_HEADER)))


def write_efficiency_csv(reports: list[EfficiencyReport], path: str | Path) -> Path:
    if not reports:
        raise ValueError("no efficiency reports to write")
    rows = sorted(reports, key=lambda r: r.theta_star)
    return _write_rows(
        path,
        EFFICIENCY_HEADER,
        (
            (r.theta_star, r.info_true, r.info_masked_analytic, r.el_analytic, r.el_empirical)
            for r in rows
        ),
    )


def write_points_csv(
    xy: np.ndarray,
    path: str | Path,
    choices: np.ndarray | None = None,
    ids: np.ndarray | None = None,
) -> Path:
    """Point dataset as id,x,y[,choice]; ids default to 0..n-1."""
    xy = np.asarray(xy, dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"xy must be (n, 2), got {xy.shape}")
    n = xy.shape[0]
    ids = np.arange(n) if ids is None else np.asarray(ids)
    if ids.shape != (n,):
        raise ValueError("ids length must match xy")
    header = POINTS_HEADER if choices is None else POINTS_HEADER + ("choice",)
    if choices is None:
        rows = ((int(i), x, y) for i, (x, y) in zip(ids, xy))
    else:
        choices = np.asarray(choices)
        if choices.shape != (n,):
            raise ValueError("choices length must match xy")
        rows = ((int(i), x, y, int(c)) for i, (x, y), c in zip(ids, xy, choices))
    return _write_rows(path, header, rows)


def _point(row: dict[str, str]) -> tuple[int, float, float, int | None]:
    x, y = float(row["x"]), float(row["y"])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"coordinates must be finite, got ({row['x']}, {row['y']})")
    if "choice" not in row:
        return int(row["id"]), x, y, None
    c = int(row["choice"])
    if c not in (0, 1):
        raise ValueError(f"choice must be 0 or 1, got {row['choice']}")
    return int(row["id"]), x, y, c


def read_points_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (ids, xy, choices-or-None)."""
    rows = _read_rows(path, _point, POINTS_HEADER, POINTS_HEADER + ("choice",))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    ids, xs, ys, choices = zip(*rows)
    xy = np.column_stack([np.array(xs), np.array(ys)])
    return np.array(ids), xy, (None if choices[0] is None else np.array(choices, dtype=np.int64))


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _read_rows(path: str | Path, convert, *headers: tuple[str, ...]) -> list:
    """``convert`` of each data row of a CSV whose header is one of
    ``headers``, the row given as a dict keyed by that header. Blank lines
    are skipped, any other row must have one field per column, and a
    ValueError from ``convert`` is raised again with the row's line."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = tuple(header)
        if header not in headers:
            raise ValueError(f"{path}: unexpected header {header}; expected {' or '.join(map(str, headers))}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append(convert(dict(zip(header, row))))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows


@dataclass
class RunManifest:
    """Provenance for one CLI run: what produced which files."""

    config_hash: str
    seed: int
    version: str
    started_at: str
    finished_at: str
    outputs: list[str]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def write_manifest(manifest: RunManifest, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(manifest.to_json(), encoding="utf-8")
    return path
