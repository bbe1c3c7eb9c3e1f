"""Output checks for one `simulate` run of a benchmark workload.

A run passes when its records and curve CSVs read back through
``geomasksim.reports`` with the expected shape, each curve row's mean |beta|
agrees with the converged records of its cell, and is within
``MEAN_ABS_BETA_ATOL`` of the reference recorded in ``reference.json`` for the
workload's seed and size.
"""

from __future__ import annotations

import json
from pathlib import Path

from geomasksim.reports import read_curve_csv, read_records_csv

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Fixed from the arithmetic, not from measured spread. A converged fit stops
# with max|score| < 1e-8 (geomasksim.logit.DEFAULT_TOL). To first order such
# an estimate lies within ||I^-1|| * ||score|| <= trace(I^-1) * sqrt(2) * 1e-8
# of the exact maximum, whichever sequence of Newton steps reached it.
# trace(I^-1) = se_alpha^2 + se_beta^2 stays below 0.5 on every workload
# (se_beta <= 0.51 and se_alpha ~ 0.2 at n = 1000; both ~0.05 at n = 100k), so
# two correct implementations put each beta-hat, and hence each cell's mean
# |beta-hat|, at most 2 * 0.5 * sqrt(2) * 1e-8 ~ 1.4e-8 apart. Summation
# rounding (n * 2^-53 relative, n <= 1e5) is three orders below that. The
# tolerance leaves a factor of seven for the first-order approximation.
MEAN_ABS_BETA_ATOL = 1e-7


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_curve(reference: dict, workload: str, replications: int, seed: int) -> list[float] | None:
    """Recorded mean |beta| per cell, or None when this seed and size were not recorded."""
    entry = reference.get(workload)
    if entry is None or entry["replications"] != replications:
        return None
    return entry["mean_abs_beta"].get(str(seed))


def check_outputs(out_dir: Path, cells: int, replications: int,
                  reference: list[float] | None) -> tuple[list[str], int]:
    """Return (problems, non-converged record count) for one run's outputs."""
    try:
        records = read_records_csv(out_dir / "run_records.csv")
        curve = read_curve_csv(out_dir / "run_curve.csv")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"outputs do not read back: {exc}"], 0

    problems = []
    nonconverged = sum(not r.converged for r in records)
    keys = [(r.theta_star, r.rep) for r in records]
    thetas = sorted({t for t, _ in keys})
    if len(thetas) != cells or keys != [(t, rep) for t in thetas for rep in range(replications)]:
        problems.append(f"records do not cover {cells} cells x {replications} replications in order")
    if [row.theta_star for row in curve.rows] != thetas:
        problems.append("curve cells do not match the record cells")
    for row in curve.rows:
        betas = [abs(r.beta_hat) for r in records if r.theta_star == row.theta_star and r.converged]
        if not betas or not abs(sum(betas) / len(betas) - row.mean_abs_beta) <= MEAN_ABS_BETA_ATOL:
            problems.append(f"mean_abs_beta at theta*={row.theta_star:g} disagrees with its records")
    if reference is not None:
        means = [row.mean_abs_beta for row in curve.rows]
        if len(means) != len(reference):
            problems.append(f"{len(means)} curve rows, reference has {len(reference)}")
        else:
            off = [(t, m, r) for t, m, r in zip(thetas, means, reference) if not abs(m - r) <= MEAN_ABS_BETA_ATOL]
            if off:
                t, m, r = off[0]
                problems.append(f"mean_abs_beta at theta*={t:g} is {m!r}, reference {r!r} "
                                f"(tolerance {MEAN_ABS_BETA_ATOL:g}; {len(off)} cell(s) off)")
    return problems, nonconverged
