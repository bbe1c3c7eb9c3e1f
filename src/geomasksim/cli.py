"""Command-line entry points.

Subcommands:

    simulate    run a configured experiment, its efficiency run included, in
                one `run_experiment` call; emit records/curve CSVs,
                efficiency table, SVG plots, baseline JSON, and a manifest
    mask        mask a point CSV once and emit the masked CSV
    fit         fit the distance logit on a point+choice CSV
    efficiency  emit the efficiency-loss table in one `run_efficiency_experiment` call
    plot        render SVGs from previously written curve/record CSVs

`--workers` and `--out-dir`, like a config's `[experiment] workers` and
[output] keys, are run options: they change neither the outputs' bits nor
the manifest's config hash.

Two builtin bases decide every exit code: a ValueError is input the run
cannot take and, with an OSError, exits 1 with one `error:` line; a
RuntimeError is a run that cannot finish and exits 2 with one `runtime
failure:` line. No module defines an error class of its own but `logit`'s
InvalidFitError, a ValueError.

Exit codes: 0 success; 1 validation error (arguments, config, input data
such as a curve file with an unreadable cell, an efficiency value out of
range or rows out of theta* order,
a point file with a non-finite coordinate or one on which `fit` has no
estimate, its choices separated or its information singular, a `simulate`
or `efficiency` baseline fit without an estimate or that does not converge,
a replication count above `rng.MAX_INDEX`, a `simulate` at n >= 2^59,
whose coordinate array numpy refuses as too big to address, an
`efficiency` config of the centroid kind, a path the operating system
refuses, such as a directory given as an input file); 2 runtime failure
(a replication cell, efficiency cells included, converging on under 50% of
its replications, or under `efficiency.MIN_CONVERGED_FITS` on either side
of an efficiency ratio; masking exhaustion; choices that change during an
attenuation run, against its fixed-y contract; a pool worker process that
dies, say by the out-of-memory killer's SIGKILL; an allocation that fails,
as one at n = 2^58 does); 130 interrupted (SIGINT; the outputs are written
after the run, so an interrupt during it leaves none).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import signal
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunOptions, config_hash, parse_config, parse_run_options
from .density import kde
from .experiments import FAST_REPLICATIONS, ExperimentConfig, run_efficiency_experiment, run_experiment
from .geometry import Point, StudyArea, facility_distances
from .logit import LogitFit, fit_distance_choice, wald_ci
from .masking import BOUNDARY_POLICIES, MECHANISMS, MaskSpec, mask_coordinates
from .reports import (
    read_curve_csv,
    read_json,
    read_points_csv,
    read_records_csv,
    write_curve_csv,
    write_efficiency_csv,
    write_json,
    write_manifest,
    write_points_csv,
    write_records_csv,
    write_text,
)
from .rng import derive_stream
from .svgplot import render_attenuation_svg, render_kde_svg

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; validation is 1 here
        raise ValueError(message)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _baseline_payload(fit: LogitFit) -> dict:
    ci_alpha, ci_beta = wald_ci(fit)
    return {
        "alpha": fit.params.alpha,
        "beta": fit.params.beta,
        "se_alpha": fit.std_errors[0],
        "se_beta": fit.std_errors[1],
        "ci_alpha": list(ci_alpha),
        "ci_beta": list(ci_beta),
        "loglik": fit.loglik,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }


def _path_text(path) -> str:
    """``path`` as text that UTF-8 can encode, for the ``wrote`` lines and
    the manifest: a byte the file system gave that is not UTF-8 reads
    ``\\xff``, a valid path as is."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _given(**flags) -> dict:
    return {name: value for name, value in flags.items() if value is not None}


def _load_config(args) -> tuple[ExperimentConfig, RunOptions]:
    """The --config file's experiment and run options, with the run flags
    given set: --workers and --out-dir on the options, --seed and --fast on
    the experiment."""
    config = parse_config(args.config)
    options = parse_run_options(args.config)
    options = dataclasses.replace(options, **_given(workers=args.workers, out_dir=args.out_dir))
    # refused before any data is generated, and without creating it
    out = Path(options.out_dir)
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        raise ValueError(f"out dir {out}: {blocker} is not a directory")
    fast = FAST_REPLICATIONS if getattr(args, "fast", False) else None
    return dataclasses.replace(config, **_given(seed=args.seed, replications=fast)), options


def _cmd_simulate(args) -> int:
    config, options = _load_config(args)
    started = _utcnow()
    result = run_experiment(config, workers=options.workers)

    out = Path(options.out_dir)
    prefix = options.prefix
    outputs = []

    def record(path: Path):
        outputs.append(_path_text(path))
        return path

    record(write_records_csv(result.theta_stars, result.columns, out / f"{prefix}_records.csv"))
    record(write_curve_csv(result.curve, out / f"{prefix}_curve.csv"))
    if result.efficiency:
        record(write_efficiency_csv(result.efficiency.reports, out / f"{prefix}_efficiency.csv"))

    record(write_json(_baseline_payload(result.baseline), out / f"{prefix}_baseline.json"))

    if options.write_plots:
        beta = result.baseline.params.beta
        record(write_text(render_attenuation_svg(result.curve, beta), out / f"{prefix}_attenuation.svg"))
        # the last cell is the largest theta*
        betas = result.columns["beta_hat"][-1][result.columns["converged"][-1]]
        try:
            svg = render_kde_svg(kde(betas), beta, wald_ci(result.baseline)[1])
            record(write_text(svg, out / f"{prefix}_kde.svg"))
        except ValueError:  # kde's degenerate sample included
            print("note: replication estimates degenerate at the largest theta*; KDE plot skipped")

    manifest = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "version": __version__,
        "started_at": started,
        "finished_at": _utcnow(),
        "outputs": sorted(outputs),
    }
    record(write_manifest(manifest, out / f"{prefix}_manifest.json"))

    b = result.baseline
    print(
        f"experiment={config.experiment} n={config.n} replications={config.replications} "
        f"seed={config.seed} workers={options.workers}"
    )
    lo, hi = wald_ci(b)[1]
    print(
        f"baseline: alpha={b.params.alpha:.4f} beta={b.params.beta:.4f} "
        f"se_beta={b.std_errors[1]:.4f} ci95=[{lo:.4f}, {hi:.4f}]"
    )
    print(f"{'theta*':>10} {'mean|b|':>9} {'sd(b)':>8} {'%outside':>9} {'%nonsig':>9} {'conv':>6}")
    for row in result.curve.rows:
        print(
            f"{row.theta_star:>10.4f} {row.mean_abs_beta:>9.4f} {row.sd_beta:>8.4f} "
            f"{row.pct_outside_true_ci:>9.1f} {row.pct_nonsignificant:>9.1f} "
            f"{row.convergence_rate:>6.1%}"
        )
    for text in outputs:
        print(f"wrote {text}")
    return EXIT_OK


def _cmd_mask(args) -> int:
    ids, xy, choices = read_points_csv(args.points)
    spec = MaskSpec(mechanism=args.mechanism, theta_star=args.theta_star, boundary=args.boundary)
    bounds = None
    if args.boundary == "redraw":
        if args.area is None:
            raise ValueError("--boundary redraw requires --area XMIN XMAX YMIN YMAX")
        bounds = StudyArea(*args.area).bounds
    masked = mask_coordinates(xy, spec, bounds, derive_stream(args.seed, 0, 0))
    write_points_csv(masked, args.out, choices=choices, ids=ids)
    print(f"wrote {_path_text(args.out)}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    ids, xy, choices = read_points_csv(args.points)
    if choices is None:
        raise ValueError(f"{args.points} has no choice column; `fit` needs id,x,y,choice")
    # Points far from the facility overflow d*d (rejected below) or the
    # information sums (classified singular); points very close to it can
    # overflow a Newton step (not converged). The exit code reports each
    # case, so numpy's warnings are not raised on top.
    with np.errstate(over="ignore", invalid="ignore"):
        d = facility_distances(xy, Point(args.facility_x, args.facility_y))
        if not np.isfinite(d).all():
            raise ValueError(
                f"{args.points}: a distance to the facility overflows; coordinates must lie within about 1e154 of it"
            )
        fit = fit_distance_choice(d, choices)  # InvalidFitError, a ValueError, when the fit has no estimate
    print(f"n={len(ids)} converged={str(fit.converged).lower()} iterations={fit.iterations}")
    print(f"alpha={fit.params.alpha:.6f} se={fit.std_errors[0]:.6f}")
    print(f"beta={fit.params.beta:.6f} se={fit.std_errors[1]:.6f}")
    if fit.converged:
        (alo, ahi), (blo, bhi) = wald_ci(fit)
        print(f"ci95_alpha=[{alo:.6f}, {ahi:.6f}] ci95_beta=[{blo:.6f}, {bhi:.6f}]")
        print(f"loglik={fit.loglik:.6f}")
        return EXIT_OK
    print("runtime failure: fit did not converge", file=sys.stderr)
    return EXIT_RUNTIME


def _cmd_efficiency(args) -> int:
    config, options = _load_config(args)
    reports = run_efficiency_experiment(config, args.empirical_reps, workers=options.workers).reports
    path = write_efficiency_csv(reports, Path(options.out_dir) / f"{options.prefix}_efficiency.csv")
    print(f"{'theta*':>10} {'info_true':>12} {'info_masked':>12} {'el_analytic':>12} {'el_empirical':>13}")
    for r in reports:
        emp = f"{r.el_empirical:>13.4f}" if r.el_empirical is not None else f"{'-':>13}"
        print(f"{r.theta_star:>10.4f} {r.info_true:>12.4f} {r.info_masked_analytic:>12.4f} {r.el_analytic:>12.6f} {emp}")
    print(f"wrote {_path_text(path)}")
    return EXIT_OK


def _is_number(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max  # no bool, NaN, inf or huge int


def _read_baseline(path: str, with_ci: bool) -> dict:
    """The baseline JSON ``simulate`` writes, checked for the fields ``plot``
    uses: a finite ``beta`` and, ``with_ci``, a ``ci_beta`` of two finite numbers."""
    baseline = read_json(path)
    if not isinstance(baseline, dict) or not _is_number(baseline.get("beta")):
        raise ValueError(f"{path}: baseline must be a JSON object with a finite numeric \"beta\"")
    ci = baseline.get("ci_beta")
    if with_ci and not (isinstance(ci, list) and len(ci) == 2 and all(map(_is_number, ci))):
        raise ValueError(f"{path}: baseline needs \"ci_beta\" as a list of two finite numbers to plot records")
    return baseline


def _cmd_plot(args) -> int:
    if args.curve is None and args.records is None:
        raise ValueError("plot needs --curve and/or --records")
    baseline = _read_baseline(args.baseline, with_ci=args.records is not None)
    out = Path(args.out_dir)
    if args.curve is not None:
        curve = read_curve_csv(args.curve)
        if not curve.rows:
            raise ValueError(f"{args.curve} has no curve rows")
        path = write_text(render_attenuation_svg(curve, baseline["beta"]), out / "attenuation.svg")
        print(f"wrote {_path_text(path)}")
    if args.records is not None:
        records = read_records_csv(args.records)
        if not records:
            raise ValueError(f"{args.records} has no records")
        theta = args.theta_star if args.theta_star is not None else max(r.theta_star for r in records)
        betas = [r.beta_hat for r in records if r.converged and abs(r.theta_star - theta) <= 1e-12]
        if not betas:
            raise ValueError(f"no converged records at theta*={theta:g} in {args.records}")
        try:
            estimate = kde(np.array(betas))
        except ValueError as exc:
            raise ValueError(f"cannot build KDE at theta*={theta:g}: {exc}") from exc
        path = write_text(render_kde_svg(estimate, baseline["beta"], tuple(baseline["ci_beta"])), out / "kde.svg")
        print(f"wrote {_path_text(path)}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="geomasksim", description="Geo-masking bias and efficiency-loss simulations")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, help="experiment config file (INI)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="override the config worker count")
        p.add_argument("--out-dir", default=None, help="override the config output directory")

    p = sub.add_parser("simulate", help="run an experiment from a config file")
    add_run_flags(p)
    p.add_argument("--fast", action="store_true", help=f"use {FAST_REPLICATIONS} replications")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mask", help="mask a point CSV once")
    p.add_argument("--points", required=True, help="input CSV (id,x,y[,choice])")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--theta-star", type=float, required=True, help="maximum displacement distance")
    p.add_argument("--mechanism", choices=MECHANISMS, default="uniform")
    p.add_argument("--boundary", choices=BOUNDARY_POLICIES, default="unconstrained")
    p.add_argument("--area", type=float, nargs=4, default=None,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
                   help="study-area bounds for --boundary redraw")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("fit", help="fit the distance logit on a point+choice CSV")
    p.add_argument("--points", required=True, help="input CSV (id,x,y,choice)")
    p.add_argument("--facility-x", type=float, default=0.0)
    p.add_argument("--facility-y", type=float, default=0.0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("efficiency", help="emit the efficiency-loss table for a configured dataset")
    add_run_flags(p)
    p.add_argument(
        "--empirical-reps", type=int, default=0,
        help="replications for the empirical variance ratio (0 = analytic only)",
    )
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("plot", help="render SVGs from curve/record CSVs")
    p.add_argument("--curve", default=None, help="curve CSV for the attenuation plot")
    p.add_argument("--records", default=None, help="records CSV for the KDE plot")
    p.add_argument("--baseline", required=True, help="baseline JSON written by `simulate`")
    p.add_argument("--theta-star", type=float, default=None, help="KDE cell (default: largest theta*)")
    p.add_argument("--out-dir", default="results")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:  # InvalidFitError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # numpy's message gives the allocation's size and shape
        print(f"runtime failure: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # a second Ctrl-C must not cut the exit short
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
