"""Benchmark of `geomasksim simulate` on three workloads.

    python3 perfbench/run.py --workload csr-uniform --seed 1 --seconds 30 --trace 0

Each workload is run untraced in fresh processes, one after another, until
``--seconds`` have passed (at least three runs); the end-to-end metrics are
medians over those runs, with times scaled to a reference host (see
CALIBRATION_REF_S). One more run, single-process and traced from outside
(see ``tracer.py``), gives the per-layer metrics. Every run's outputs are
checked (see ``checks.py``), and all runs of a workload must write the same
records CSV byte for byte, whatever their worker count.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (replication records), and ``metrics`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it give each metric with its unit, the run's context (seed, machine, versions,
commit) and why a per-layer metric is absent on a workload.
``--workload all`` runs every workload and prefixes metric names with the
workload's name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
MIN_RUNS = 3
RUN_TIMEOUT_S = 150
# Reported times are in seconds of a reference host: one on which the
# calibration kernel (child.calibration_s) takes this long. Each run's times
# are multiplied by CALIBRATION_REF_S / (the kernel's mean time just before
# and just after that run). Other tenants of a shared host slow it by up to
# ~1.7x for minutes at a time; the kernel slows with them, while a change to
# the program leaves it alone.
CALIBRATION_REF_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "reps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "fit_ok_share": "ratio",
}

PER_LAYER_UNITS = {
    "logit.fits": "count",
    "logit.fit_s": "s",
    "logit.newton_passes": "count",
    "logit.pass_us": "us",
    "logit.point_passes_per_s": "1/s",
    "logit.nonconverged": "count",
    "logit.singular": "count",
    "masking.calls": "count",
    "masking.mask_s": "s",
    "masking.points_per_s": "1/s",
    "rng.generators": "count",
    "rng.generator_s": "s",
    "rng.derive_s": "s",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "experiments.curve_s": "s",
    "experiments.pool_util": "ratio",
    "efficiency.run_s": "s",
    "efficiency.self_s": "s",
    "efficiency.fits": "count",
    "population.prepare_s": "s",
    "population.centroid_s": "s",
    "reports.write_s": "s",
    "reports.bytes": "bytes",
    "svgplot.render_s": "s",
    "density.kde_s": "s",
    "config.parse_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "fit_fail_share": "ratio",
}

NOTES = (
    "This sandbox cannot pin CPUs or drop the page cache, so runs share the host with "
    "other tenants; times are medians over repeated runs, scaled to reference-host seconds "
    "by a calibration kernel timed around each run."
)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (the checkout is not a git repository)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _run(work: Path, workload, seed: int, replications: int, label: str, trace: bool,
         reference: list[float] | None) -> dict:
    """One `simulate` in a fresh process, with its outputs checked and then removed."""
    from checks import check_outputs

    run_dir = work / label
    run_dir.mkdir()
    out_dir = run_dir / "out"
    config = run_dir / "config.ini"
    result = run_dir / "result.json"
    config.write_text(
        workload.config_text(seed, str(out_dir), replications, workers=1 if trace else None),
        encoding="utf-8",
    )
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(result)] + (["--trace"] if trace else [])
    launched = time.monotonic()
    with open(run_dir / "log.txt", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=run_dir, timeout=RUN_TIMEOUT_S)
            returncode = proc.returncode
        except subprocess.TimeoutExpired:
            returncode = None
    run = {"label": label, "ok": False, "problems": [], "nonconverged": 0}
    if returncode != 0 or not result.exists():
        run["problems"].append(f"run process ended with {returncode!r}: {_tail(run_dir / 'log.txt')}")
        return run
    run.update(json.loads(result.read_text(encoding="utf-8")))
    run["setup_s"] = run.pop("imported_at") - launched
    run["scale"] = CALIBRATION_REF_S / statistics.fmean(run["calibration_s"])
    if run["exit_code"] != 0:
        run["problems"].append(f"simulate exited {run['exit_code']}: {_tail(run_dir / 'log.txt')}")
    elif not Path(run["package"]).is_relative_to(ROOT / "src"):
        run["problems"].append(f"ran geomasksim from {run['package']}, not from this checkout")
    else:
        problems, run["nonconverged"] = check_outputs(
            out_dir, workload.cells, replications, reference)
        run["problems"] += problems
        run["records_sha256"] = hashlib.sha256((out_dir / "run_records.csv").read_bytes()).hexdigest()
    if trace and not run.get("restored", False):
        run["problems"].append("the tracer left a patched binding in place")
    run["ok"] = not run["problems"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return run


def _tail(path: Path, lines: int = 5) -> str:
    return " | ".join(path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-lines:])


def measure(workload, seed: int, seconds: float, replications: int | None = None) -> dict:
    """Untraced runs for ``seconds`` (at least MIN_RUNS), then one traced run."""
    from checks import load_reference, reference_curve

    reps = replications or workload.replications
    reference = reference_curve(load_reference(), workload.name, reps, seed)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        untraced = []
        start = time.monotonic()
        while len(untraced) < MIN_RUNS or time.monotonic() - start < seconds:
            untraced.append(_run(work, workload, seed, reps, f"run{len(untraced)}", False, reference))
        traced = _run(work, workload, seed, reps, "traced", True, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another benchmark process still works there

    problems = [f"{r['label']}: {p}" for r in untraced + [traced] for p in r["problems"]]
    digests = {r["records_sha256"] for r in untraced + [traced] if "records_sha256" in r}
    if len(digests) > 1:
        problems.append(
            f"records CSVs differ between runs (workers={workload.workers} untraced, workers=1 traced)")
    return {
        "workload": workload,
        "seed": seed,
        "replications": reps,
        "untraced": untraced,
        "traced": traced,
        "problems": problems,
        "reference_checked": reference is not None,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _scaled(runs: list[dict], key: str) -> list[float]:
    """``key`` of each run in reference-host seconds."""
    return [r[key] * r["scale"] for r in runs]


def end_to_end(m: dict) -> dict[str, float]:
    """Medians over the untraced runs, times in reference-host seconds."""
    runs = [r for r in m["untraced"] if r["ok"]]
    records = m["workload"].records(m["replications"])
    run_s = _median(_scaled(runs, "run_s"))
    return {
        "setup_s": _median(_scaled(runs, "setup_s")),
        "run_s": run_s,
        "reps_per_s": records / run_s if run_s else 0.0,
        "cpu_s": _median(_scaled(runs, "cpu_s")),
        "peak_rss_mb": _median([r["peak_rss_kb"] / 1024 for r in runs]),
        "fit_ok_share": _median([1 - r["nonconverged"] / records for r in runs]),
    }


def absent_layers(workload) -> dict[str, str]:
    """Per-layer metrics that are 0 on this workload by construction, and why."""
    absent = {}
    if workload.kind == "centroid":
        for name in ("efficiency.run_s", "efficiency.self_s", "efficiency.fits"):
            absent[name] = "simulate skips the efficiency run for the centroid kind"
    else:
        absent["population.centroid_s"] = "only the centroid kind assigns points to cell centroids"
    if workload.workers > 1:
        absent["trace.overhead_s"] = (
            "the traced run is single-process and the untraced runs use a pool, so their difference "
            "is not tracing overhead")
    return absent


def per_layer(m: dict) -> dict[str, float]:
    workload = m["workload"]
    runs = [r for r in m["untraced"] if r["ok"]]
    traced = m["traced"]
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name, value in traced.get("layers", {}).items():
        unit = PER_LAYER_UNITS[name]
        metrics[name] = value * traced["scale"] if unit in ("s", "us") else (
            value / traced["scale"] if unit == "1/s" else value)
    metrics["experiments.pool_util"] = _median([r["cpu_s"] / (workload.workers * r["run_s"]) for r in runs])
    if workload.workers == 1 and traced["ok"] and runs:
        metrics["trace.overhead_s"] = traced["run_s"] * traced["scale"] - _median(_scaled(runs, "run_s"))
    records = workload.records(m["replications"])
    metrics["fit_fail_share"] = _median([r["nonconverged"] / records for r in runs])
    return metrics


def context(m: dict, layers: dict[str, float]) -> dict:
    import numpy
    import scipy

    workload = m["workload"]
    runs = [r for r in m["untraced"] if r["ok"]]
    info = {
        "workload": workload.name,
        "seed": m["seed"],
        "replications": m["replications"],
        "n": workload.n,
        "workers": workload.workers,
        "untraced_runs": len(m["untraced"]),
        "calibration_ref_s": CALIBRATION_REF_S,
        "scale_each": [round(r["scale"], 4) for r in runs],
        "unscaled_run_s_each": [round(r["run_s"], 4) for r in runs],
        "unscaled_setup_s_each": [round(r["setup_s"], 4) for r in runs],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "reference_checked": m["reference_checked"],
        "notes": [NOTES],
    }
    if workload.workers > 1:
        info["notes"].append(
            "Observed at this commit: run_efficiency_experiment takes no worker count and runs in "
            f"the parent process; experiments.pool_util = {layers['experiments.pool_util']:.3f} "
            f"with workers = {workload.workers}, and the efficiency stage took "
            f"{layers['efficiency.run_s']:.2f} s of the "
            f"{m['traced'].get('run_s', 0.0) * m['traced'].get('scale', 1.0):.2f} s "
            "single-process traced run (reference-host seconds).")
    return info


def _metric_objects(values: dict[str, float], units: dict[str, str], prefix: str = "") -> dict:
    return {prefix + name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--replications", type=int, default=None,
                        help="replications per cell instead of the workload's own (for quick checks)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    if args.seconds < 0 or (args.replications is not None and args.replications < 1):
        parser.error("--seconds must be >= 0 and --replications >= 1")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        workload = WORKLOADS[name]
        m = measure(workload, args.seed, args.seconds, args.replications)
        layers = per_layer(m)
        values, units = (layers, PER_LAYER_UNITS) if args.trace else (end_to_end(m), END_TO_END_UNITS)
        print(f"context {json.dumps(context(m, layers))}")
        for problem in m["problems"]:
            print(f"check failed [{name}]: {problem}")
        if args.trace:
            for metric, why in absent_layers(workload).items():
                print(f"absent [{name}] {metric}: {why}")
        for metric, unit in units.items():
            print(f"[{name}] {metric} = {values[metric]:.6g} {unit}")
        runs = m["untraced"] + [m["traced"]]
        records = workload.records(m["replications"])
        attempted += records * len(runs)
        failed += sum(records if not r["ok"] else r["nonconverged"] for r in runs)
        correct = correct and not m["problems"]
        metrics.update(_metric_objects(values, units, f"{name}." if len(names) > 1 else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "geomasksim" / "cli.py").is_file():
        print(f"error: no geomasksim sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
