"""Tests of the benchmark harness itself, on tiny runs of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from checks import check_outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 2  # replications per cell
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module")
def measured():
    return {name: run.measure(w, seed=5, seconds=0, replications=TINY) for name, w in WORKLOADS.items()}


def test_workloads_match_the_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_tiny_runs_pass_every_check(measured):
    for name, m in measured.items():
        assert m["problems"] == [], name
        assert len(m["untraced"]) == run.MIN_RUNS
        assert all(r["ok"] for r in m["untraced"] + [m["traced"]])


def test_every_metric_is_reported_with_its_declared_unit(measured):
    assert run.END_TO_END_UNITS == _units("end_to_end")
    assert run.PER_LAYER_UNITS == _units("per_layer")
    for m in measured.values():
        assert set(run.end_to_end(m)) == set(run.END_TO_END_UNITS)
        assert set(run.per_layer(m)) == set(run.PER_LAYER_UNITS)
        assert all(v > 0 for v in run.end_to_end(m).values())


def test_absent_layers_read_zero(measured):
    for name, m in measured.items():
        layers = run.per_layer(m)
        for metric in run.absent_layers(WORKLOADS[name]):
            assert layers[metric] == 0, (name, metric)
    assert run.per_layer(measured["csr-uniform"])["efficiency.fits"] > 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_result_line(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "csr-uniform", "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--replications", str(TINY)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (run.MIN_RUNS + 1) * WORKLOADS["csr-uniform"].records(TINY)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(section)
    for name, unit in _units(section).items():
        assert any(line.endswith(f"] {name} = {result['metrics'][name]['value']:.6g} {unit}") for line in lines)


def test_tracer_restores_every_binding(tmp_path):
    from geomasksim import cli

    config = tmp_path / "config.ini"
    config.write_text(WORKLOADS["csr-uniform"].config_text(7, str(tmp_path / "out"), TINY), encoding="utf-8")
    tracer = tracing.Tracer()
    bindings = tracing.install(tracer)
    assert len(bindings) >= 20
    assert all(vars(owner)[attr] is not original for owner, attr, original in bindings)
    try:
        assert tracer.call("cli", cli.main, ["simulate", "--config", str(config)]) == 0
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in bindings)
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["logit.fits"] > 0 and layers["masking.calls"] > 0 and layers["rng.generators"] > 0


def test_corrupted_records_fail_the_output_check(tmp_path):
    from geomasksim import cli

    w = WORKLOADS["grid-redraw-w2"]
    out = tmp_path / "out"
    config = tmp_path / "config.ini"
    config.write_text(w.config_text(11, str(out), TINY, workers=1), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(config)]) == 0
    means = [float(line.split(",")[1]) for line in (out / "run_curve.csv").read_text().splitlines()[1:]]
    assert check_outputs(out, w.cells, TINY, means) == ([], 0)

    records = out / "run_records.csv"
    good = records.read_text(encoding="utf-8")
    lines = good.splitlines()
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) * 1.001)  # beta_hat of the first record
    records.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n", encoding="utf-8")
    problems, _ = check_outputs(out, w.cells, TINY, means)
    assert any("disagrees with its records" in p for p in problems)

    records.write_text(good[: len(good) // 2] + "\n", encoding="utf-8")
    problems, _ = check_outputs(out, w.cells, TINY, means)
    assert problems

    records.write_text(good, encoding="utf-8")
    problems, _ = check_outputs(out, w.cells, TINY, [m + 2e-7 for m in means])
    assert any("reference" in p for p in problems)
