"""Run one `geomasksim simulate` in a fresh interpreter and write what it measured.

    python3 perfbench/child.py CONFIG RESULT_JSON [--trace]

The launching process notes the clock just before it starts this one; the
result holds the clock reading once ``geomasksim.cli`` is imported, so the
difference is the set-up time. A calibration kernel runs just before and just
after the simulate call, to gauge how fast the host runs at that moment. With
``--trace`` the layer boundaries are wrapped (see ``tracer.py``) and the
per-layer totals are added to the result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import geomasksim.cli as cli  # noqa: E402  (the import is the set-up being timed)

IMPORTED_AT = time.monotonic()

import numpy as np  # noqa: E402  (already loaded by geomasksim)

_SMALL = np.linspace(-4.0, 4.0, 1_000)
_LARGE = np.linspace(-4.0, 4.0, 100_000)


def calibration_s() -> float:
    """Seconds for a fixed mix of interpreter work, small-array and
    large-array numpy ufuncs, the three kinds of work the workloads do.
    It uses nothing from geomasksim, so it gauges the host, not the program."""
    start = time.perf_counter()
    total = 0.0
    for i in range(60_000):
        total += (i % 7) * 0.5
    for _ in range(300):
        total += float(np.logaddexp(0.0, _SMALL).sum())
    for _ in range(15):
        total += float(np.logaddexp(0.0, _LARGE).sum() + np.hypot(_LARGE, 1.0).sum())
    return time.perf_counter() - start


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    config, result_path = argv[0], Path(argv[1])
    trace = "--trace" in argv[2:]
    argv_cli = ["simulate", "--config", config]

    result = {"imported_at": IMPORTED_AT, "package": cli.__file__, "calibration_s": [calibration_s()]}
    before_self = resource.getrusage(resource.RUSAGE_SELF)
    before_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        bindings = tracing.install(tracer)
        start = time.perf_counter()
        try:
            code = tracer.call("cli", cli.main, argv_cli)
        finally:
            run_s = time.perf_counter() - start
            tracer.restore()
        result["restored"] = all(vars(owner)[attr] is original for owner, attr, original in bindings)
        result["layers"] = tracing.layer_metrics(tracer.spans)
    else:
        start = time.perf_counter()
        code = cli.main(argv_cli)
        run_s = time.perf_counter() - start

    after_self = resource.getrusage(resource.RUSAGE_SELF)
    after_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["calibration_s"].append(calibration_s())
    result.update(
        exit_code=code,
        run_s=run_s,
        # the pool's workers are reaped when the pool shuts down, so their
        # CPU time and peak RSS are in RUSAGE_CHILDREN by now
        cpu_s=_cpu(after_self) - _cpu(before_self) + _cpu(after_children) - _cpu(before_children),
        peak_rss_kb=max(after_self.ru_maxrss, after_children.ru_maxrss),
    )
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
