"""The names the benchmark's tracer wraps still exist where it looks them up.

``perfbench/tracer.py`` replaces functions of ``geomasksim.cli`` and
``geomasksim.experiments`` by name; a renamed or moved one breaks the traced
benchmark run. This installs the tracer on the package and takes it off
again, running no simulation.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_binding(monkeypatch):
    tracing = _load_tracer(monkeypatch)
    tracer = tracing.Tracer()
    try:
        bindings = tracing.install(tracer)
        assert len(bindings) >= 20
        assert all(callable(vars(owner)[attr]) and vars(owner)[attr] is not original
                   for owner, attr, original in bindings)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in bindings)
