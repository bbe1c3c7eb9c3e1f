"""Outside-in tracing of one `simulate` run.

The tracer replaces public functions of the geomasksim modules at the names
where ``geomasksim.cli`` and ``geomasksim.experiments`` look them up, so the
spans follow the real call path and nothing in the package changes. Each call
becomes a span (name, start, end, parent) kept in memory; counts such as
points masked or Newton passes are read at the same boundary from the call's
arguments and result. ``restore`` puts every original binding back.

Only calls made in this process are seen, so the traced run is single-process.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "start", "end", "error", "counts")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.error = None
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.close(span, type(exc).__name__)
            raise
        self.close(span)
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced version recording span ``name``.

        ``count(args, kwargs, result)`` returns the span's counts; it runs
        after the span is closed, so its cost is not in the span.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, type(exc).__name__)
                raise
            tracer.close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)


def _fit_counts(args, kwargs, fit):
    data = args[0] if args else next(iter(kwargs.values()))
    n = len(data.choices) if hasattr(data, "choices") else len(data)
    return {"n": n, "passes": fit.iterations + 1, "converged": fit.converged}


def _mask_counts(args, kwargs, masked):
    return {"points": len(masked)}


def _bytes_written(args, kwargs, path):
    return {"bytes": path.stat().st_size}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the package's layer boundaries; returns the (owner, attr, original)
    bindings replaced, for checking that ``restore`` put them back."""
    from geomasksim import cli, experiments
    from geomasksim.rng import RngStream

    for owner, attrs, name, count in (
        (cli, ("parse_config", "parse_run_options"), "config", None),
        (cli, ("run_experiment",), "experiments", None),
        (cli, ("run_efficiency_experiment",), "efficiency", None),
        (cli, ("write_records_csv", "write_curve_csv", "write_efficiency_csv", "write_manifest"),
         "reports", _bytes_written),
        (cli, ("render_attenuation_svg", "render_kde_svg"), "svgplot", None),
        (cli, ("kde",), "density", None),
        (experiments, ("build_curve",), "experiments.curve", None),
        (experiments, ("fit_distance_choice", "fit_logit"), "logit", _fit_counts),
        (experiments, ("mask_coordinates",), "masking", _mask_counts),
        (experiments, ("derive_stream", "efficiency_true_stream", "efficiency_masked_stream",
                       "population_stream", "choices_stream"), "rng.derive", None),
        (RngStream, ("generator",), "rng.generator", None),
        (experiments, ("generate_csr_xy", "simulate_choices_xy"), "population.prepare", None),
        (experiments, ("build_municipality_grid", "assign_to_centroid"), "population.centroid", None),
    ):
        for attr in attrs:
            tracer.wrap(owner, attr, name, count)
    return tracer.patched()


def layer_metrics(spans: list[Span], root: str = "cli") -> dict[str, float]:
    """Per-layer totals from the spans of one traced run.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, span in enumerate(spans):
        total[span.name] += span.duration
        self_time[span.name] += span.duration - child_time[i]
        calls[span.name] += 1

    def under(i: int, name: str) -> bool:
        while i >= 0:
            if spans[i].name == name:
                return True
            i = spans[i].parent
        return False

    fits = [(i, s) for i, s in enumerate(spans) if s.name == "logit"]
    done = [s.counts for _, s in fits if s.counts is not None]
    passes = sum(c["passes"] for c in done)
    point_passes = sum(c["n"] * c["passes"] for c in done)
    fit_s = total["logit"]
    mask_s = self_time["masking"]
    points = sum(s.counts["points"] for s in spans if s.name == "masking" and s.counts)

    return {
        "logit.fits": len(fits),
        "logit.fit_s": fit_s,
        "logit.newton_passes": passes,
        "logit.pass_us": 1e6 * fit_s / passes if passes else 0.0,
        "logit.point_passes_per_s": point_passes / fit_s if fit_s else 0.0,
        "logit.nonconverged": sum(not c["converged"] for c in done),
        "logit.singular": sum(s.error == "SingularInformationError" for _, s in fits),
        "masking.calls": calls["masking"],
        "masking.mask_s": mask_s,
        "masking.points_per_s": points / mask_s if mask_s else 0.0,
        "rng.generators": calls["rng.generator"],
        "rng.generator_s": total["rng.generator"],
        "rng.derive_s": total["rng.derive"],
        "experiments.run_s": total["experiments"],
        "experiments.self_s": self_time["experiments"],
        "experiments.curve_s": total["experiments.curve"],
        "efficiency.run_s": total["efficiency"],
        "efficiency.self_s": self_time["efficiency"],
        "efficiency.fits": sum(under(i, "efficiency") for i, _ in fits),
        "population.prepare_s": total["population.prepare"],
        "population.centroid_s": total["population.centroid"],
        "reports.write_s": total["reports"],
        "reports.bytes": sum(s.counts["bytes"] for s in spans if s.name == "reports" and s.counts),
        "svgplot.render_s": total["svgplot"],
        "density.kde_s": total["density"],
        "config.parse_s": total["config"],
        "cli.self_s": self_time[root],
    }
