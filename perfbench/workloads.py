"""The benchmark's workloads and the INI configs it generates for them.

The workload seed is the only input the benchmark varies between runs. It is
written into the generated config and nowhere else; the program is started
as ``geomasksim simulate --config <file>`` and sees nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass

# 10-cell theta* grid: fractions 0.1 ... 1.0 of the 0.707 reference radius,
# the program's default grid. A 0.0 cell is left out: at theta* = 0 the
# analytic efficiency ratio is 1 up to rounding, and on seeds where it rounds
# to 1 + 2**-52 `simulate` exits 1 (EfficiencyReport requires (0, 1]).
GRID_FRACTIONS = tuple(round(i / 10, 1) for i in range(1, 11))
GRID_REFERENCE_RADIUS = 0.707
CENTROID_GRID_K = 10  # the centroid kind's k x k municipality grid


@dataclass(frozen=True)
class Workload:
    """One named `simulate` run of the benchmark and its config."""

    name: str
    kind: str
    n: int
    replications: int
    workers: int
    mechanism: str
    boundary: str

    @property
    def cells(self) -> int:
        """theta* cells in the run (the centroid kind has one)."""
        return 1 if self.kind == "centroid" else len(GRID_FRACTIONS)

    def records(self, replications: int | None = None) -> int:
        """Attenuation records one run writes."""
        return self.cells * (replications or self.replications)

    def config_text(self, seed: int, out_dir: str, replications: int | None = None,
                    workers: int | None = None) -> str:
        """The INI config of one run of this workload."""
        lines = [
            "[experiment]",
            f"kind = {self.kind}",
            f"seed = {seed}",
            f"replications = {replications or self.replications}",
            f"workers = {workers or self.workers}",
            "[population]",
            f"n = {self.n}",
            "[mask]",
            f"mechanism = {self.mechanism}",
            f"boundary = {self.boundary}",
            "[grid]",
        ]
        if self.kind == "centroid":
            lines.append(f"k = {CENTROID_GRID_K}")
        else:
            lines.append("fractions = " + ", ".join(repr(f) for f in GRID_FRACTIONS))
            lines.append(f"reference_radius = {GRID_REFERENCE_RADIUS!r}")
        lines += ["[output]", f"out_dir = {out_dir}", "prefix = run", "write_plots = true"]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        # Thousands of small fits in one process, efficiency run included:
        # per-call Python overhead in logit, masking and rng decides the time.
        Workload("csr-uniform", "csr-population", n=1000, replications=120, workers=1,
                 mechanism="uniform", boundary="unconstrained"),
        # A few dozen fits on 100k-point arrays and no efficiency run:
        # per-element cost decides the time.
        Workload("centroid-100k", "centroid", n=100_000, replications=30, workers=1,
                 mechanism="uniform", boundary="redraw"),
        # Redraw masking and a two-worker pool carry a large share of the work.
        Workload("grid-redraw-w2", "fixed-area-grid", n=1000, replications=120, workers=2,
                 mechanism="gaussian", boundary="redraw"),
    )
}
