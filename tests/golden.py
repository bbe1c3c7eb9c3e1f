"""Golden output digests: the SHA-256 of what the command line writes for a
fixed set of small runs, so that a change that moves output bits shows in
tier-1 even when it moves them alike on both sides of every relative check.

``compute_digests`` runs, in-process and at workers 1:

* ``simulate`` on ``CONFIGS`` (the three kinds, both mechanisms, both
  boundary policies), digesting the records, curve and efficiency CSVs, the
  baseline JSON, both SVGs and the stdout without its ``wrote`` lines (whose
  temporary paths vary), and recording the ``config_hash`` that the run's
  manifest carries (the manifest file, whose timestamps vary, is not
  digested);
* ``efficiency`` on the ``EFFICIENCY_CONFIG`` entry of ``CONFIGS`` at each
  of ``EFFICIENCY_REPS``, digesting its CSV and its stdout without the
  ``wrote`` line;
* ``fit`` on a fixed point file (its stdout) and ``mask`` on the same file
  (the masked CSV), under both mechanisms.

The bits depend on numpy's SIMD dispatch and on the platform's libm, so
each set of digests is stored under the ``fingerprint`` it was made on: the
numpy version, the machine, the platform, numpy's baseline CPU targets and
the dispatch targets this CPU supports. Regenerate the file with

    PYTHONPATH=src python tests/golden.py

which adds or replaces the entry for this host's fingerprint, keeps the
others and prints the names of the digests that moved. A change that moves
bits on purpose regenerates it and says which digests moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath

from geomasksim.cli import EXIT_OK, main

DIGESTS_PATH = Path(__file__).resolve().parent / "golden_digests.json"

# name -> config text; n of a few hundred, a few dozen replications
CONFIGS = {
    "csr-uniform-unconstrained": """
        [experiment]
        kind = csr-population
        seed = 11
        replications = 30
        [population]
        n = 200
        [grid]
        fractions = 0.2, 0.6, 1.0
    """,
    "csr-gaussian-redraw": """
        [experiment]
        kind = csr-population
        seed = 12
        replications = 32
        [population]
        n = 250
        alpha = 0.5
        beta = -1.5
        facility_x = 0.1
        facility_y = -0.2
        [mask]
        mechanism = gaussian
        boundary = redraw
        [grid]
        fractions = 0.25, 0.5, 1.0
        reference_radius = 0.6
    """,
    "fixed-area-uniform-redraw": """
        [experiment]
        kind = fixed-area-grid
        seed = 13
        replications = 30
        [population]
        n = 200
        [mask]
        boundary = redraw
        [grid]
        fractions = 0.3, 0.7, 1.0
    """,
    "fixed-area-gaussian-unconstrained": """
        [experiment]
        kind = fixed-area-grid
        seed = 14
        replications = 30
        [population]
        n = 300
        [mask]
        mechanism = gaussian
        [grid]
        fractions = 0.5, 1.0
        k = 7
    """,
    "fixed-area-default-grid": """
        [experiment]
        kind = fixed-area-grid
        seed = 15
        replications = 30
        [population]
        n = 150
    """,
    "centroid-uniform-k5": """
        [experiment]
        kind = centroid
        seed = 16
        replications = 40
        [population]
        n = 300
        [grid]
        k = 5
    """,
    "centroid-gaussian-k7": """
        [experiment]
        kind = centroid
        seed = 17
        replications = 30
        [population]
        n = 300
        [mask]
        mechanism = gaussian
        boundary = unconstrained
        [grid]
        k = 7
    """,
    "centroid-default-k": """
        [experiment]
        kind = centroid
        seed = 18
        replications = 30
        [population]
        n = 400
        [mask]
        max_attempts = 500
    """,
}

# outputs of one `simulate` run (prefix "run"); the efficiency CSV is not
# written for the centroid kind
SIMULATE_OUTPUTS = ("records.csv", "curve.csv", "efficiency.csv", "baseline.json", "attenuation.svg", "kde.svg")

# the config `efficiency` runs, analytic alone and with empirical replications
EFFICIENCY_CONFIG = "csr-uniform-unconstrained"
EFFICIENCY_REPS = (0, 30)

# (name, arguments after `mask --points P --out O`)
MASK_RUNS = {
    "mask-uniform-unconstrained": ["--theta-star", "0.3", "--seed", "5"],
    "mask-gaussian-redraw": ["--theta-star", "0.4", "--mechanism", "gaussian", "--boundary", "redraw",
                             "--area", "-0.5", "0.5", "-0.5", "0.5", "--seed", "6"],
}


def fingerprint() -> dict:
    """What the output bits may depend on besides the package: numpy's
    version and the SIMD targets it dispatches to on this CPU, the machine
    and the platform (whose libm numpy calls for some functions)."""
    features = _multiarray_umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": sys.platform,
        "cpu_baseline": list(_multiarray_umath.__cpu_baseline__),
        "cpu_dispatch": [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)],
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _points_text() -> str:
    """A fixed id,x,y,choice file of 120 points: coordinates and choices
    from Python's own Mersenne Twister, whose ``random()`` sequence is
    fixed for a seed, with choices drawn from the (1, -2) distance logit."""
    rng = random.Random(20)
    lines = ["id,x,y,choice"]
    for i in range(120):
        x, y = rng.random() - 0.5, rng.random() - 0.5
        p = 1.0 / (1.0 + math.exp(-(1.0 - 2.0 * math.hypot(x, y))))
        lines.append(f"{i},{x!r},{y!r},{int(rng.random() < p)}")
    return "\n".join(lines) + "\n"


def _main(argv: list[str]) -> str:
    """stdout of one command, which must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != EXIT_OK:
        raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue()}")
    return out.getvalue()


def _without_wrote(stdout: str) -> bytes:
    """stdout without its ``wrote <path>`` lines, as UTF-8."""
    return "".join(line for line in stdout.splitlines(keepends=True) if not line.startswith("wrote ")).encode("utf-8")


def compute_digests() -> dict[str, str]:
    """Digest of every golden output, by "<run>/<output>" name."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in CONFIGS.items():
            config = tmp / f"{name}.ini"
            config.write_text("\n".join(line.strip() for line in text.strip().splitlines()) + "\n", encoding="utf-8")
            out = tmp / name
            stdout = _main(["simulate", "--config", str(config), "--out-dir", str(out)])
            digests[f"{name}/stdout"] = _sha256(_without_wrote(stdout))
            for output in SIMULATE_OUTPUTS:
                path = out / f"run_{output}"
                if path.exists():
                    digests[f"{name}/{output}"] = _sha256(path.read_bytes())
            manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
            digests[f"{name}/config_hash"] = manifest["config_hash"]

        for reps in EFFICIENCY_REPS:
            name, out = f"efficiency-{EFFICIENCY_CONFIG}-reps{reps}", tmp / f"efficiency-{reps}"
            stdout = _main(["efficiency", "--config", str(tmp / f"{EFFICIENCY_CONFIG}.ini"), "--out-dir", str(out),
                            "--empirical-reps", str(reps)])
            digests[f"{name}/stdout"] = _sha256(_without_wrote(stdout))
            digests[f"{name}/efficiency.csv"] = _sha256((out / "run_efficiency.csv").read_bytes())

        points = tmp / "points.csv"
        points.write_text(_points_text(), encoding="utf-8")
        stdout = _main(["fit", "--points", str(points), "--facility-x", "0.1", "--facility-y", "-0.2"])
        digests["fit/stdout"] = _sha256(stdout.encode("utf-8"))
        for name, args in MASK_RUNS.items():
            masked = tmp / f"{name}.csv"
            _main(["mask", "--points", str(points), "--out", str(masked), *args])
            digests[f"{name}/points.csv"] = _sha256(masked.read_bytes())
    return digests


def load() -> list[dict]:
    """The stored entries, each {"fingerprint": ..., "digests": ...}."""
    if not DIGESTS_PATH.exists():
        return []
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))["entries"]


def regenerate() -> tuple[dict, list[str]]:
    """Compute this host's digests and store them under its fingerprint,
    replacing an entry of the same fingerprint and keeping the others.
    Returns the entry and the names of the digests that differ from the
    replaced entry's (all of them when there was none)."""
    entry = {"fingerprint": fingerprint(), "digests": compute_digests()}
    stored = load()
    old = next((e["digests"] for e in stored if e["fingerprint"] == entry["fingerprint"]), {})
    new = entry["digests"]
    moved = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    entries = [e for e in stored if e["fingerprint"] != entry["fingerprint"]] + [entry]
    DIGESTS_PATH.write_text(json.dumps({"entries": entries}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return entry, moved


if __name__ == "__main__":
    written, moved = regenerate()
    print(f"wrote {len(written['digests'])} digests for {written['fingerprint']} to {DIGESTS_PATH}")
    print(f"{len(moved)} changed" + "".join(f"\n  {name}" for name in moved))
