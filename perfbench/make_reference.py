"""Record the reference curves that the output checks compare against.

    python3 perfbench/make_reference.py --seeds 0-63 [--workload NAME ...]

For each workload and seed this parses the same generated config that the
benchmark gives `simulate`, runs the experiment in-process and stores each
curve row's mean |beta| in ``reference.json``. Entries for other workloads
and seeds are kept. Record references only from a commit whose outputs are
trusted; a change that claims a gain must not rewrite them.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import REFERENCE_PATH, load_reference  # noqa: E402
from geomasksim.config import parse_config  # noqa: E402
from geomasksim.experiments import run_experiment  # noqa: E402


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seed_range, required=True, help="inclusive range, e.g. 0-63")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args()

    reference = load_reference()
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.ini"
        for name in args.workload or list(WORKLOADS):
            w = WORKLOADS[name]
            entry = reference.setdefault(name, {"replications": w.replications, "mean_abs_beta": {}})
            if entry["replications"] != w.replications:
                entry.update(replications=w.replications, mean_abs_beta={})
            for seed in args.seeds:
                config_path.write_text(w.config_text(seed, tmp), encoding="utf-8")
                result = run_experiment(parse_config(config_path))
                entry["mean_abs_beta"][str(seed)] = [row.mean_abs_beta for row in result.curve.rows]
                print(f"{name} seed {seed}: {len(result.curve.rows)} cells", flush=True)
            entry["mean_abs_beta"] = dict(sorted(entry["mean_abs_beta"].items(), key=lambda kv: int(kv[0])))
            REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
