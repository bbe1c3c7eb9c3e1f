"""A config file rejects exactly what ExperimentConfig rejects.

The rules live in the dataclasses; ``parse_config`` only converts text and
names the ``[section] key`` a rejected value came from.
"""

import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomasksim.cli import EXIT_OK, EXIT_VALIDATION, main
from geomasksim.config import RunOptions, parse_config, parse_run_options, serialize_config
from geomasksim.experiments import EXPERIMENTS, ExperimentConfig
from geomasksim.geometry import UNIT_SQUARE, Point
from geomasksim.logit import LogitParams
from geomasksim.masking import BOUNDARY_POLICIES, MECHANISMS, MaskSpec
from geomasksim.rng import MAX_INDEX

# (kind, section, key, value, the same value given to ExperimentConfig)
REJECTED = [
    ("csr-population", "population", "n", "0", lambda: ExperimentConfig("csr-population", n=0)),
    ("csr-population", "experiment", "replications", "0",
     lambda: ExperimentConfig("csr-population", replications=0)),
    # a replication's stream index must lie below rng.MAX_INDEX
    ("csr-population", "experiment", "replications", str(MAX_INDEX + 1),
     lambda: ExperimentConfig("csr-population", replications=MAX_INDEX + 1)),
    ("centroid", "grid", "k", "0", lambda: ExperimentConfig("centroid", grid_k=0)),
    ("centroid", "grid", "k", "-2", lambda: ExperimentConfig("centroid", grid_k=-2)),
    # checked before a centroid config is set to its one cell at the cell radius, under redraw
    ("centroid", "grid", "reference_radius", "-1", lambda: ExperimentConfig("centroid", reference_radius=-1.0)),
    ("centroid", "grid", "fractions", "2", lambda: ExperimentConfig("centroid", theta_grid=(2.0,))),
    ("centroid", "mask", "boundary", "sideways",
     lambda: ExperimentConfig("centroid", mask=MaskSpec(boundary="sideways"))),
    ("csr-population", "grid", "fractions", "0.5, 1.5",
     lambda: ExperimentConfig("csr-population", theta_grid=(0.5, 1.5))),
    ("csr-population", "grid", "fractions", "0.5, 0.2",
     lambda: ExperimentConfig("csr-population", theta_grid=(0.5, 0.2))),
    ("csr-population", "grid", "reference_radius", "0",
     lambda: ExperimentConfig("csr-population", reference_radius=0.0)),
    ("csr-population", "grid", "reference_radius", "inf",
     lambda: ExperimentConfig("csr-population", reference_radius=math.inf)),
    ("csr-population", "grid", "reference_radius", "nan",
     lambda: ExperimentConfig("csr-population", reference_radius=math.nan)),
    ("csr-population", "population", "alpha", "nan",
     lambda: ExperimentConfig("csr-population", generating_params=LogitParams(math.nan, -2.0))),
    ("csr-population", "population", "facility_x", "inf",
     lambda: ExperimentConfig("csr-population", facility=Point(math.inf, 0.0))),
    ("csr-population", "population", "facility_x", "0.9",
     lambda: ExperimentConfig("csr-population", facility=Point(0.9, 0.0))),
    ("csr-population", "experiment", "seed", "-3", lambda: ExperimentConfig("csr-population", seed=-3)),
    ("csr-population", "experiment", "seed", str(2**64), lambda: ExperimentConfig("csr-population", seed=2**64)),
    ("csr-population", "mask", "mechanism", "jitter",
     lambda: ExperimentConfig("csr-population", mask=MaskSpec(mechanism="jitter"))),
    ("csr-population", "mask", "boundary", "clip",
     lambda: ExperimentConfig("csr-population", mask=MaskSpec(boundary="clip"))),
    ("csr-population", "mask", "max_attempts", "0",
     lambda: ExperimentConfig("csr-population", mask=MaskSpec(max_attempts=0))),
]


def _config_text(kind, section, key, value):
    if section == "experiment":
        return f"[experiment]\nkind = {kind}\n{key} = {value}\n"
    return f"[experiment]\nkind = {kind}\n\n[{section}]\n{key} = {value}\n"


@pytest.mark.parametrize(
    "kind, section, key, value, build", REJECTED, ids=[f"{key}={value}" for _, _, key, value, _ in REJECTED]
)
def test_rejected_value(tmp_path, capsys, kind, section, key, value, build):
    path = tmp_path / "run.ini"
    path.write_text(_config_text(kind, section, key, value), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^\\[{section}\\] {key}: "):
        parse_config(path)

    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] {key}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()

    with pytest.raises(ValueError):
        build()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COORD = st.floats(UNIT_SQUARE.xmin, UNIT_SQUARE.xmax)
_COUNT = st.integers(1, 2**40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    config=st.builds(
        ExperimentConfig,
        experiment=st.sampled_from(EXPERIMENTS),
        n=_COUNT,
        replications=st.integers(1, MAX_INDEX),
        theta_grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12, unique=True).map(
            lambda fs: tuple(sorted(fs))
        ),
        reference_radius=st.floats(0.0, exclude_min=True, allow_infinity=False),
        generating_params=st.builds(LogitParams, _FINITE, _FINITE),
        mask=st.builds(
            MaskSpec,
            mechanism=st.sampled_from(MECHANISMS),
            boundary=st.sampled_from(BOUNDARY_POLICIES),
            max_attempts=_COUNT,
        ),
        seed=st.integers(0, 2**64 - 1),
        grid_k=_COUNT,
        facility=st.builds(Point, _COORD, _COORD),
    )
)
def test_every_valid_config_round_trips(config):
    # the parser adds no rule of its own: whatever the dataclass accepts,
    # the canonical text of it parses back to the same config
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(serialize_config(config), encoding="utf-8")
        assert parse_config(path) == config


# (section, key, value, the same value given to RunOptions, or None where the
# text does not convert)
REJECTED_RUN_OPTIONS = [
    ("experiment", "workers", "0", lambda: RunOptions(workers=0)),
    ("experiment", "workers", "-2", lambda: RunOptions(workers=-2)),
    ("experiment", "workers", "two", None),
    ("output", "write_plots", "maybe", None),
]


@pytest.mark.parametrize(
    "section, key, value, build",
    REJECTED_RUN_OPTIONS,
    ids=[f"{key}={value}" for _, key, value, _ in REJECTED_RUN_OPTIONS],
)
def test_run_option_rejected_with_its_own_rule(tmp_path, capsys, section, key, value, build):
    # workers and [output] are run options: the experiment stays valid
    path = tmp_path / "run.ini"
    path.write_text(_config_text("csr-population", section, key, value), encoding="utf-8")
    parse_config(path)
    with pytest.raises(ValueError, match=f"^\\[{section}\\] {key}: "):
        parse_run_options(path)

    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] {key}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()

    if build is not None:
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("out_dir", ["runs #1", "runs ;1", "#x", " p", "p ", "a\nb", "a\rb"])
def test_simulate_writes_under_any_out_dir_name(tmp_path, capsys, monkeypatch, out_dir):
    # the out dir is a run option, never written to a config line, so it may
    # hold what an INI value line cannot carry
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(
        "[experiment]\nkind = csr-population\nreplications = 30\n[population]\nn = 100\n"
        "[grid]\nfractions = 1.0\n[output]\nwrite_plots = false\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--config", "run.ini", "--out-dir", out_dir]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.ini", out_dir])
    assert (tmp_path / out_dir / "run_records.csv").is_file()
    assert f"wrote {Path(out_dir) / 'run_records.csv'}\n" in capsys.readouterr().out


def test_readme_default_config_is_the_serialized_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"The full default set.*?```ini\n(.*?)```", readme, re.S).group(1)
    text = "".join(line.split(";")[0].rstrip() + "\n" for line in block.splitlines())
    assert text == serialize_config(ExperimentConfig("csr-population"))
