import dataclasses
import math
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomasksim.config import (
    RunOptions,
    config_hash,
    parse_config,
    parse_run_options,
    serialize_config,
)
from geomasksim.experiments import (
    CSR_REFERENCE_RADIUS,
    DEFAULT_GRID_K,
    DEFAULT_REPLICATIONS,
    DEFAULT_THETA_GRID,
    EXPERIMENTS,
    ExperimentConfig,
)
from geomasksim.geometry import Point
from geomasksim.logit import LogitParams
from geomasksim.masking import BOUNDARY_POLICIES, MECHANISMS, MaskSpec
from geomasksim.population import MunicipalityGrid


def _write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return p


MINIMAL = """\
[experiment]
kind = csr-population
"""


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    assert cfg.experiment == "csr-population"
    assert cfg.n == 1000
    assert cfg.replications == DEFAULT_REPLICATIONS
    assert cfg.theta_grid == DEFAULT_THETA_GRID
    assert cfg.reference_radius == CSR_REFERENCE_RADIUS
    assert cfg.generating_params == LogitParams(1.0, -2.0)
    assert cfg.mask.mechanism == "uniform"
    assert cfg.mask.boundary == "unconstrained"
    assert cfg.seed == 0
    assert cfg.facility == Point(0.0, 0.0)
    assert parse_run_options(tmp_path / "run.ini") == RunOptions(workers=1, out_dir="results", prefix="run", write_plots=True)


def test_kind_required(tmp_path):
    with pytest.raises(ValueError, match="kind"):
        parse_config(_write(tmp_path, "[experiment]\nseed = 1\n"))


def test_missing_file():
    with pytest.raises(ValueError, match="not found"):
        parse_config("/nonexistent/run.ini")


def test_full_config_roundtrip_values(tmp_path):
    text = """\
    [experiment]
    kind = fixed-area-grid
    seed = 42
    replications = 250
    workers = 4

    [population]
    n = 500
    alpha = 0.5
    beta = -1.5
    facility_x = 0.1
    facility_y = -0.2

    [mask]
    mechanism = gaussian
    boundary = redraw
    max_attempts = 50

    [grid]
    fractions = 0.2, 0.6, 1.0
    reference_radius = 0.3
    k = 8

    [output]
    out_dir = out/here
    prefix = job1
    write_plots = false
    """
    path = _write(tmp_path, text)
    cfg = parse_config(path)
    opts = parse_run_options(path)
    assert cfg.experiment == "fixed-area-grid"
    assert cfg.seed == 42 and cfg.replications == 250
    assert cfg.n == 500
    assert cfg.generating_params == LogitParams(0.5, -1.5)
    assert cfg.facility == Point(0.1, -0.2)
    assert cfg.mask.mechanism == "gaussian" and cfg.mask.boundary == "redraw"
    assert cfg.mask.max_attempts == 50
    assert cfg.theta_grid == (0.2, 0.6, 1.0)
    assert cfg.reference_radius == 0.3
    assert cfg.grid_k == DEFAULT_GRID_K  # k builds a centroid run's grid alone; this kind takes the default
    assert opts == RunOptions(workers=4, out_dir="out/here", prefix="job1", write_plots=False)


def test_reference_radius_defaults_by_kind(tmp_path):
    fixed = parse_config(_write(tmp_path, "[experiment]\nkind = fixed-area-grid\n", "a.ini"))
    assert fixed.reference_radius == pytest.approx(math.sqrt(1.0 / math.pi))
    cent = parse_config(_write(tmp_path, "[experiment]\nkind = centroid\n\n[grid]\nk = 20\n", "b.ini"))
    assert cent.reference_radius == MunicipalityGrid(20).cell_radius  # the cell radius the run masks at, every bit


@pytest.mark.parametrize("k", [1, 7, 10, 20])
@pytest.mark.parametrize("kind", EXPERIMENTS)
def test_file_and_library_give_a_kind_the_same_defaults(tmp_path, kind, k):
    # the file's k is set after the kind, so its radius follows k as the library's does
    cfg = parse_config(_write(tmp_path, f"[experiment]\nkind = {kind}\n\n[grid]\nk = {k}\n"))
    assert cfg == ExperimentConfig(kind, grid_k=k)
    if k == 10:  # the default k: a file without [grid] too
        assert parse_config(_write(tmp_path, f"[experiment]\nkind = {kind}\n", "b.ini")) == ExperimentConfig(kind)


def test_unknown_section_and_key(tmp_path):
    with pytest.raises(ValueError, match=r"unknown section \[extras\]"):
        parse_config(_write(tmp_path, MINIMAL + "\n[extras]\nfoo = 1\n"))
    with pytest.raises(ValueError, match="unknown key 'foo'"):
        parse_config(_write(tmp_path, "[experiment]\nkind = csr-population\nfoo = 1\n"))


def test_duplicate_key_names_line(tmp_path):
    text = "[experiment]\nkind = csr-population\nseed = 1\nseed = 2\n"
    with pytest.raises(ValueError, match="line"):
        parse_config(_write(tmp_path, text))


def test_fraction_range_error(tmp_path):
    with pytest.raises(ValueError, match=r"\[grid\] fractions"):
        parse_config(_write(tmp_path, MINIMAL + "\n[grid]\nfractions = 0.5, 1.5\n"))
    with pytest.raises(ValueError, match=r"\[grid\] fractions"):
        parse_config(_write(tmp_path, MINIMAL + "\n[grid]\nfractions = 0.5, 0.2\n"))


def test_bad_value_messages_name_field(tmp_path):
    with pytest.raises(ValueError, match=r"\[population\] n"):
        parse_config(_write(tmp_path, MINIMAL + "\n[population]\nn = many\n"))
    with pytest.raises(ValueError, match=r"\[population\] n"):
        parse_config(_write(tmp_path, MINIMAL + "\n[population]\nn = 0\n"))
    with pytest.raises(ValueError, match=r"\[mask\] mechanism"):
        parse_config(_write(tmp_path, MINIMAL + "\n[mask]\nmechanism = jitter\n"))
    with pytest.raises(ValueError, match=r"\[experiment\] seed"):
        parse_config(_write(tmp_path, MINIMAL.replace("kind = csr-population", "kind = csr-population\nseed = -3")))
    with pytest.raises(ValueError, match=r"\[experiment\] kind"):
        parse_config(_write(tmp_path, "[experiment]\nkind = jazz\n"))


def test_facility_outside_area(tmp_path):
    with pytest.raises(ValueError, match="outside"):
        parse_config(_write(tmp_path, MINIMAL + "\n[population]\nfacility_x = 0.9\n"))


def test_bad_boolean(tmp_path):
    with pytest.raises(ValueError, match=r"\[output\] write_plots"):
        parse_run_options(_write(tmp_path, MINIMAL + "\n[output]\nwrite_plots = maybe\n"))


def test_inline_comments_stripped(tmp_path):
    cfg = parse_config(_write(tmp_path, "[experiment]\nkind = csr-population  # the default analog\nseed = 5 ; chosen by dice\n"))
    assert cfg.experiment == "csr-population" and cfg.seed == 5


def test_serialize_parse_fixed_point(tmp_path):
    path = _write(
        tmp_path,
        """\
        [experiment]
        kind = centroid
        seed = 9

        [grid]
        fractions = 0.1, 0.30000000000000004, 1.0
        k = 3
        """,
    )
    cfg = parse_config(path)
    text1 = serialize_config(cfg)
    cfg2 = parse_config(_write(tmp_path, text1, "canon.ini"))
    assert cfg2 == cfg
    # second serialization is byte-identical: a fixed point
    assert serialize_config(cfg2) == text1


def test_config_hash_stability_and_sensitivity(tmp_path):
    a = parse_config(_write(tmp_path, MINIMAL, "a.ini"))
    b = parse_config(_write(tmp_path, MINIMAL + "\n[population]\nn = 1000\n", "b.ini"))
    assert config_hash(a) == config_hash(b)  # explicit default == implicit default
    c = parse_config(_write(tmp_path, "[experiment]\nkind = csr-population\nseed = 1\n", "c.ini"))
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64
    # every field moves it where the run reads it: max_attempts under the
    # redraw policy, grid_k on the centroid kind
    changed = [
        ExperimentConfig("fixed-area-grid"),
        dataclasses.replace(a, n=999),
        dataclasses.replace(a, replications=999),
        dataclasses.replace(a, theta_grid=(0.5, 1.0)),
        dataclasses.replace(a, reference_radius=0.5),
        dataclasses.replace(a, generating_params=LogitParams(1.0, -1.0)),
        dataclasses.replace(a, generating_params=LogitParams(0.5, -2.0)),
        dataclasses.replace(a, mask=MaskSpec(mechanism="gaussian")),
        dataclasses.replace(a, mask=MaskSpec(boundary="redraw")),
        dataclasses.replace(a, mask=MaskSpec(boundary="redraw", max_attempts=7)),
        ExperimentConfig("centroid"),
        ExperimentConfig("centroid", grid_k=3),
        dataclasses.replace(a, facility=Point(0.1, 0.0)),
        dataclasses.replace(a, facility=Point(0.0, 0.1)),
    ]
    hashes = {config_hash(cfg) for cfg in [a, *changed]}
    assert len(hashes) == len(changed) + 1
    # the run options move no output bit, so no hash bit either
    d = parse_config(_write(tmp_path, MINIMAL + "workers = 3\n[output]\nout_dir = x\nprefix = y\nwrite_plots = no\n", "d.ini"))
    assert config_hash(d) == config_hash(a)


_COUNT = st.integers(1, 2**40)


@pytest.mark.parametrize("kind", EXPERIMENTS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mechanism=st.sampled_from(MECHANISMS),
    boundary=st.sampled_from(BOUNDARY_POLICIES),
    ks=st.tuples(_COUNT, _COUNT),
    attempts=st.tuples(_COUNT, _COUNT),
    theta_stars=st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)),
)
def test_configs_differ_exactly_in_the_values_their_run_reads(kind, mechanism, boundary, ks, attempts, theta_stars):
    # grid_k builds the centroid grid, max_attempts bounds the redraw loop and
    # each cell sets its own theta*: two configs differing only in values no
    # run reads are one config, with one text and one hash
    a, b = (
        ExperimentConfig(kind, grid_k=k, mask=MaskSpec(mechanism, theta_star, boundary, max_attempts))
        for k, max_attempts, theta_star in zip(ks, attempts, theta_stars)
    )
    same_k = kind != "centroid" or ks[0] == ks[1]
    same_attempts = a.mask.boundary == "unconstrained" or attempts[0] == attempts[1]
    same = same_k and same_attempts
    assert (a == b) is same
    assert (serialize_config(a) == serialize_config(b)) is same
    assert (config_hash(a) == config_hash(b)) is same
    assert a.mask.theta_star == b.mask.theta_star == 0.0


def test_serialized_text_is_complete_ini(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    text = serialize_config(cfg)
    assert text.endswith("\n")
    for section in ("[experiment]", "[population]", "[mask]", "[grid]"):
        assert section in text
    # run options are not serialized
    assert "[output]" not in text and "workers" not in text
