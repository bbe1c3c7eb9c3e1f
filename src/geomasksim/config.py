"""Config-file parsing, canonical serialization, and config hashing.

The format is INI with five sections:

    [experiment]  kind, seed, replications, workers
    [population]  n, alpha, beta, facility_x, facility_y
    [mask]        mechanism, boundary, max_attempts
    [grid]        fractions, reference_radius, k
    [output]      out_dir, prefix, write_plots

Only ``[experiment] kind`` is required; everything else has a documented
default. Unknown sections or keys, duplicate keys, and out-of-range values
are hard errors that name the offending field. ``reference_radius`` defaults
by experiment kind: 0.707 (half-diagonal as printed) for csr-population,
the study region's equivalent circle radius for fixed-area-grid, and the
cell equivalent radius implied by k for centroid.

``serialize_config`` emits a canonical rendering (fixed section and key
order, shortest round-trip floats) such that parse -> serialize -> parse is
a fixed point; the run manifest's config hash is the SHA-256 of that
canonical text.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .experiments import (
    CSR_REFERENCE_RADIUS,
    DEFAULT_GRID_K,
    DEFAULT_REPLICATIONS,
    DEFAULT_THETA_GRID,
    EXPERIMENTS,
    FIXED_AREA_REFERENCE_RADIUS,
    ExperimentConfig,
)
from .geometry import UNIT_SQUARE, Point
from .logit import LogitParams
from .masking import MECHANISMS, BOUNDARY_POLICIES, MaskSpec


class ConfigError(ValueError):
    """Malformed or invalid configuration, with a field-level message."""


_SCHEMA: dict[str, tuple[str, ...]] = {
    "experiment": ("kind", "seed", "replications", "workers"),
    "population": ("n", "alpha", "beta", "facility_x", "facility_y"),
    "mask": ("mechanism", "boundary", "max_attempts"),
    "grid": ("fractions", "reference_radius", "k"),
    "output": ("out_dir", "prefix", "write_plots"),
}

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


@dataclass(frozen=True)
class RunOptions:
    """[output] section: where and what the CLI writes."""

    out_dir: str = "results"
    prefix: str = "run"
    write_plots: bool = True


def _read_sections(path: str | Path) -> dict[str, dict[str, str]]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        strict=True, interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] (expected one of {sorted(_SCHEMA)})")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] (expected one of {sorted(_SCHEMA[section])})"
                )
        sections[section] = dict(parser[section])
    return sections


def _get(sections, section, key, default, convert, check=None, describe=""):
    raw = sections.get(section, {}).get(key)
    if raw is None:
        value = default
    else:
        try:
            value = convert(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc
    if check is not None and not check(value):
        raise ConfigError(f"[{section}] {key}: {value!r} out of range ({describe})")
    return value


def _parse_bool(raw: str) -> bool:
    v = _BOOL.get(raw.strip().lower())
    if v is None:
        raise ValueError(f"expected a boolean (true/false), got {raw!r}")
    return v


def _parse_fractions(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty fraction list")
    return tuple(float(p) for p in parts)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a config file into an ExperimentConfig."""
    s = _read_sections(path)

    kind = _get(s, "experiment", "kind", None, str)
    if kind is None:
        raise ConfigError("[experiment] kind is required")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"[experiment] kind: {kind!r} is not one of {EXPERIMENTS}")

    k = _get(s, "grid", "k", DEFAULT_GRID_K, int, lambda v: v >= 1, ">= 1")
    default_reference = {
        "csr-population": CSR_REFERENCE_RADIUS,
        "fixed-area-grid": FIXED_AREA_REFERENCE_RADIUS,
        "centroid": FIXED_AREA_REFERENCE_RADIUS / k,
    }[kind]

    fractions = _get(
        s, "grid", "fractions", DEFAULT_THETA_GRID, _parse_fractions,
        lambda fs: all(0.0 <= f <= 1.0 for f in fs) and list(fs) == sorted(set(fs)),
        "fractions must be strictly ascending within [0, 1]",
    )
    facility_x = _get(s, "population", "facility_x", 0.0, float, math.isfinite, "finite")
    facility_y = _get(s, "population", "facility_y", 0.0, float, math.isfinite, "finite")
    facility = Point(facility_x, facility_y)
    if not UNIT_SQUARE.contains(facility):
        raise ConfigError(f"[population] facility ({facility_x}, {facility_y}) lies outside the study area")

    try:
        mask = MaskSpec(
            mechanism=_get(s, "mask", "mechanism", "uniform", str, lambda v: v in MECHANISMS,
                           f"one of {MECHANISMS}"),
            boundary=_get(s, "mask", "boundary", "unconstrained", str, lambda v: v in BOUNDARY_POLICIES,
                          f"one of {BOUNDARY_POLICIES}"),
            max_attempts=_get(s, "mask", "max_attempts", 1000, int, lambda v: v >= 1, ">= 1"),
        )
        return ExperimentConfig(
            experiment=kind,
            n=_get(s, "population", "n", 1000, int, lambda v: v >= 1, ">= 1"),
            replications=_get(s, "experiment", "replications", DEFAULT_REPLICATIONS, int,
                              lambda v: v >= 1, ">= 1"),
            theta_grid=fractions,
            reference_radius=_get(s, "grid", "reference_radius", default_reference, float,
                                  lambda v: v > 0.0 and math.isfinite(v), "> 0"),
            generating_params=LogitParams(
                alpha=_get(s, "population", "alpha", 1.0, float, math.isfinite, "finite"),
                beta=_get(s, "population", "beta", -2.0, float, math.isfinite, "finite"),
            ),
            mask=mask,
            seed=_get(s, "experiment", "seed", 0, int, lambda v: 0 <= v < 2**64,
                      "64-bit unsigned"),
            workers=_get(s, "experiment", "workers", 1, int, lambda v: v >= 1, ">= 1"),
            grid_k=k,
            facility=facility,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_run_options(path: str | Path) -> RunOptions:
    """Load the [output] section (CLI writing options)."""
    s = _read_sections(path)
    return RunOptions(
        out_dir=_get(s, "output", "out_dir", "results", str),
        prefix=_get(s, "output", "prefix", "run", str),
        write_plots=_get(s, "output", "write_plots", True, _parse_bool),
    )


def serialize_config(config: ExperimentConfig, options: RunOptions = RunOptions()) -> str:
    """Canonical INI rendering: every field explicit, fixed order,
    shortest round-trip float formatting."""
    fac = config.facility
    lines = [
        "[experiment]",
        f"kind = {config.experiment}",
        f"seed = {config.seed}",
        f"replications = {config.replications}",
        f"workers = {config.workers}",
        "",
        "[population]",
        f"n = {config.n}",
        f"alpha = {config.generating_params.alpha!r}",
        f"beta = {config.generating_params.beta!r}",
        f"facility_x = {fac.x!r}",
        f"facility_y = {fac.y!r}",
        "",
        "[mask]",
        f"mechanism = {config.mask.mechanism}",
        f"boundary = {config.mask.boundary}",
        f"max_attempts = {config.mask.max_attempts}",
        "",
        "[grid]",
        f"fractions = {', '.join(repr(f) for f in config.theta_grid)}",
        f"reference_radius = {config.reference_radius!r}",
        f"k = {config.grid_k}",
        "",
        "[output]",
        f"out_dir = {options.out_dir}",
        f"prefix = {options.prefix}",
        f"write_plots = {'true' if options.write_plots else 'false'}",
        "",
    ]
    return "\n".join(lines)


def config_hash(config: ExperimentConfig, options: RunOptions = RunOptions()) -> str:
    """SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_config(config, options).encode("utf-8")).hexdigest()
