"""Config-file parsing, canonical serialization, and config hashing.

The format is INI with five sections:

    [experiment]  kind, seed, replications, workers
    [population]  n, alpha, beta, facility_x, facility_y
    [mask]        mechanism, boundary, max_attempts
    [grid]        fractions, reference_radius, k
    [output]      out_dir, prefix, write_plots

Only ``[experiment] kind`` is required. Every other key sets one field of
``ExperimentConfig`` (or, for ``[experiment] workers`` and [output], of
``RunOptions``) and defaults to that field's default. A file without
``reference_radius`` gets the kind's default, which ``ExperimentConfig``
resolves, so a file and the library give one kind the same default; a
centroid config always masks at its k's cell. A value that no run of the
config reads takes its default there too: ``k`` outside the centroid kind
and ``max_attempts`` outside the redraw policy, so that such a value moves
neither the config nor its hash.

This module only parses: it reads the text, converts each value and sets
the field its key names. Validation lives in the dataclasses
(``ExperimentConfig``, ``MaskSpec``, ``LogitParams``, ``Point``,
``RunOptions``), so a config file rejects exactly what they reject. Keys
are set one at a time on a value that is already valid, so a value that
fails to convert or that a dataclass rejects raises a ``ValueError``
naming its ``[section] key``. Unknown sections or keys and duplicate keys
are ValueErrors too, as is a missing file, so ``cli`` exits 1 on every
config error.

Two key tables (``_CONFIG_KEYS``, ``_RUN_OPTION_KEYS``: section, key,
converter, field) drive the parsing. ``serialize_config`` walks
``_CONFIG_KEYS`` and writes every field with the inverse of its key's
converter, giving a canonical rendering (fixed section and key order,
shortest round-trip floats) such that parse -> serialize -> parse is a
fixed point; the run manifest's config hash is the SHA-256 of that
canonical text. Run options move no output bit, so they are neither
serialized nor hashed.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .experiments import ExperimentConfig


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


@dataclass(frozen=True)
class RunOptions:
    """How and where a run goes: its worker count and the [output] section.
    None of it changes the outputs' bits."""

    workers: int = 1
    out_dir: str = "results"
    prefix: str = "run"
    write_plots: bool = True

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def _parse_bool(raw: str) -> bool:
    v = _BOOL.get(raw.strip().lower())
    if v is None:
        raise ValueError(f"expected a boolean (true/false), got {raw!r}")
    return v


def _parse_fractions(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",") if p.strip())


# (section, key, converter, field it sets): "a.b" is field b of field a.
# [experiment] kind is not listed: it is required and builds the config.
_CONFIG_KEYS = (
    ("experiment", "seed", int, "seed"),
    ("experiment", "replications", int, "replications"),
    ("population", "n", int, "n"),
    ("population", "alpha", float, "generating_params.alpha"),
    ("population", "beta", float, "generating_params.beta"),
    ("population", "facility_x", float, "facility.x"),
    ("population", "facility_y", float, "facility.y"),
    ("mask", "mechanism", str, "mask.mechanism"),
    ("mask", "boundary", str, "mask.boundary"),
    ("mask", "max_attempts", int, "mask.max_attempts"),
    ("grid", "fractions", _parse_fractions, "theta_grid"),
    ("grid", "reference_radius", float, "reference_radius"),
    ("grid", "k", int, "grid_k"),
)
_RUN_OPTION_KEYS = (
    ("experiment", "workers", int, "workers"),
    ("output", "out_dir", str, "out_dir"),
    ("output", "prefix", str, "prefix"),
    ("output", "write_plots", _parse_bool, "write_plots"),
)
# The text of a value for each converter that ``str`` does not invert.
_UNPARSE = {_parse_fractions: lambda fractions: ", ".join(map(str, fractions))}
_KEYS = {("experiment", "kind")} | {(section, key) for section, key, _, _ in _CONFIG_KEYS + _RUN_OPTION_KEYS}
_SECTIONS = sorted({section for section, _ in _KEYS})


def _read_sections(path: str | Path) -> dict[str, dict[str, str]]:
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        strict=True, interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed config {path}: {exc}") from exc

    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown section [{section}] (expected one of {_SECTIONS})")
        for key in parser[section]:
            if (section, key) not in _KEYS:
                expected = sorted(k for s, k in _KEYS if s == section)
                raise ValueError(f"unknown key {key!r} in [{section}] (expected one of {expected})")
        sections[section] = dict(parser[section])
    return sections


@contextmanager
def _naming(section: str, key: str):
    """Raise a ValueError from the block again as one that names
    ``[section] key``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"[{section}] {key}: {exc}") from exc


def _with_field(obj, field: str, value):
    """A copy of the dataclass ``obj`` with ``field`` ("a.b": field b of
    field a) set to ``value``; each dataclass on the way validates it."""
    name, _, rest = field.partition(".")
    return replace(obj, **{name: _with_field(getattr(obj, name), rest, value) if rest else value})


def _apply(sections: dict[str, dict[str, str]], obj, keys):
    """``obj`` with every key of ``keys`` that the file sets applied in turn.
    Each key is set on a value that is already valid, so a rejection names
    the key it belongs to."""
    for section, key, convert, field in keys:
        raw = sections.get(section, {}).get(key)
        if raw is not None:
            with _naming(section, key):
                obj = _with_field(obj, field, convert(raw))
    return obj


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load a config file into an ExperimentConfig."""
    s = _read_sections(path)
    kind = s.get("experiment", {}).get("kind")
    if kind is None:
        raise ValueError("[experiment] kind is required")
    with _naming("experiment", "kind"):
        config = ExperimentConfig(experiment=kind)
    return _apply(s, config, _CONFIG_KEYS)


def parse_run_options(path: str | Path) -> RunOptions:
    """Load the run options: ``[experiment] workers`` and the [output] section."""
    return _apply(_read_sections(path), RunOptions(), _RUN_OPTION_KEYS)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical INI rendering: every key of ``_CONFIG_KEYS`` in its order,
    each value written by the inverse of its key's converter."""
    section, lines = "experiment", ["[experiment]", f"kind = {config.experiment}"]
    for key_section, key, convert, field in _CONFIG_KEYS:
        if key_section != section:
            section = key_section
            lines += ["", f"[{section}]"]
        value = functools.reduce(getattr, field.split("."), config)  # "a.b": field b of field a
        lines.append(f"{key} = {_UNPARSE.get(convert, str)(value)}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()
