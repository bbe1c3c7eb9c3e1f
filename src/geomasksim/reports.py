"""CSV and JSON emission, CSV ingestion and the run manifest.

All emissions are deterministic for a fixed (seed, config, version). Every
CSV writer builds its columns and formats each whole through one formatter,
``_format_column``: floats with 17 significant digits (enough to read any
IEEE double back exactly; a failed fit's estimates as ``nan``), booleans as
``true``/``false``, ints in decimal and missing values as empty cells. Rows
are in ascending theta* (records: then by rep); files end with a trailing
newline and are UTF-8. Every reader goes through ``_read_rows``, which
rejects a file whose header or field count on a row differs from its schema;
every reader error names the file, and the line of a row it cannot read.

Schemas (each CSV's columns are the fields of its row dataclass, in order,
and its writer and reader are derived from that one list):

    records:    the fields of ReplicationRecord (written from the run's
                (cells, replications) columns, read back as rows)
    curve:      the fields of CurveRow (el_* empty without efficiency reports)
    efficiency: the fields of EfficiencyReport
    points:     id,x,y[,choice]

The baseline fit and the run manifest are JSON objects, each written by
``write_json``. Every output file, the SVG plots included, is written by
``write_text``.
"""

from __future__ import annotations

import csv
import json
import math
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from .efficiency import EfficiencyReport
from .experiments import RECORD_COLUMNS, AttenuationCurve, CurveRow, ReplicationRecord


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


RECORDS_HEADER = _names(ReplicationRecord)
EFFICIENCY_HEADER = _names(EfficiencyReport)
CURVE_HEADER = _names(CurveRow)
POINTS_HEADER = ("id", "x", "y")  # and an optional "choice" column


def _format_column(values) -> list[str]:
    """The CSV field of every value of a 1-d column, the format chosen once
    by its dtype: ``true``/``false`` for bools, ``str`` for ints, ``.17g``
    for floats, and an empty cell for a missing (None) value."""
    values = np.asarray(values)
    if values.dtype == np.bool_:
        return np.where(values, "true", "false").tolist()
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return ["" if v is None else format(v, ".17g") for v in values.tolist()]


def write_text(text: str, path: str | Path) -> Path:
    """``text`` to ``path`` as UTF-8, its ``\\n`` line ends as they are,
    after creating the parent directory: the one writer of every output file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))
    return path


def _write_csv(path: str | Path, header: tuple[str, ...], blocks) -> Path:
    """``header`` and then the rows of each block: a block is one list of
    fields per column, as ``_format_column`` gives them. No formatted
    number, flag or empty cell holds a comma, quote or newline, so the
    fields are joined as ``csv.writer`` would write them, unquoted."""
    rows = (",".join(row) + "\n" for columns in blocks for row in zip(*columns))
    return write_text(",".join(header) + "\n" + "".join(rows), path)


def _format_fields(rows, names: tuple[str, ...]) -> list[list[str]]:
    """Each named field of ``rows`` as one formatted column."""
    return [_format_column([getattr(row, name) for row in rows]) for name in names]


def write_records_csv(theta_stars: tuple[float, ...], columns: dict[str, np.ndarray], path: str | Path) -> Path:
    """One row per (cell, replication) of the ``RECORD_COLUMNS``, each shaped
    (cells, replications) with cell c at ``theta_stars[c]``; rows follow
    the columns' order, one block of rows per cell. The theta* and rep
    fields are formatted once and repeated in every cell."""
    if not theta_stars:
        raise ValueError("no records to write")
    reps = _format_column(range(columns[RECORD_COLUMNS[0]].shape[1]))
    blocks = (
        [[theta_star] * len(reps), reps, *(_format_column(columns[name][c]) for name in RECORD_COLUMNS)]
        for c, theta_star in enumerate(_format_column(theta_stars))
    )
    return _write_csv(path, RECORDS_HEADER, blocks)


def read_records_csv(path: str | Path) -> list[ReplicationRecord]:
    return _read_rows(path, _converter(ReplicationRecord), RECORDS_HEADER)


def write_curve_csv(curve: AttenuationCurve, path: str | Path) -> Path:
    """One row per theta*, as ``build_curve`` made it."""
    return _write_csv(path, CURVE_HEADER, [_format_fields(curve.rows, CURVE_HEADER)])


def read_curve_csv(path: str | Path) -> AttenuationCurve:
    rows = tuple(_read_rows(path, _converter(CurveRow), CURVE_HEADER))
    try:
        return AttenuationCurve(rows=rows)
    except ValueError as exc:  # rows out of theta* order
        raise ValueError(f"{path}: {exc}") from exc


def write_efficiency_csv(reports: list[EfficiencyReport], path: str | Path) -> Path:
    if not reports:
        raise ValueError("no efficiency reports to write")
    rows = sorted(reports, key=lambda r: r.theta_star)
    return _write_csv(path, EFFICIENCY_HEADER, [_format_fields(rows, EFFICIENCY_HEADER)])


def write_points_csv(
    xy: np.ndarray,
    path: str | Path,
    choices: np.ndarray | None = None,
    ids: np.ndarray | None = None,
) -> Path:
    """Point dataset as id,x,y[,choice]; ids default to 0..n-1."""
    xy = np.asarray(xy, dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"xy must be (n, 2), got {xy.shape}")
    n = xy.shape[0]
    ids = np.arange(n) if ids is None else np.asarray(ids)
    if ids.shape != (n,):
        raise ValueError("ids length must match xy")
    header, columns = POINTS_HEADER, [ids.astype(np.int64), xy[:, 0], xy[:, 1]]
    if choices is not None:
        choices = np.asarray(choices)
        if choices.shape != (n,):
            raise ValueError("choices length must match xy")
        header, columns = header + ("choice",), columns + [choices.astype(np.int64)]
    return _write_csv(path, header, [list(map(_format_column, columns))])


def _point(row: dict[str, str]) -> tuple[int, float, float, int | None]:
    x, y = float(row["x"]), float(row["y"])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"coordinates must be finite, got ({row['x']}, {row['y']})")
    if "choice" not in row:
        return int(row["id"]), x, y, None
    c = int(row["choice"])
    if c not in (0, 1):
        raise ValueError(f"choice must be 0 or 1, got {row['choice']}")
    return int(row["id"]), x, y, c


def read_points_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (ids, xy, choices-or-None)."""
    rows = _read_rows(path, _point, POINTS_HEADER, POINTS_HEADER + ("choice",))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    ids, xs, ys, choices = zip(*rows)
    xy = np.column_stack([np.array(xs), np.array(ys)])
    return np.array(ids), xy, (None if choices[0] is None else np.array(choices, dtype=np.int64))


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


_PARSERS = {float: float, int: int, bool: _parse_bool, float | None: lambda raw: float(raw) if raw else None}


def _converter(cls):
    """The ``cls`` of a row dict keyed by the CSV header, each field parsed
    by its annotated type."""
    parsers = [(name, _PARSERS[kind]) for name, kind in typing.get_type_hints(cls).items()]
    return lambda row: cls(**{name: parse(row[name]) for name, parse in parsers})


def _read_rows(path: str | Path, convert, *headers: tuple[str, ...]) -> list:
    """``convert`` of each data row of a CSV whose header is one of
    ``headers``, the row given as a dict keyed by that header. Blank lines
    are skipped, any other row must have one field per column, and a
    ValueError from ``convert`` or a ``csv.Error`` (a field over csv's size
    limit, say) is raised again as a ValueError with the row's line: the
    physical line the row ends on, which counts the line breaks inside
    quoted fields."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            header = tuple(header)
            if header not in headers:
                raise ValueError(f"{path}: unexpected header {header}; expected {' or '.join(map(str, headers))}")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
                try:
                    rows.append(convert(dict(zip(header, row))))
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return rows


def write_json(payload: dict, path: str | Path) -> Path:
    """``payload`` as JSON indented by two spaces, with a trailing newline."""
    return write_text(json.dumps(payload, indent=2) + "\n", path)


def read_json(path: str | Path):
    """The JSON value in ``path``; one nested too deeply for the parser's
    recursion is a ValueError that names the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


write_manifest = write_json  # the run manifest's writer, under the name perfbench/tracer.py times
