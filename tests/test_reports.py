import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomasksim.efficiency import EfficiencyReport
from geomasksim.experiments import RECORD_COLUMNS, AttenuationCurve, CurveRow, ReplicationRecord, build_curve
from geomasksim.reports import (
    CURVE_HEADER,
    EFFICIENCY_HEADER,
    RECORDS_HEADER,
    _format_column,
    read_curve_csv,
    read_points_csv,
    read_records_csv,
    write_curve_csv,
    write_efficiency_csv,
    write_manifest,
    write_points_csv,
    write_records_csv,
)


def _columns(cells, reps, failed=()):
    """Record columns shaped (cells, reps); the (cell, rep) pairs in
    ``failed`` are failed rows (nan estimates, not converged)."""
    shape = (cells, reps)
    cols = {
        "alpha_hat": np.full(shape, 1.0123456789012345),
        "beta_hat": np.full(shape, -1.987654321012345),
        "se_beta": np.full(shape, 0.098765432101234567),
        "converged": np.ones(shape, dtype=bool),
        "iterations": np.full(shape, 6),
        "significant_beta": np.ones(shape, dtype=bool),
        "outside_true_ci": np.zeros(shape, dtype=bool),
    }
    for cell in failed:
        for name in ("alpha_hat", "beta_hat", "se_beta"):
            cols[name][cell] = math.nan
        for name in ("converged", "significant_beta"):
            cols[name][cell] = False
        cols["iterations"][cell] = 0
    return cols


def _row(theta, **kw):
    base = dict(
        theta_star=theta,
        mean_abs_beta=1.9,
        sd_beta=0.1,
        pct_outside_true_ci=20.0,
        pct_nonsignificant=5.0,
        convergence_rate=1.0,
    )
    base.update(kw)
    return CurveRow(**base)


def _report(theta, el=0.9):
    return EfficiencyReport(
        theta_star=theta,
        info_true=50.0,
        info_masked_analytic=50.0 / el,
        el_analytic=el,
        el_empirical=None if theta == 0.3 else 0.87,
    )


# --- records ---


def test_records_roundtrip_bit_exact(tmp_path):
    cols = _columns(2, 3, failed=[(1, 0)])
    path = write_records_csv((0.1, 0.2), cols, tmp_path / "r.csv")
    back = read_records_csv(path)
    assert len(back) == 6
    for b in back:
        c = round(b.theta_star * 10) - 1
        want = [cols[name][c, b.rep].item() for name in RECORD_COLUMNS]
        got = [getattr(b, name) for name in RECORD_COLUMNS]
        assert got == want or (c, b.rep) == (1, 0)
    failed = back[3]
    assert (failed.theta_star, failed.rep, failed.converged, failed.iterations) == (0.2, 0, False, 0)
    assert math.isnan(failed.alpha_hat) and math.isnan(failed.beta_hat) and math.isnan(failed.se_beta)
    assert not failed.significant_beta and not failed.outside_true_ci


def test_records_written_in_column_order(tmp_path):
    path = write_records_csv((0.1, 0.2), _columns(2, 3), tmp_path / "r.csv")
    back = read_records_csv(path)
    assert [(r.theta_star, r.rep) for r in back] == [(t, rep) for t in (0.1, 0.2) for rep in range(3)]


def test_records_csv_layout(tmp_path):
    path = write_records_csv((0.1,), _columns(1, 1), tmp_path / "r.csv")
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == 2  # header + one record
    assert lines[0] == ",".join(RECORDS_HEADER)
    assert text.endswith("\n")
    assert lines[1] == "0.10000000000000001,0,1.0123456789012344,-1.987654321012345,0.098765432101234563,true,6,true,false"


def _field(value) -> str:
    """The CSV field of one value, as the reports module documents it: the
    per-value oracle for the column-at-a-time formatter."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def test_column_formatter_matches_a_per_value_oracle(tmp_path):
    # each column formatted once by its dtype gives the bytes of the oracle
    # applied to every value of every row, extreme floats and iteration
    # counts included
    cols = _columns(2, 6, failed=[(1, 2)])
    cols["alpha_hat"][0] = [math.nan, -0.0, 5e-324, 1.7976931348623157e308, -5e-324, math.inf]
    cols["beta_hat"][1] = [-math.inf, 0.0, -1.7976931348623157e308, 2.0**-1074, 1e16, 0.1]
    cols["iterations"][0] = [0, 1, 2**62, np.iinfo(np.int64).max, 7, 0]
    cols["converged"][0, ::2] = False
    for name in RECORD_COLUMNS:
        for column in cols[name]:
            assert _format_column(column) == [_field(v) for v in column.tolist()], name
    thetas = (0.0, 0.70710678118654757)
    rows = (
        (theta, rep) + tuple(cols[name][c, rep].item() for name in RECORD_COLUMNS)
        for c, theta in enumerate(thetas)
        for rep in range(6)
    )
    lines = [RECORDS_HEADER, *(map(_field, row) for row in rows)]
    want = "".join(",".join(fields) + "\n" for fields in lines).encode()
    assert write_records_csv(thetas, cols, tmp_path / "columns.csv").read_bytes() == want
    fields = [line.split(",") for line in want.decode().splitlines()[1:7]]
    assert [f[2] for f in fields] == [
        "nan", "-0", "4.9406564584124654e-324", "1.7976931348623157e+308", "-4.9406564584124654e-324", "inf",
    ]
    assert [f[6] for f in fields] == ["0", "1", str(2**62), "9223372036854775807", "7", "0"]


def test_records_empty_error(tmp_path):
    with pytest.raises(ValueError):
        write_records_csv((), _columns(0, 1), tmp_path / "r.csv")


def test_records_header_mismatch(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("alpha,beta\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_records_csv(p)


@pytest.mark.parametrize("change", ["short", "long"])
def test_records_and_curve_reject_rows_with_the_wrong_field_count(tmp_path, change):
    records = write_records_csv((0.1,), _columns(1, 2), tmp_path / "r.csv")
    curve = write_curve_csv(AttenuationCurve(rows=(_row(0.1), _row(0.2))), tmp_path / "c.csv")
    for path, read in ((records, read_records_csv), (curve, read_curve_csv)):
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] if change == "short" else lines[2] + ",1"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = len(lines[2].split(","))
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected {got + (1 if change == 'short' else -1)} fields, got {got}")):
            read(path)


def test_records_row_count_scales(tmp_path):
    path = write_records_csv(tuple(t / 10 for t in range(1, 11)), _columns(10, 100), tmp_path / "big.csv")
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1001


# --- schemas ---


@pytest.mark.parametrize(
    "header, cls",
    [(RECORDS_HEADER, ReplicationRecord), (CURVE_HEADER, CurveRow), (EFFICIENCY_HEADER, EfficiencyReport)],
    ids=["records", "curve", "efficiency"],
)
def test_each_csv_header_is_its_row_dataclass_fields(header, cls):
    assert header == tuple(f.name for f in dataclasses.fields(cls))


# --- curve ---


def test_curve_roundtrip_with_reports(tmp_path):
    # build_curve copies each cell's efficiency loss into its row; every
    # field reads back, and the empty el_empirical cell as None
    curve = build_curve((0.0, 0.3), _columns(2, 3), [_report(0.0, el=1.0), _report(0.3, el=0.8)])
    assert [(r.el_analytic, r.el_empirical) for r in curve.rows] == [(1.0, 0.87), (0.8, None)]
    path = write_curve_csv(curve, tmp_path / "c.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CURVE_HEADER)
    assert len(lines) == 3
    assert lines[2].split(",")[6:] == ["0.80000000000000004", ""]
    assert read_curve_csv(path) == curve


def test_curve_without_reports_leaves_el_columns_empty(tmp_path):
    curve = AttenuationCurve(rows=(_row(0.1),))
    path = write_curve_csv(curve, tmp_path / "c.csv")
    cells = path.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert cells[6:] == ["", ""]
    assert read_curve_csv(path) == curve
    assert (curve.rows[0].el_analytic, curve.rows[0].el_empirical) == (None, None)


# --- efficiency ---


def test_efficiency_csv_layout(tmp_path):
    reports = [_report(0.4, el=0.7), _report(0.0, el=1.0)]
    path = write_efficiency_csv(reports, tmp_path / "e.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(EFFICIENCY_HEADER)
    # sorted by theta*
    assert lines[1].startswith("0,") and lines[2].startswith("0.4")
    with pytest.raises(ValueError):
        write_efficiency_csv([], tmp_path / "e2.csv")


# --- points ---


def test_points_roundtrip_with_choices(tmp_path):
    xy = np.array([[0.123456789012345678, -0.4], [0.25, 0.5]])
    choices = np.array([1, 0])
    path = write_points_csv(xy, tmp_path / "p.csv", choices=choices)
    ids, xy2, c2 = read_points_csv(path)
    np.testing.assert_array_equal(ids, [0, 1])
    np.testing.assert_array_equal(xy2, xy)  # %.17g round-trips float64 exactly
    np.testing.assert_array_equal(c2, choices)
    # boolean choices are written as 0/1 too
    flags = write_points_csv(xy, tmp_path / "b.csv", choices=choices.astype(bool))
    assert flags.read_bytes() == path.read_bytes()


def test_points_roundtrip_without_choices(tmp_path):
    xy = np.array([[0.1, 0.2]])
    path = write_points_csv(xy, tmp_path / "p.csv", ids=np.array([7]))
    ids, xy2, c2 = read_points_csv(path)
    assert ids[0] == 7 and c2 is None
    np.testing.assert_array_equal(xy2, xy)


def test_points_blank_lines_skipped(tmp_path):
    xy = np.array([[0.1, 0.2], [0.3, 0.4]])
    path = write_points_csv(xy, tmp_path / "p.csv", choices=np.array([1, 0]))
    header, first, second = path.read_text(encoding="utf-8").splitlines()
    path.write_text(f"{header}\n\n{first}\n\n{second}\n\n", encoding="utf-8")
    ids, xy2, c2 = read_points_csv(path)
    np.testing.assert_array_equal(ids, [0, 1])
    np.testing.assert_array_equal(xy2, xy)
    np.testing.assert_array_equal(c2, [1, 0])


def test_points_validation(tmp_path):
    with pytest.raises(ValueError):
        write_points_csv(np.zeros((2, 3)), tmp_path / "p.csv")
    with pytest.raises(ValueError):
        write_points_csv(np.zeros((2, 2)), tmp_path / "p.csv", choices=np.array([1]))
    with pytest.raises(ValueError):
        write_points_csv(np.zeros((2, 2)), tmp_path / "p.csv", ids=np.array([1]))


def test_points_read_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("x,y\n0.1,0.2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_points_csv(bad_header)

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        read_points_csv(empty)

    no_rows = tmp_path / "norows.csv"
    no_rows.write_text("id,x,y\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data"):
        read_points_csv(no_rows)

    bad_choice = tmp_path / "c.csv"
    bad_choice.write_text("id,x,y,choice\n0,0.1,0.2,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="choice"):
        read_points_csv(bad_choice)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("id,x,y\n0,0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{ragged}:2: expected 3 fields, got 2")):
        read_points_csv(ragged)

    for i, (x, y) in enumerate((("nan", "0.2"), ("0.1", "inf"), ("-inf", "0.2"))):
        nonfinite = tmp_path / f"nonfinite{i}.csv"
        nonfinite.write_text(f"id,x,y\n0,0.1,0.2\n1,{x},{y}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{nonfinite}:3: coordinates must be finite")):
            read_points_csv(nonfinite)


# --- formatting ---


def test_format_column_special_values():
    assert _format_column([0.5, None]) == ["0.5", ""]
    assert _format_column([None]) == [""]
    assert _format_column([True, False]) == ["true", "false"]
    assert _format_column(np.array([True])) == ["true"]
    assert _format_column([7]) == ["7"] and _format_column(np.array([7], dtype=np.int64)) == ["7"]
    assert _format_column([0.1]) == ["0.10000000000000001"]


@settings(derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_format_column_floats_roundtrip(xs):
    assert [float(field) for field in _format_column(xs)] == xs


# --- manifest ---


def test_manifest_roundtrip(tmp_path):
    m = {
        "config_hash": "ab" * 32,
        "seed": 42,
        "version": "0.1.0",
        "started_at": "2026-08-26T10:00:00+00:00",
        "finished_at": "2026-08-26T10:05:00+00:00",
        "outputs": ["run_records.csv", "run_curve.csv"],
    }
    path = write_manifest(m, tmp_path / "m.json")
    data = json.loads(path.read_text(encoding="utf-8"))
    assert list(data.items()) == list(m.items())
    assert path.read_text(encoding="utf-8").endswith("\n")
