"""Report JSON with columnar scan points; CSV tables with one schema per
table and empty cells for absent values."""

import json
import math

import numpy as np
import pytest

from hombench import ScanPoint, default_config
from hombench import reporting


def _nested(value):
    """`value` as a bare scalar, in a flat list, and deep in a report."""
    return [value, [1, value], {"data": {"points": {"delay_ps": [1.0, value]}}},
            {"rows": [{"a": 1.0}, {"b": value}]}, {"x": [[value], {}]}]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_refused(bad):
    for tree in _nested(bad):
        with pytest.raises(ValueError, match="not JSON compliant"):
            reporting.report_json(tree)


def test_numpy_integers_are_refused():
    for tree in _nested(np.int64(3)):
        with pytest.raises(TypeError, match="not JSON serializable"):
            reporting.report_json(tree)


def _report(value):
    points = [ScanPoint(-1.5, 1000, 5, 20, 30), ScanPoint(0.25, 2000, 6, 21, 31)]
    data = {"points": reporting.points_to_columns(points),
            "repeat_stats": [(5.5, 0.5), (6.0, 1.0)], "value": value}
    return reporting.build_report("dip-scan", default_config(), 5, data,
                                  {"visibility_budget": 0.8}, 0.25)


def test_write_report_writes_the_report_json_text(tmp_path):
    path = tmp_path / "report.json"
    reporting.write_report(_report("é"), path)
    assert path.read_bytes() == reporting.report_json(_report("é")).encode("ascii")


def test_unencodable_report_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        reporting.write_report(_report(math.nan), path)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []  # nor a temporary file


def test_numpy_integer_report_leaves_no_file(tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        reporting.write_report(_report(np.int64(3)), tmp_path / "report.json")
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_earlier_report(tmp_path):
    # The NaN sits after "config" and "data.points" in sorted order, so
    # part of the report has been streamed when the encoder fails.
    path = tmp_path / "report.json"
    reporting.write_report(_report(1.0), path)
    earlier = path.read_bytes()
    with pytest.raises(ValueError, match="not JSON compliant"):
        reporting.write_report(_report(math.nan), path)
    assert path.read_bytes() == earlier
    assert list(tmp_path.iterdir()) == [path]


def test_sweep_row_without_a_fit_leaves_its_estimates_empty():
    row = {"pairs_per_pulse": 0.01, "visibility_predicted": 0.9, "converged": None}
    lines = reporting.sweep_csv([row]).splitlines()
    assert lines == [
        "pairs_per_pulse,visibility_fit,visibility_err,sigma_fit_ps,"
        "sigma_err_ps,visibility_predicted,converged",
        "0.01,,,,,0.9,",
    ]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_point_is_refused(bad):
    with pytest.raises(ValueError, match="non-finite"):
        reporting.points_csv([ScanPoint(bad, 10, 1, 2, 3)])


def test_car_offsets_start_with_the_matched_count():
    assert reporting.car_offsets_csv(7, [1, 0]) == (
        "offset_gates,coincidences\n0,7\n1,1\n2,0\n"
    )


def test_table_none_is_an_empty_cell():
    rows = [("a", None, True), ("b", 0.5, None)]
    text = reporting.table_csv(("name", "x", "flag"), rows)
    assert text == "name,x,flag\na,,True\nb,0.5,\n"


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_table_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError, match="non-finite"):
        reporting.table_csv(("name", "x"), [("a", bad)])


@pytest.mark.parametrize("stats", [None, [(2.5, 0.5), (3.0, 1.0)]])
def test_points_round_trip_keeps_every_column(tmp_path, stats):
    # Distinct values per column, so a swapped column cannot round-trip.
    points = [ScanPoint(-1.5, 1000, 5, 20, 30), ScanPoint(0.25, 2000, 6, 21, 31)]
    path = tmp_path / "points.csv"
    path.write_text(reporting.points_csv(points, repeat_stats=stats))
    assert reporting.read_points_csv(path) == points
    assert reporting.points_to_columns(points) == {
        "delay_ps": [-1.5, 0.25], "gates": [1000, 2000], "coincidences": [5, 6],
        "singles_a": [20, 21], "singles_b": [30, 31],
    }


@pytest.mark.parametrize("cell", ["inf", "1e400", "nan", "many", "50.9", "-100"])
def test_unreadable_count_is_a_bad_row(tmp_path, cell):
    path = tmp_path / "points.csv"
    path.write_text(
        "delay_ps,gates,singles_a,singles_b,coincidences\n"
        f"0.0,{cell},1,2,3\n"
    )
    with pytest.raises(ValueError, match="bad row at line 2"):
        reporting.read_points_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_delay_is_a_bad_row(tmp_path, cell):
    # points_csv refuses to write such a point, so it is no input either.
    path = tmp_path / "points.csv"
    path.write_text(
        "delay_ps,gates,singles_a,singles_b,coincidences\n"
        f"{cell},10,1,2,3\n"
    )
    with pytest.raises(ValueError, match="bad row at line 2: delay_ps"):
        reporting.read_points_csv(path)


@pytest.mark.parametrize("row", [
    "10,0,0,50",  # more coincidences than singles
    "100,60,40,50",  # more than the smaller singles count
    "10,11,5,0",  # more singles than gates
])
def test_contradictory_counts_are_a_bad_row(tmp_path, row):
    path = tmp_path / "points.csv"
    header = ",".join(reporting.POINT_COLUMNS)
    path.write_text(f"{header}\n1.5,10,10,10,10\n0.0,{row}\n")
    with pytest.raises(ValueError, match="bad row at line 3: need coincidences"):
        reporting.read_points_csv(path)


@pytest.mark.parametrize("column", reporting.POINT_COLUMNS[1:])
def test_every_count_column_holds_a_whole_number(tmp_path, column):
    path = tmp_path / "points.csv"
    header = ",".join(reporting.POINT_COLUMNS)
    for cell in ("-40", "10.99"):
        cells = {"delay_ps": "0.0", "gates": "100", "singles_a": "1",
                 "singles_b": "2", "coincidences": "3", column: cell}
        row = ",".join(cells[c] for c in reporting.POINT_COLUMNS)
        path.write_text(f"{header}\n1.5,1e6,20.0,30,5\n{row}\n")
        with pytest.raises(ValueError, match=f"bad row at line 3: .*{column}"):
            reporting.read_points_csv(path)
    # Whole numbers in float notation are counts.
    path.write_text(f"{header}\n1.5,1e6,20.0,30,5\n")
    assert reporting.read_points_csv(path)[0].gates == 1_000_000
