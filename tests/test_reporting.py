"""CSV tables: one schema per table, empty cells for absent values."""

import math

import pytest

from hombench import ScanPoint
from hombench import reporting


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
    assert [reporting.point_to_dict(pt) for pt in points][0] == {
        "delay_ps": -1.5, "gates": 1000, "coincidences": 5,
        "singles_a": 20, "singles_b": 30,
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
