"""Run reports (versioned JSON) and plot-ready CSV tables.

A report is self-contained: it embeds the full config snapshot plus the
seed, so re-running the tool with those reproduces the counts exactly.
JSON is written with sorted keys and a fixed indent; apart from the
`wall_seconds` field the bytes are a pure function of config, seed, and
code version. CSV output is locale-independent ('.' decimal separator,
',' field separator) with one stable column schema for point data:

    delay_ps,gates,singles_a,singles_b,coincidences[,mean,stddev]

where the two optional columns carry per-point statistics across repeated
scans (mean and sample standard deviation of the coincidence counts; the
count columns then hold totals across repeats).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ._version import __version__
from .configio import config_to_schema_dict
from .fitting import FitResult
from .model import ExperimentConfig
from .simulate import ScanPoint

SCHEMA_VERSION = 1
TOOL_NAME = "hombench"

POINT_COLUMNS = ("delay_ps", "gates", "singles_a", "singles_b", "coincidences")
REPEAT_COLUMNS = POINT_COLUMNS + ("mean", "stddev")


def defined(value: float) -> float | None:
    """NaN (an undefined estimate) as None: null in JSON, an empty CSV cell."""
    return None if math.isnan(value) else float(value)


def fit_to_dict(fit: FitResult) -> dict[str, Any]:
    return {
        **{name: estimate for name, estimate, _ in fit.parameters},
        "std_errors": [defined(e) for e in fit.std_errors],
        "covariance": [[defined(v) for v in row] for row in fit.covariance],
        "chi_squared": fit.chi_squared,
        "dof": fit.dof,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "degenerate": fit.degenerate,
        "message": fit.message,
    }


def point_to_dict(point: ScanPoint) -> dict[str, Any]:
    return {column: getattr(point, column) for column in POINT_COLUMNS}


def build_report(
    kind: str,
    config: ExperimentConfig,
    seed: int | None,
    data: Mapping[str, Any],
    analytic: Mapping[str, Any],
    wall_seconds: float,
) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "kind": kind,
        "seed": seed,
        "config": config_to_schema_dict(config),
        "analytic": dict(analytic),
        "data": dict(data),
        "wall_seconds": wall_seconds,
    }


def report_json(report: Mapping[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(report: Mapping[str, Any], path: str | Path) -> None:
    Path(path).write_text(report_json(report))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value in CSV output: {value!r}")
        return repr(value)
    return str(value)


def table_csv(columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Header line, then one line per row; None is written as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if cell is None else _fmt(cell) for cell in row])
    return buf.getvalue()


def points_csv(
    points: Sequence[ScanPoint],
    repeat_stats: Sequence[tuple[float, float]] | None = None,
) -> str:
    """Render scan points in the stable point-data schema.

    `repeat_stats`, when given, must align with `points` and supplies the
    (mean, stddev) pair of per-repeat coincidence counts for each point.
    """
    if repeat_stats is not None and len(repeat_stats) != len(points):
        raise ValueError("repeat_stats length must match points")
    rows = [list(point_to_dict(pt).values()) for pt in points]
    if repeat_stats is None:
        return table_csv(POINT_COLUMNS, rows)
    for row, (mean, stddev) in zip(rows, repeat_stats):
        row += [float(mean), float(stddev)]
    return table_csv(REPEAT_COLUMNS, rows)


def read_points_csv(path: str | Path) -> list[ScanPoint]:
    """Read point data back; accepts the 5- or 7-column schema.

    Used by the `fit` subcommand, so external data only needs the five
    required columns (extras beyond the schema are rejected to catch
    header typos). Delays must be finite, counts whole numbers >= 0.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        missing = [c for c in POINT_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns: {', '.join(missing)}")
        extra = [c for c in reader.fieldnames if c not in REPEAT_COLUMNS]
        if extra:
            raise ValueError(f"{path}: unknown columns: {', '.join(extra)}")
        points = []
        for line, row in enumerate(reader, start=2):
            try:
                cells = {c: float(row[c]) for c in POINT_COLUMNS}
                if not math.isfinite(cells["delay_ps"]):
                    raise ValueError(f"delay_ps is not finite: {row['delay_ps']!r}")
                counts = {c: int(v) for c, v in cells.items() if c != "delay_ps"}
                bad = [c for c, n in counts.items() if n != cells[c] or n < 0]
                if bad:
                    raise ValueError(f"not a whole number >= 0: {', '.join(bad)}")
                points.append(ScanPoint(delay_ps=cells["delay_ps"], **counts))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: bad row at line {line}: {exc}") from exc
    if not points:
        raise ValueError(f"{path}: no data rows")
    return points


def sweep_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """Summary table of a pair-rate sweep, one row per operating point.

    Rows whose fit failed leave the estimate columns empty; the analytic
    prediction column is always present for overlay plots.
    """
    columns = (
        "pairs_per_pulse",
        "visibility_fit",
        "visibility_err",
        "sigma_fit_ps",
        "sigma_err_ps",
        "visibility_predicted",
        "converged",
    )
    return table_csv(columns, [[row.get(c) for c in columns] for row in rows])


def car_offsets_csv(matched: int, unmatched: Sequence[int]) -> str:
    """Slot histogram: offset 0 is the same-gate (matched) count."""
    return table_csv(("offset_gates", "coincidences"), enumerate([matched, *unmatched]))
