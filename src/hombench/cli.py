"""Command-line harness around the analytic models and the Monte Carlo runs.

Subcommands: predict, calibrate, dip-scan, visibility-sweep, car, fit.
Every config field is overridable in three layers: built-in calibrated
defaults, then a JSON config file (--config, partial files allowed), then
individual flags; later layers win. `main` loads the config, runs the
subcommand, and writes its JSON run report and plot-ready CSVs into --out
in one envelope (kind, seed, config, analytic, data, wall time).

Exit codes: 0 success, 1 validation error (bad flags, bad config, an
infeasible calibration target), 2 runtime or statistics error (I/O,
insufficient counts), 3 when a fitting subcommand (dip-scan,
visibility-sweep, fit) has a fit that failed its preconditions (too few
points, no baseline leverage), did not converge, or is degenerate.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from . import configio, reporting
from ._version import __version__
from .analytics import (
    NoAccidentalsError,
    amplitude_overlap,
    budget_from_config,
    calibrate_eta,
    car_prediction,
    car_terms,
    indistinguishability,
    splitter_dip_factor,
    visibility_prediction,
)
from .exact import exact_visibility, gate_pattern_distribution
from .fitting import FitResult, fit_dip
from .model import ConfigError, ExperimentConfig, ScanPoint
from .simulate import (
    SAMPLERS,
    InsufficientStatisticsError,
    run_car,
    run_dip_scan,
    run_visibility_sweep,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_NO_CONVERGENCE = 3

# Flag name, schema key. Layering contract: flags beat the config file,
# the config file beats the built-in defaults.
_OVERRIDE_FLAGS = tuple(
    ("--" + key.replace("_", "-"), key) for key in configio.SCHEMA_KEYS
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """Whole number >= 1; scientific notation like 1e6 accepted."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value >= 1 and value == int(value)):
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1: {text!r}")
    return int(value)


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _pair_list(text: str) -> list[float]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise argparse.ArgumentTypeError("pair-rate list is empty")
    try:
        return [float(piece) for piece in items]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad pair-rate list: {text!r}")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict[str, float] = {}
    for _, key in _OVERRIDE_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    eta = getattr(args, "eta", None)
    if eta is not None:
        overrides.setdefault("eta_signal", eta)
        overrides.setdefault("eta_idler", eta)
    return configio.load_config(getattr(args, "config", None), overrides)


def _delay_grid(args: argparse.Namespace) -> list[float]:
    if args.delay_steps < 4:
        raise ValueError(
            f"--delay-steps must be >= 4 for a fittable scan (got {args.delay_steps})"
        )
    if not args.delay_max > args.delay_min:
        raise ValueError("--delay-max must exceed --delay-min")
    return np.linspace(args.delay_min, args.delay_max, args.delay_steps).tolist()


def _emit(
    args: argparse.Namespace, report: dict[str, Any], files: dict[str, str]
) -> None:
    """Write report.json and the CSVs as --format selects; other files always."""
    if args.out is None:
        return
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if args.format != "csv":
        path = out_dir / "report.json"
        reporting.write_report(report, path)
        written.append(path)
    for name, content in files.items():
        if args.format != "json" or not name.endswith(".csv"):
            path = out_dir / name
            path.write_text(content)
            written.append(path)
    for path in written:
        print(f"wrote {path}")


def _fit_and_print(
    points: list[ScanPoint], config: ExperimentConfig, fit_center: bool
) -> tuple[FitResult | None, str | None]:
    """Fit the dip and print its summary; (None, reason) on a failed precondition."""
    try:
        fit = fit_dip(points, config.splitter, fit_center=fit_center)
    except ValueError as exc:
        print(f"fit failed: {exc}")
        return None, str(exc)
    for name, est, err in fit.parameters:
        digits = 3 if name == "baseline" else 4
        print(f"{name:<12}{est:.{digits}f} +/- {err:.{digits}f}")
    print(f"chi2/dof    {fit.chi_squared:.2f}/{fit.dof}"
          f"   converged={fit.converged} iterations={fit.iterations}")
    if fit.degenerate:
        print(f"degenerate  {fit.message}")
    return fit, None


def _fit_holds(fit: FitResult | None) -> bool:
    """Whether the fit exists, converged and is not degenerate; every
    fitting subcommand exits 3 when it does not."""
    return fit is not None and fit.converged and not fit.degenerate


def _analytic_block(config: ExperimentConfig) -> dict[str, Any]:
    budget = budget_from_config(config)
    block: dict[str, Any] = {
        "visibility_budget": visibility_prediction(budget),
        "dip_factor": splitter_dip_factor(config.splitter),
        "sigma_ps": config.wavepacket.sigma_ps,
    }
    try:
        block["car"] = car_prediction(*car_terms(config))
    except NoAccidentalsError:
        block["car"] = None
        block["car_note"] = "no accidentals"
    return block


# What a subcommand hands back to `main`: exit code, the config it used,
# the report's data and analytic blocks, and the files to write by name.
_Outcome = tuple[int, ExperimentConfig, dict[str, Any], dict[str, Any], dict[str, str]]


def cmd_predict(args: argparse.Namespace, config: ExperimentConfig) -> _Outcome:
    analytic = _analytic_block(config)
    overlap_i = indistinguishability(config.delay_ps, config.wavepacket.sigma_ps)
    kappa = amplitude_overlap(config.delay_ps, config.wavepacket.sigma_ps)
    dip_min = 1.0 - analytic["dip_factor"] * analytic["visibility_budget"]
    pmf = gate_pattern_distribution(config)
    pattern = {
        "none": float(pmf[0]),
        "only_b": float(pmf[1]),
        "only_a": float(pmf[2]),
        "both": float(pmf[3]),
    }
    analytic.update(
        {
            "visibility_exact": reporting.defined(exact_visibility(config)),
            "indistinguishability": overlap_i,
            "amplitude_overlap": kappa,
            "dip_min_over_baseline": dip_min,
        }
    )
    car, v_exact = analytic["car"], analytic["visibility_exact"]
    rows: list[tuple[str, Any]] = [
        ("visibility", analytic["visibility_budget"]),
        ("visibility_exact", v_exact if v_exact is not None else "no coincidences"),
        ("dip_min_over_baseline", dip_min),
        ("indistinguishability", overlap_i),
        ("amplitude_overlap", kappa),
        ("car", car if car is not None else "no accidentals"),
        ("pattern_none", pattern["none"]),
        ("pattern_only_b", pattern["only_b"]),
        ("pattern_only_a", pattern["only_a"]),
        ("pattern_both", pattern["both"]),
    ]
    print(f"analytic predictions (delay {config.delay_ps} ps):")
    for name, value in rows:
        if isinstance(value, float):
            print(f"  {name:<24} {value:.6g}")
        else:
            print(f"  {name:<24} {value}")
    files = {"predict.csv": reporting.table_csv(("quantity", "value"), rows)}
    return EXIT_OK, config, {"gate_pattern": pattern}, analytic, files


def cmd_calibrate(args: argparse.Namespace, config: ExperimentConfig) -> _Outcome:
    budget = budget_from_config(config)
    eta_star = calibrate_eta(
        args.target_visibility,
        budget.pairs_per_pulse,
        budget.dark_prob,
        budget.extinction_ratio,
    )
    calibrated = replace(
        config,
        channel_s=replace(config.channel_s, transmittance=eta_star),
        channel_i=replace(config.channel_i, transmittance=eta_star),
    )
    analytic = _analytic_block(calibrated)
    achieved = analytic["visibility_budget"]
    print(f"eta* = {eta_star:.9g}")
    print(f"visibility at eta*: {achieved:.9f} (target {args.target_visibility})")
    data = {
        "eta_star": eta_star,
        "target_visibility": args.target_visibility,
        "achieved_visibility": achieved,
    }
    config_json = reporting.report_json(configio.config_to_schema_dict(calibrated))
    return EXIT_OK, calibrated, data, analytic, {"calibrated_config.json": config_json}


def _aggregate_repeats(
    scans: list[list[ScanPoint]],
) -> tuple[list[ScanPoint], list[tuple[float, float]]]:
    """Sum counts across repeated scans; per-point coincidence mean/stddev."""
    n_points = len(scans[0])
    totals: list[ScanPoint] = []
    stats: list[tuple[float, float]] = []
    for i in range(n_points):
        per_repeat = [scan[i] for scan in scans]
        coincidences = [pt.coincidences for pt in per_repeat]
        mean = float(np.mean(coincidences))
        stddev = float(np.std(coincidences, ddof=1)) if len(scans) > 1 else 0.0
        totals.append(
            ScanPoint(
                delay_ps=per_repeat[0].delay_ps,
                gates=sum(pt.gates for pt in per_repeat),
                coincidences=sum(coincidences),
                singles_a=sum(pt.singles_a for pt in per_repeat),
                singles_b=sum(pt.singles_b for pt in per_repeat),
            )
        )
        stats.append((mean, stddev))
    return totals, stats


def cmd_dip_scan(args: argparse.Namespace, config: ExperimentConfig) -> _Outcome:
    delays = _delay_grid(args)
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1 (got {args.repeats})")

    if args.repeats == 1:
        seeds = [args.seed]
    else:
        seeds = [
            np.random.SeedSequence(entropy=args.seed, spawn_key=(r,))
            for r in range(args.repeats)
        ]
    scans = [
        run_dip_scan(config, delays, args.gates, seed, sampler=args.sampler)
        for seed in seeds
    ]
    points, stats = _aggregate_repeats(scans)
    repeat_stats = stats if args.repeats > 1 else None
    fit, fit_error = _fit_and_print(points, config, args.fit_center)

    data: dict[str, Any] = {
        "delays_ps": delays,
        "gates_per_point": args.gates,
        "repeats": args.repeats,
        "sampler": args.sampler,
        "points": reporting.points_to_columns(points),
        "repeat_stats": repeat_stats,
        "fit": reporting.fit_to_dict(fit) if fit is not None else None,
        "fit_error": fit_error,
    }
    code = EXIT_OK if _fit_holds(fit) else EXIT_NO_CONVERGENCE
    csv_text = reporting.points_csv(points, repeat_stats=repeat_stats)
    analytic = {**_analytic_block(config),
                "visibility_exact": reporting.defined(exact_visibility(config))}
    return code, config, data, analytic, {"points.csv": csv_text}


def cmd_visibility_sweep(
    args: argparse.Namespace, config: ExperimentConfig
) -> _Outcome:
    delays = _delay_grid(args)
    rows = run_visibility_sweep(
        config, args.pairs, args.gates, args.seed,
        delays=delays, sampler=args.sampler,
    )

    print("pairs_per_pulse  visibility_fit           visibility_predicted  visibility_exact")
    table_rows: list[dict[str, Any]] = []
    report_rows: list[dict[str, Any]] = []
    for row in rows:
        fit = row.fit
        entry: dict[str, Any] = {
            "pairs_per_pulse": row.pairs_per_pulse,
            "visibility_predicted": row.predicted_visibility,
            "visibility_exact": reporting.defined(row.exact_visibility),
            "converged": None,
            "visibility_fit": None,
            "visibility_err": None,
            "sigma_fit_ps": None,
            "sigma_err_ps": None,
        }
        fitted = "(fit failed)"
        if fit is not None:
            entry.update(
                converged=fit.converged,
                visibility_fit=fit.params.visibility,
                visibility_err=reporting.defined(fit.visibility_error),
                sigma_fit_ps=fit.params.sigma_ps,
                sigma_err_ps=reporting.defined(fit.sigma_error),
            )
            fitted = f"{fit.params.visibility:.4f} +/- {fit.visibility_error:.4f}"
        print(f"{row.pairs_per_pulse:<16.4g} {fitted:<24} "
              f"{row.predicted_visibility:<21.4f} {row.exact_visibility:.4f}")
        table_rows.append(entry)
        report_rows.append(
            {
                **entry,
                "error": row.error,
                "fit": reporting.fit_to_dict(fit) if fit is not None else None,
                "points": reporting.points_to_columns(row.scan),
            }
        )

    data = {
        "gates_per_point": args.gates,
        "delays_ps": delays,
        "sampler": args.sampler,
        "rows": report_rows,
    }
    code = (EXIT_OK if all(_fit_holds(row.fit) for row in rows)
            else EXIT_NO_CONVERGENCE)
    csv_text = reporting.sweep_csv(table_rows)
    return code, config, data, _analytic_block(config), {"sweep.csv": csv_text}


def cmd_car(args: argparse.Namespace, config: ExperimentConfig) -> _Outcome:
    sigma = config.wavepacket.sigma_ps
    auto_offset = abs(config.delay_ps) < 10.0 * sigma
    if auto_offset:
        config = replace(config, delay_ps=10.0 * sigma)

    result = run_car(
        config, args.gates, n_offset_slots=args.offsets, seed=args.seed
    )
    analytic = _analytic_block(config)

    print(f"CAR = {result.car:.3f}  (analytic {analytic['car']:.3f})"
          if analytic["car"] is not None else f"CAR = {result.car:.3f}")
    print(f"p_estimate: none ({result.p_estimate_note})" if result.p_estimate is None
          else f"p_estimate = {result.p_estimate:.6g} "
               f"(configured {config.source.mean_pairs_per_pulse:.6g})")
    print(f"matched coincidences: {result.matched_coincidences}")
    print(f"accidentals over offsets 1..{args.offsets}: "
          f"{sum(result.unmatched_coincidences)}")
    if auto_offset:
        print(f"note: delay auto-offset to {config.delay_ps} ps (10 sigma) "
              f"to park the run off the dip")

    data = {
        "car": result.car,
        "p_estimate": result.p_estimate,
        "matched_coincidences": result.matched_coincidences,
        "unmatched_coincidences": list(result.unmatched_coincidences),
        "offsets_gates": list(range(1, args.offsets + 1)),
        "gates": result.gates,
        "singles_a": result.singles_a,
        "singles_b": result.singles_b,
        "delay_auto_offset": auto_offset,
        "delay_ps_used": config.delay_ps,
    }
    csv_text = reporting.car_offsets_csv(
        result.matched_coincidences, result.unmatched_coincidences
    )
    return EXIT_OK, config, data, analytic, {"car_offsets.csv": csv_text}


def cmd_fit(args: argparse.Namespace, config: ExperimentConfig) -> _Outcome:
    points = reporting.read_points_csv(args.csv)
    fit, fit_error = _fit_and_print(points, config, args.fit_center)
    data: dict[str, Any] = {
        "source_csv": str(args.csv),
        "points": reporting.points_to_columns(points),
    }
    analytic = {"dip_factor": splitter_dip_factor(config.splitter)}
    if fit is None:
        data.update(fit=None, fit_error=fit_error)
        return EXIT_NO_CONVERGENCE, config, data, analytic, {}
    data["fit"] = reporting.fit_to_dict(fit)
    csv_text = reporting.table_csv(
        ("parameter", "estimate", "std_error"),
        [(name, est, reporting.defined(err)) for name, est, err in fit.parameters],
    )
    code = EXIT_OK if _fit_holds(fit) else EXIT_NO_CONVERGENCE
    return code, config, data, analytic, {"fit.csv": csv_text}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config")
    group.add_argument("--config", metavar="PATH",
                       help="JSON config file (partial files allowed)")
    for flag, key in _OVERRIDE_FLAGS:
        group.add_argument(flag, dest=key, type=float, metavar="X",
                           help=f"override {key}")
    group.add_argument("--eta", dest="eta", type=float, metavar="X",
                       help="override eta_signal and eta_idler together")


def _add_out_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="DIR",
                        help="directory for report/CSV output")
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        default="both", help="which output files to write")


def _add_scan_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delay-min", type=float, default=-6.0, metavar="PS")
    parser.add_argument("--delay-max", type=float, default=6.0, metavar="PS")
    parser.add_argument("--delay-steps", type=int, default=21, metavar="N")
    parser.add_argument("--sampler", choices=SAMPLERS, default="multinomial")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hombench",
        description="Monte Carlo benchmark for pulsed two-photon "
                    "interference at a fiber beam splitter",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("predict", help="print analytic predictions")
    _add_config_flags(p)
    _add_out_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("calibrate",
                       help="solve the efficiency for a target visibility")
    _add_config_flags(p)
    _add_out_flags(p)
    p.add_argument("--target-visibility", type=float, default=0.80, metavar="V")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("dip-scan", help="simulate and fit a coincidence dip")
    _add_config_flags(p)
    _add_out_flags(p)
    _add_scan_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--gates", type=_count, default=10**6, metavar="N",
                   help="gates per delay point")
    p.add_argument("--repeats", type=int, default=1, metavar="K",
                   help="independent scans; adds mean/stddev CSV columns")
    p.add_argument("--fit-center", action="store_true",
                   help="fit the dip center instead of pinning it to 0")
    p.set_defaults(func=cmd_dip_scan)

    p = sub.add_parser("visibility-sweep",
                       help="fitted visibility vs pair rate")
    _add_config_flags(p)
    _add_out_flags(p)
    _add_scan_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--gates", type=_count, default=10**6, metavar="N")
    p.add_argument("--pairs", type=_pair_list, required=True, metavar="P1,P2,...",
                   help="comma-separated pair rates")
    p.set_defaults(func=cmd_visibility_sweep)

    p = sub.add_parser("car", help="coincidence-to-accidental ratio run")
    _add_config_flags(p)
    _add_out_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    # The default config needs ~5e8 gates before 100 accidentals are
    # expected, so 1e8 would fail run_car's statistics precheck.
    p.add_argument("--gates", type=_count, default=10**9, metavar="N")
    p.add_argument("--offsets", type=int, default=10, metavar="K",
                   help="accidental offsets in gates (1..K)")
    p.set_defaults(func=cmd_car)

    p = sub.add_parser("fit", help="fit a dip to an external points CSV")
    _add_config_flags(p)
    _add_out_flags(p)
    p.add_argument("csv", help="CSV in the point-data schema")
    p.add_argument("--fit-center", action="store_true")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, config, data, analytic, files = args.func(args, _build_config(args))
        report = reporting.build_report(
            kind=args.command,
            config=config,
            seed=getattr(args, "seed", None),
            data=data,
            analytic=analytic,
            wall_seconds=round(time.perf_counter() - t0, 3),
        )
        _emit(args, report, files)
        return code
    except ConfigError as exc:
        for problem in exc.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except InsufficientStatisticsError as exc:
        print(f"insufficient statistics: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
