"""End-to-end CLI behavior through subprocess runs."""

import json
import math

import pytest

from conftest import run_cli
from hombench import load_config, run_dip_scan
from hombench.exact import exact_visibility
from hombench.reporting import POINT_COLUMNS, points_csv, read_points_csv

BOOST = ["--eta", "0.2", "--pairs-per-pulse", "0.05"]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def assert_indent_2_sorted(path):
    """The file's bytes are json's indent-2 sorted form of its content."""
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "hombench" in proc.stdout


def test_no_arguments_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 1


def test_unknown_flag_exits_nonzero():
    proc = run_cli("predict", "--no-such-flag")
    assert proc.returncode != 0


class TestPredict:
    def test_prints_the_analytic_summary(self, tmp_path):
        proc = run_cli("predict", "--out", str(tmp_path / "run"))
        assert proc.returncode == 0
        assert "visibility" in proc.stdout
        assert "car" in proc.stdout
        report = read_json(tmp_path / "run" / "report.json")
        assert report["schema_version"] == 2
        assert report["kind"] == "predict"
        analytic = report["analytic"]
        assert analytic["visibility_budget"] == pytest.approx(0.80, abs=1e-9)
        assert analytic["visibility_exact"] == pytest.approx(0.7001545095385033, rel=1e-9)
        rows = (tmp_path / "run" / "predict.csv").read_text().splitlines()
        assert rows[2] == f"visibility_exact,{analytic['visibility_exact']!r}"
        assert analytic["car"] == pytest.approx(29.457666308711875, rel=1e-9)
        assert analytic["sigma_ps"] == pytest.approx(1.6986436005760381, rel=1e-12)
        assert (tmp_path / "run" / "predict.csv").exists()

    def test_silent_setup_reports_no_accidentals(self, tmp_path):
        proc = run_cli(
            "predict",
            "--pairs-per-pulse", "0",
            "--dark-prob-a", "0", "--dark-prob-b", "0",
            "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 0
        report = read_json(tmp_path / "run" / "report.json")
        assert report["analytic"]["car"] is None
        assert "no accidentals" in report["analytic"]["car_note"]
        # No gate clicks both detectors, so there is no dip to predict.
        assert report["analytic"]["visibility_exact"] is None

    def test_flag_overrides_beat_config_file(self, tmp_path):
        cfg_path = tmp_path / "partial.json"
        cfg_path.write_text(json.dumps({"pairs_per_pulse": 0.01}))
        proc = run_cli(
            "predict",
            "--config", str(cfg_path),
            "--pairs-per-pulse", "0.07",
            "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 0
        report = read_json(tmp_path / "run" / "report.json")
        assert report["config"]["pairs_per_pulse"] == 0.07


class TestCalibrate:
    def test_writes_a_loadable_calibrated_config(self, tmp_path):
        proc = run_cli("calibrate", "--out", str(tmp_path / "run"))
        assert proc.returncode == 0
        cfg = load_config(tmp_path / "run" / "calibrated_config.json")
        assert cfg.channel_s.transmittance == pytest.approx(
            0.004356234096691836, rel=1e-6
        )
        assert cfg.channel_s.transmittance == cfg.channel_i.transmittance
        report = read_json(tmp_path / "run" / "report.json")
        assert report["data"]["achieved_visibility"] == pytest.approx(0.80, abs=1e-9)

    def test_custom_target(self, tmp_path):
        proc = run_cli(
            "calibrate", "--target-visibility", "0.85", "--out", str(tmp_path / "run")
        )
        assert proc.returncode == 0
        report = read_json(tmp_path / "run" / "report.json")
        assert report["data"]["achieved_visibility"] == pytest.approx(0.85, abs=1e-9)

    def test_infeasible_target_fails_validation(self):
        proc = run_cli("calibrate", "--target-visibility", "0.999")
        assert proc.returncode == 1
        assert "achievable maximum" in proc.stderr


class TestConfigHandling:
    def test_unknown_key_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": 1}')
        proc = run_cli("predict", "--config", str(bad))
        assert proc.returncode == 1
        assert "config error" in proc.stderr
        assert "bogus" in proc.stderr
        assert "bad.json" in proc.stderr

    def test_malformed_json_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("predict", "--config", str(bad))
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    def test_missing_file_is_an_io_error(self, tmp_path):
        proc = run_cli("predict", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    def test_width_must_not_be_given_twice(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sigma_ps": 1.7, "fwhm_ps": 4.0}))
        proc = run_cli("predict", "--config", str(bad))
        assert proc.returncode == 1
        assert "config error" in proc.stderr


class TestDipScan:
    def test_writes_points_and_report(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(
            "dip-scan", *BOOST,
            "--gates", "2e4", "--seed", "5", "--delay-steps", "9",
            "--out", str(out),
        )
        assert proc.returncode == 0
        points = read_points_csv(out / "points.csv")
        assert len(points) == 9
        assert points[0].delay_ps == -6.0
        assert points[-1].delay_ps == 6.0
        report = read_json(out / "report.json")
        assert report["kind"] == "dip-scan"
        assert report["seed"] == 5
        assert report["data"]["fit"]["converged"] is True
        cfg = load_config(None, {"eta_signal": 0.2, "eta_idler": 0.2, "pairs_per_pulse": 0.05})
        assert report["analytic"]["visibility_exact"] == exact_visibility(cfg)
        header = (out / "points.csv").read_text().splitlines()[0]
        assert header == "delay_ps,gates,singles_a,singles_b,coincidences"

    def test_repeats_add_spread_columns(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(
            "dip-scan", *BOOST,
            "--gates", "5e4", "--seed", "5", "--repeats", "3",
            "--delay-steps", "9", "--out", str(out),
        )
        assert proc.returncode == 0
        header = (out / "points.csv").read_text().splitlines()[0]
        assert header == "delay_ps,gates,singles_a,singles_b,coincidences,mean,stddev"
        report = read_json(out / "report.json")
        assert report["data"]["repeats"] == 3
        assert len(report["data"]["repeat_stats"]) == 9
        assert_indent_2_sorted(out / "report.json")

    def test_unfittable_scan_exits_no_convergence(self, tmp_path):
        # The calibrated defaults yield an almost empty scan at 100 gates
        # per point; the report still carries the counts and the reason.
        out = tmp_path / "run"
        proc = run_cli(
            "dip-scan", "--gates", "100", "--seed", "1", "--out", str(out)
        )
        assert proc.returncode == 3
        report = read_json(out / "report.json")
        assert report["data"]["fit"] is None
        assert report["data"]["fit_error"]

    def test_degenerate_fit_exits_no_convergence(self, tmp_path):
        # Five delays within 0.3 ps and a free center: the fit converges
        # with a singular normal matrix, which exits 3 as in `fit`.
        out = tmp_path / "run"
        proc = run_cli(
            "dip-scan", *BOOST, "--gates", "1e4", "--seed", "2",
            "--delay-min", "0", "--delay-max", "0.3", "--delay-steps", "5",
            "--fit-center", "--out", str(out),
        )
        assert proc.returncode == 3
        assert "+/- nan" in proc.stdout
        assert "degenerate  " in proc.stdout
        fit = read_json(out / "report.json")["data"]["fit"]
        assert fit["converged"] is True and fit["degenerate"] is True

    def test_collapsing_width_exits_no_convergence_without_warnings(self):
        # Four delays within 0.3 ps: a trial step drives sigma towards 0,
        # and the floor at 1e-3 x the largest |delay| holds it there.
        proc = run_cli(
            "dip-scan", "--eta", "0.2", "--pairs-per-pulse", "0.03",
            "--gates", "1e6", "--seed", "3",
            "--delay-min", "0", "--delay-max", "0.3", "--delay-steps", "4",
        )
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert "sigma_ps    0.0003 +/- nan" in proc.stdout
        assert "degenerate  " in proc.stdout

    def test_format_selection(self, tmp_path):
        csv_only = tmp_path / "csv_only"
        proc = run_cli(
            "dip-scan", *BOOST, "--gates", "2e4", "--seed", "5",
            "--delay-steps", "9", "--format", "csv", "--out", str(csv_only),
        )
        assert proc.returncode == 0
        assert (csv_only / "points.csv").exists()
        assert not (csv_only / "report.json").exists()

        json_only = tmp_path / "json_only"
        proc = run_cli(
            "dip-scan", *BOOST, "--gates", "2e4", "--seed", "5",
            "--delay-steps", "9", "--format", "json", "--out", str(json_only),
        )
        assert proc.returncode == 0
        assert not (json_only / "points.csv").exists()
        assert (json_only / "report.json").exists()

    def test_step_count_floor(self):
        proc = run_cli("dip-scan", *BOOST, "--delay-steps", "3")
        assert proc.returncode == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        args = (
            "dip-scan", *BOOST, "--gates", "2e4", "--seed", "6",
            "--delay-steps", "7",
        )
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        csv_a = (tmp_path / "a" / "points.csv").read_bytes()
        csv_b = (tmp_path / "b" / "points.csv").read_bytes()
        assert csv_a == csv_b
        strip = lambda p: [
            line for line in p.read_text().splitlines() if "wall_seconds" not in line
        ]
        assert strip(tmp_path / "a" / "report.json") == strip(tmp_path / "b" / "report.json")


class TestFitSubcommand:
    def test_refits_emitted_points(self, tmp_path):
        scan_out = tmp_path / "scan"
        proc = run_cli(
            "dip-scan", *BOOST, "--gates", "5e4", "--seed", "8",
            "--out", str(scan_out),
        )
        assert proc.returncode == 0
        fit_out = tmp_path / "fit"
        proc = run_cli(
            "fit", str(scan_out / "points.csv"), *BOOST, "--out", str(fit_out),
        )
        assert proc.returncode == 0
        scan_fit = read_json(scan_out / "report.json")["data"]["fit"]
        refit = read_json(fit_out / "report.json")["data"]["fit"]
        assert refit["visibility"] == pytest.approx(scan_fit["visibility"], rel=1e-12)
        assert refit["sigma_ps"] == pytest.approx(scan_fit["sigma_ps"], rel=1e-12)
        lines = (fit_out / "fit.csv").read_text().splitlines()
        assert lines[0] == "parameter,estimate,std_error"
        assert any(line.startswith("visibility,") for line in lines)

    def test_failed_precondition_exits_like_dip_scan(self, tmp_path):
        # The unfittable default scan: dip-scan exits 3 with the reason,
        # and refitting its CSV must fail the same way.
        scan_out = tmp_path / "scan"
        proc = run_cli(
            "dip-scan", "--gates", "100", "--seed", "1", "--out", str(scan_out)
        )
        assert proc.returncode == 3
        reason = read_json(scan_out / "report.json")["data"]["fit_error"]
        proc = run_cli("fit", str(scan_out / "points.csv"))
        assert proc.returncode == 3
        assert f"fit failed: {reason}" in proc.stdout

    def test_failed_precondition_still_writes_the_report(self, tmp_path):
        csv_path = tmp_path / "three.csv"
        csv_path.write_text(
            "delay_ps,gates,singles_a,singles_b,coincidences\n"
            "-6.0,1000000,900,900,50\n0.0,1000000,900,900,5\n"
            "6.0,1000000,900,900,50\n"
        )
        out = tmp_path / "fit"
        proc = run_cli("fit", str(csv_path), "--out", str(out))
        assert proc.returncode == 3
        assert "fit failed: need at least 4 points" in proc.stdout
        assert {p.name for p in out.iterdir()} == {"report.json"}
        report = read_json(out / "report.json")
        assert set(report) == {"schema_version", "tool", "kind", "seed", "config",
                               "analytic", "data", "wall_seconds"}
        assert report["kind"] == "fit"
        assert report["data"]["fit"] is None
        assert report["data"]["fit_error"].startswith("need at least 4 points")
        assert len(report["data"]["points"]["delay_ps"]) == 3

    def test_degenerate_fit_exits_no_convergence(self, tmp_path):
        # Four points within 0.3 ps: the fit converges onto a width pinned
        # against the grid, with a singular normal matrix.
        csv_path = tmp_path / "narrow.csv"
        csv_path.write_text(
            "delay_ps,gates,singles_a,singles_b,coincidences\n"
            "0.0,1000000,900,900,5\n0.1,1000000,900,900,50\n"
            "0.2,1000000,900,900,50\n0.3,1000000,900,900,50\n"
        )
        proc = run_cli("fit", str(csv_path), "--out", str(tmp_path / "fit"))
        assert proc.returncode == 3
        assert "degenerate  " in proc.stdout
        assert "singular normal matrix" in proc.stdout
        report = read_json(tmp_path / "fit" / "report.json")
        assert report["data"]["fit"]["degenerate"] is True
        # No std error or covariance entry is defined: null, empty cells.
        assert report["data"]["fit"]["std_errors"] == [None] * 3
        assert report["data"]["fit"]["covariance"] == [[None] * 3] * 3
        assert "sigma_ps    0.0115 +/- nan" in proc.stdout
        rows = (tmp_path / "fit" / "fit.csv").read_text().splitlines()
        assert rows[0] == "parameter,estimate,std_error"
        assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["", "", ""]

    def test_rejects_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("delay_ps,gates\n0.0,10\n")
        proc = run_cli("fit", str(bad))
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_rejects_counts_that_contradict_each_other(self, tmp_path):
        # Fittable coincidences, but 50 of them in 10 gates with no singles.
        rows = "".join(
            f"{d}.0,10,0,0,{10 if d == 0 else 50}\n" for d in range(-8, 9, 2)
        )
        bad = tmp_path / "over.csv"
        bad.write_text("delay_ps,gates,singles_a,singles_b,coincidences\n" + rows)
        proc = run_cli("fit", str(bad))
        assert proc.returncode == 1
        assert "bad row at line 2" in proc.stderr


class TestCar:
    CAR_FLAGS = (
        "--eta", "0.1", "--pairs-per-pulse", "0.03",
        "--dark-prob-a", "1e-4", "--dark-prob-b", "1e-4",
    )

    def test_reports_car_and_pair_rate(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(
            "car", *self.CAR_FLAGS, "--gates", "5e6", "--seed", "4",
            "--out", str(out),
        )
        assert proc.returncode == 0
        report = read_json(out / "report.json")
        data = report["data"]
        assert data["delay_auto_offset"] is True
        assert data["delay_ps_used"] >= 10.0 * report["analytic"]["sigma_ps"]
        assert data["p_estimate"] == pytest.approx(0.03, rel=0.2)
        assert data["car"] > 1.0
        lines = (out / "car_offsets.csv").read_text().splitlines()
        assert lines[0] == "offset_gates,coincidences"
        assert lines[1].startswith("0,")
        assert len(lines) == 12  # header + matched + 10 offsets

    def test_explicit_far_delay_is_kept(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(
            "car", *self.CAR_FLAGS, "--delay-ps", "80", "--gates", "5e6",
            "--seed", "4", "--out", str(out),
        )
        assert proc.returncode == 0
        report = read_json(out / "report.json")
        assert report["data"]["delay_auto_offset"] is False
        assert report["data"]["delay_ps_used"] == 80.0

    def test_too_few_gates_is_a_statistics_error(self):
        proc = run_cli("car", *self.CAR_FLAGS, "--gates", "1e4")
        assert proc.returncode == 2
        assert "insufficient statistics" in proc.stderr

    def test_dark_free_detectors_still_estimate_the_pair_rate(self, tmp_path):
        proc = run_cli(
            "car", "--dark-prob-a", "0", "--dark-prob-b", "0", "--eta", "0.1",
            "--gates", "1e7", "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 0, proc.stderr
        report = read_json(tmp_path / "run" / "report.json")
        assert report["data"]["p_estimate"] == pytest.approx(0.03, rel=0.1)

    def test_bright_run_meets_the_exact_car_and_pair_rate(self, tmp_path):
        # The car-bright benchmark config at its smoke size, held to the
        # benchmark's own car check. 86% of slots click both detectors.
        proc = run_cli(
            "car", "--pairs-per-pulse", "2", "--eta", "1", "--gates", "2e4",
            "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 0, proc.stderr
        report = read_json(tmp_path / "run" / "report.json")
        data = report["data"]
        accidentals = sum(data["unmatched_coincidences"])
        sigma = data["car"] * math.sqrt(
            1.0 / data["matched_coincidences"] + 1.0 / accidentals
        )
        assert abs(report["analytic"]["car"] - data["car"]) <= 5.0 * sigma
        assert data["p_estimate"] == pytest.approx(2.0, rel=0.1)

    def test_car_below_one_has_no_pair_rate(self, tmp_path):
        # A dark-only run whose observed CAR falls below 1 (0.73 at this
        # seed): no pair rate gives it, and the run says why.
        proc = run_cli(
            "car", "--pairs-per-pulse", "0", "--eta", "0.1",
            "--dark-prob-a", "0.01", "--dark-prob-b", "0.01",
            "--gates", "5e7", "--seed", "1", "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 0, proc.stderr
        assert "p_estimate: none (CAR 0.731707 is not above 1" in proc.stdout
        assert read_json(tmp_path / "run" / "report.json")["data"]["p_estimate"] is None

    # Below the CAR peak (p = 5.0e-3 here), where darks make the accidentals.
    FAINT = ("--eta", "0.1", "--dark-prob-a", "0.01", "--dark-prob-b", "0.01",
             "--gates", "4e8", "--seed", "13")

    def test_dark_only_car_is_near_one(self, tmp_path):
        proc = run_cli(
            "car", "--pairs-per-pulse", "0", *self.FAINT, "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 0
        report = read_json(tmp_path / "run" / "report.json")
        assert report["data"]["car"] == pytest.approx(1.0, abs=0.35)
        # The singles pick the rising branch; the falling branch reads 14.6 here.
        assert 0.0 < report["data"]["p_estimate"] < 1e-6

    def test_faint_run_estimates_its_pair_rate_below_the_peak(self, tmp_path):
        proc = run_cli(
            "car", "--pairs-per-pulse", "1e-3", *self.FAINT, "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 0
        report = read_json(tmp_path / "run" / "report.json")
        # The singles pick the rising branch; the falling branch reads 0.0256 here.
        assert report["data"]["p_estimate"] == pytest.approx(1e-3, rel=0.05)


class TestVisibilitySweep:
    def test_sweep_table_and_csv(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(
            "visibility-sweep", "--eta", "0.2", "--pairs", "0.02,0.05",
            "--gates", "2e5", "--seed", "3", "--out", str(out),
        )
        assert proc.returncode == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("pairs_per_pulse,visibility_fit")
        assert len(lines) == 3
        report = read_json(out / "report.json")
        rows = report["data"]["rows"]
        assert [row["pairs_per_pulse"] for row in rows] == [0.02, 0.05]
        for row in rows:
            assert row["fit"]["converged"] is True
            assert row["visibility_predicted"] is not None
            cfg = load_config(None, {"eta_signal": 0.2, "eta_idler": 0.2,
                                     "pairs_per_pulse": row["pairs_per_pulse"]})
            assert row["visibility_exact"] == exact_visibility(cfg)

    def test_degenerate_row_leaves_its_errors_empty(self, tmp_path):
        # Four delays within 0.3 ps: the fit pins sigma against the grid
        # with a singular normal matrix, so no std error is defined.
        out = tmp_path / "run"
        proc = run_cli(
            "visibility-sweep", "--eta", "0.2", "--pairs", "0.05",
            "--gates", "1e4", "--seed", "0", "--delay-min", "0",
            "--delay-max", "0.3", "--delay-steps", "4", "--out", str(out),
        )
        assert proc.returncode == 3
        assert "+/- nan" in proc.stdout
        (row,) = read_json(out / "report.json")["data"]["rows"]
        assert row["fit"]["degenerate"] is True
        assert row["visibility_err"] is None and row["sigma_err_ps"] is None
        assert row["fit"]["std_errors"] == [None] * 3
        line = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert line[2] == line[4] == ""

    def test_runaway_width_exits_no_convergence_without_a_traceback(self, tmp_path):
        # The same narrow grid at 1e5 gates: LM steps push sigma far past
        # the scan, which once overflowed math.exp in the fit.
        out = tmp_path / "run"
        proc = run_cli(
            "visibility-sweep", "--eta", "0.2", "--pairs", "0.05",
            "--gates", "1e5", "--seed", "0", "--delay-min", "0",
            "--delay-max", "0.3", "--delay-steps", "4", "--out", str(out),
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "+/- nan" in proc.stdout
        (row,) = read_json(out / "report.json")["data"]["rows"]
        assert row["fit"]["degenerate"] is True
        assert math.isfinite(row["sigma_fit_ps"])

    def test_empty_pair_list_is_a_usage_error(self):
        proc = run_cli("visibility-sweep", "--pairs", "")
        assert proc.returncode == 1

    def test_unfittable_rows_exit_no_convergence(self, tmp_path):
        proc = run_cli(
            "visibility-sweep", "--pairs", "0.03", "--gates", "100",
            "--seed", "1", "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 3


# One envelope for every subcommand: (command, extra args, seed in the
# report, CSVs that follow --format, files written whatever --format).
ENVELOPES = [
    ("predict", (), None, {"predict.csv"}, set()),
    ("calibrate", (), None, set(), {"calibrated_config.json"}),
    ("dip-scan", (*BOOST, "--gates", "2e4", "--seed", "5", "--delay-steps", "9"),
     5, {"points.csv"}, set()),
    ("visibility-sweep", ("--eta", "0.2", "--pairs", "0.02,0.05", "--gates", "2e5",
                          "--seed", "3"), 3, {"sweep.csv"}, set()),
    ("car", (*TestCar.CAR_FLAGS, "--gates", "5e6", "--seed", "4"),
     4, {"car_offsets.csv"}, set()),
    ("fit", (*BOOST,), None, {"fit.csv"}, set()),
]
# Points per points block of the subcommands that report a scan.
SCAN_LENGTHS = {"dip-scan": [9], "visibility-sweep": [21, 21], "fit": [9]}


@pytest.mark.parametrize(
    "command, extra, seed, csvs, always", ENVELOPES, ids=[e[0] for e in ENVELOPES]
)
def test_every_subcommand_writes_one_envelope(
    tmp_path, command, extra, seed, csvs, always
):
    if command == "fit":
        delays = [-6.0 + 1.5 * i for i in range(9)]
        cfg = load_config(None, {"eta_signal": 0.2, "eta_idler": 0.2,
                                 "pairs_per_pulse": 0.05})
        source = tmp_path / "points.csv"
        source.write_text(points_csv(run_dip_scan(cfg, delays, 20000, 5)))
        extra = (str(source), *extra)
    for fmt, expected in (("json", {"report.json"}), ("csv", csvs)):
        out = tmp_path / fmt
        proc = run_cli(command, *extra, "--format", fmt, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert {p.name for p in out.iterdir()} == expected | always
        for path in out.glob("*.json"):
            assert_indent_2_sorted(path)
    report = read_json(tmp_path / "json" / "report.json")
    assert set(report) == {"schema_version", "tool", "kind", "seed", "config",
                           "analytic", "data", "wall_seconds"}
    assert report["schema_version"] == 2
    assert report["kind"] == command
    assert report["seed"] == seed
    # Scan points as columns: one list per CSV column, one entry per delay.
    data = report["data"]
    blocks = [row["points"] for row in data.get("rows", [])]
    blocks += [data["points"]] if "points" in data else []
    assert [len(block["delay_ps"]) for block in blocks] == SCAN_LENGTHS.get(command, [])
    for block in blocks:
        assert set(block) == set(POINT_COLUMNS)
        assert {len(column) for column in block.values()} == {len(block["delay_ps"])}
