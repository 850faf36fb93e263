"""Release gate: every acceptance criterion, one reported PASS/FAIL line.

Criterion 1 is intentionally left failing. Its stated budget of 1e6 gates
per point collects only a handful of coincidences at the reference
instrument's pair rate and efficiency, so the lineshape fit has nothing to
anchor on; and even with unlimited statistics the dip converges near
V = 0.70, because the closed-form noise budget that the reference
efficiency was calibrated against stops being accurate once dark counts
dominate the true-pair rate. The two diagnosis tests after it pin down
both halves; the blocking analysis lives in the decisions ledger.
"""

import dataclasses
import math
import time

import numpy as np

from conftest import finite_difference_jacobian, run_cli
from hombench import (
    BeamSplitter,
    ScanPoint,
    VisibilityBudget,
    car_prediction,
    coincidence_prob,
    default_config,
    evolve_fock,
    evolve_fock_ladder,
    fit_dip,
    fwhm_to_sigma,
    gate_pattern_distribution,
    run_car,
    run_dip_scan,
    run_visibility_sweep,
    splitter_dip_factor,
    splitter_unitary,
    visibility_prediction,
)
from hombench.analytics import car_terms
from hombench.analytics import dip_curve as _dip_curve
from hombench.exact import exact_visibility
from hombench.fitting import _dip_jacobian_external
from hombench.fock import temporal_decompose

SPLITTER = BeamSplitter.from_db(-3.3, -3.6)
DELAYS_21 = [float(d) for d in np.linspace(-6.0, 6.0, 21)]
MODEL_CALIBRATED_ETA = 7.126134e-3


def noise_free_fit(config, delays, gates):
    """Fit the exact per-gate coincidence curve, no sampling noise.

    Float counts keep quantization out of the comparison; ScanPoint is a
    plain record and does not insist on integers.
    """
    points = []
    for d in delays:
        pmf = gate_pattern_distribution(dataclasses.replace(config, delay_ps=d))
        points.append(ScanPoint(d, gates, pmf[3] * gates, 0, 0))
    return fit_dip(points, splitter=config.splitter)


class TestCriterion1HeadlineDip:
    """Reference-calibration dip scan against the target window."""

    def test_criterion_1_headline_visibility_window(self, criterion, default_cfg):
        t0 = time.perf_counter()
        points = run_dip_scan(
            default_cfg, DELAYS_21, gates_per_point=10**6, seed=1
        )
        elapsed = time.perf_counter() - t0
        total = sum(p.coincidences for p in points)
        # What the scan tends to with unlimited gates, next to the window.
        asymptote = (f"exact asymptote V* = {exact_visibility(default_cfg):.3f} "
                     f"against the window [0.75, 0.85]")
        try:
            fit = fit_dip(points, splitter=default_cfg.splitter)
        except ValueError as exc:
            assert criterion(
                1,
                False,
                f"1e6 gates/point leaves {total} coincidences across 21 "
                f"points ({elapsed:.2f} s); fit rejects the scan: {exc}; {asymptote}",
            )
            return
        ok = (
            0.75 <= fit.params.visibility <= 0.85
            and 1.55 <= fit.params.sigma_ps <= 1.85
            and elapsed < 60.0
        )
        assert criterion(
            1,
            ok,
            f"V={fit.params.visibility:.4f}, sigma={fit.params.sigma_ps:.3f} ps, "
            f"{elapsed:.2f} s; {asymptote}",
        )

    def test_diagnosis_window_stays_out_of_reach_with_unlimited_statistics(
        self, default_cfg
    ):
        # 40000x the stated gate budget: the fit converges tightly, but to
        # the stochastic model's own asymptote near 0.70, not into
        # [0.75, 0.85]. The budget formula the default efficiency was
        # calibrated with underestimates the dark-count dilution here.
        asymptote = noise_free_fit(default_cfg, DELAYS_21, 10**6)
        points = run_dip_scan(
            default_cfg, DELAYS_21, gates_per_point=4 * 10**10, seed=1
        )
        fit = fit_dip(points, splitter=default_cfg.splitter)
        assert fit.converged
        assert fit.visibility_error < 0.005
        assert abs(fit.params.visibility - asymptote.params.visibility) < 0.02
        assert not 0.75 <= fit.params.visibility <= 0.85
        assert abs(asymptote.params.visibility - 0.700161) < 1e-3
        assert abs(asymptote.params.visibility - exact_visibility(default_cfg)) < 1e-4

    def test_diagnosis_model_calibrated_efficiency_reaches_the_window(
        self, default_cfg
    ):
        # Calibrating the efficiency against the stochastic model itself
        # (instead of the closed-form budget) lands the same scan inside
        # the target window, so the window is attainable; only the
        # prescribed calibration route is off.
        cfg = dataclasses.replace(
            default_cfg,
            channel_s=dataclasses.replace(
                default_cfg.channel_s, transmittance=MODEL_CALIBRATED_ETA
            ),
            channel_i=dataclasses.replace(
                default_cfg.channel_i, transmittance=MODEL_CALIBRATED_ETA
            ),
        )
        points = run_dip_scan(cfg, DELAYS_21, gates_per_point=4 * 10**10, seed=1)
        fit = fit_dip(points, splitter=cfg.splitter)
        assert 0.75 <= fit.params.visibility <= 0.85
        assert 1.55 <= fit.params.sigma_ps <= 1.85


def test_criterion_2_car_bracket(criterion):
    cfg = default_config(delay_ps=60.0)
    analytic = car_prediction(*car_terms(cfg))
    t0 = time.perf_counter()
    result = run_car(cfg, gates=10**10, seed=2)
    elapsed = time.perf_counter() - t0
    rel = abs(result.car - analytic) / analytic
    ok = 20.0 <= result.car <= 40.0 and rel < 0.10 and elapsed < 300.0
    assert criterion(
        2,
        ok,
        f"CAR={result.car:.2f} in [20, 40], analytic={analytic:.2f}, "
        f"rel={rel:.1%} < 10%, {elapsed:.1f} s",
    )


def test_criterion_3_budget_cross_validation(criterion, symmetric_cfg):
    # The stochastic sampler and the closed-form visibility budget must
    # describe the same physics over the full pair-rate x efficiency grid.
    worst = 0.0
    failures = []
    for i, p in enumerate((0.01, 0.03, 0.05)):
        for j, eta in enumerate((0.005, 0.01, 0.05)):
            cfg = symmetric_cfg(p, eta, 1e-5)
            points = run_dip_scan(
                cfg,
                DELAYS_21,
                gates_per_point=4 * 10**8,
                seed=np.random.SeedSequence(3, spawn_key=(i, j)),
            )
            fit = fit_dip(points, splitter=cfg.splitter)
            predicted = visibility_prediction(
                VisibilityBudget(p, eta, 1e-5, 1000.0)
            )
            err = abs(fit.params.visibility - predicted)
            tol = max(0.02, 3.0 * fit.visibility_error)
            worst = max(worst, err / tol)
            if err >= tol:
                failures.append(f"p={p}, eta={eta}: |dV|={err:.4f} >= {tol:.4f}")
    assert criterion(
        3,
        not failures,
        "; ".join(failures)
        if failures
        else f"9/9 cells within max(0.02, 3 sigma); worst |dV|/tol={worst:.2f}",
    )


def test_criterion_4_exact_engine_oracles(criterion):
    checks = []

    # Lossless threshold coincidence law over the full grid.
    worst_law = 0.0
    for kappa in (0.0, 0.25, 0.5, 0.75, 1.0):
        for t in (0.3, 0.5, 0.7):
            r = 1.0 - t
            law = t * t + r * r - 2.0 * t * r * kappa * kappa
            worst_law = max(
                worst_law, abs(coincidence_prob(1, 1, kappa, t, r) - law)
            )
    checks.append(("coincidence law", worst_law))

    # Two identical pairs through a balanced splitter bunch into
    # (4,0)/(2,2)/(0,4) with probabilities (3/8, 1/4, 3/8).
    out = evolve_fock(temporal_decompose(1.0, 2, 2), splitter_unitary(0.5, 0.5))
    by_port = {}
    for occ, prob in out.items():
        count_a = occ[0] + occ[1]
        by_port[count_a] = by_port.get(count_a, 0.0) + prob
    worst_pairs = max(
        abs(by_port.get(4, 0.0) - 3 / 8),
        abs(by_port.get(2, 0.0) - 1 / 4),
        abs(by_port.get(0, 0.0) - 3 / 8),
        by_port.get(3, 0.0),
        by_port.get(1, 0.0),
    )
    checks.append(("two-pair bunching", worst_pairs))

    # Independent evolution engines on random <=3 photon states.
    rng = np.random.default_rng(777)
    worst_engines = 0.0
    for _ in range(30):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r_mat = np.linalg.qr(z)
        u = q * (np.diagonal(r_mat) / np.abs(np.diagonal(r_mat)))
        total = int(rng.integers(1, 4))
        occs = [
            occ
            for occ in np.ndindex(total + 1, total + 1, total + 1, total + 1)
            if sum(occ) == total
        ]
        picks = rng.choice(len(occs), size=min(3, len(occs)), replace=False)
        amps = rng.standard_normal(len(picks)) + 1j * rng.standard_normal(len(picks))
        amps /= np.linalg.norm(amps)
        state = {tuple(occs[k]): complex(a) for k, a in zip(picks, amps)}
        out_a = evolve_fock(state, u)
        out_b = evolve_fock_ladder(state, u)
        for key in set(out_a) | set(out_b):
            worst_engines = max(
                worst_engines, abs(out_a.get(key, 0.0) - out_b.get(key, 0.0))
            )
    checks.append(("dual engines", worst_engines))

    ok = all(dev < 1e-10 for _, dev in checks)
    assert criterion(
        4,
        ok,
        ", ".join(f"{name} dev={dev:.1e}" for name, dev in checks) + " (all < 1e-10)",
    )


def test_criterion_5_fitter_correctness(criterion):
    factor = splitter_dip_factor(SPLITTER)
    exact = _dip_curve(np.array(DELAYS_21), 1000.0, 0.8, 1.7, factor).tolist()

    # Noiseless round trip; float counts so quantization cannot mask it.
    points = [
        ScanPoint(d, 10**6, c, 2.0 * c, 2.0 * c) for d, c in zip(DELAYS_21, exact)
    ]
    fit = fit_dip(points, splitter=SPLITTER)
    roundtrip = max(
        abs(fit.params.baseline - 1000.0) / 1000.0,
        abs(fit.params.visibility - 0.8) / 0.8,
        abs(fit.params.sigma_ps - 1.7) / 1.7,
    )

    # Analytic vs central-difference Jacobian on random dip parameters.
    # Delays stay within 3 sigma: far outside the dip the true derivatives
    # underflow and central differences return pure roundoff.
    rng = np.random.default_rng(100)
    worst_jac = 0.0
    for _ in range(100):
        baseline = rng.uniform(100.0, 20000.0)
        visibility = rng.uniform(0.05, 1.0)
        sigma = rng.uniform(0.8, 3.0)
        center = rng.uniform(-0.5, 0.5)
        delays = np.linspace(-3.0 * sigma, 3.0 * sigma, 9) + center

        def curve(d, theta):
            return _dip_curve(d, theta[0], theta[1], theta[2], factor, theta[3])

        theta = np.array([baseline, visibility, sigma, center])
        analytic = _dip_jacobian_external(
            delays, baseline, visibility, sigma, factor, center, with_center=True
        )
        fd = finite_difference_jacobian(curve, delays, theta)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-9)
        worst_jac = max(worst_jac, float(np.max(np.abs(analytic - fd) / scale)))

    # 1-sigma coverage of the visibility estimate under Poisson noise.
    expected = _dip_curve(np.array(DELAYS_21), 12000.0, 0.8, 1.7, factor)
    rng = np.random.default_rng(20260816)
    covered = 0
    for _ in range(500):
        counts = rng.poisson(expected)
        noisy = [
            ScanPoint(d, 10**6, int(c), 2 * int(c), 2 * int(c))
            for d, c in zip(DELAYS_21, counts)
        ]
        rep = fit_dip(noisy, splitter=SPLITTER)
        if abs(rep.params.visibility - 0.8) <= rep.visibility_error:
            covered += 1
    coverage = covered / 500.0

    ok = roundtrip < 1e-6 and worst_jac < 1e-6 and 0.60 <= coverage <= 0.76
    assert criterion(
        5,
        ok,
        f"round-trip rel err={roundtrip:.1e} < 1e-6, Jacobian dev="
        f"{worst_jac:.1e} < 1e-6, coverage={coverage:.1%} in [60%, 76%]",
    )


def test_criterion_6_width_conversion(criterion):
    sigma = fwhm_to_sigma(4.0)
    ok = abs(sigma - 1.699) <= 0.001
    assert criterion(6, ok, f"fwhm_to_sigma(4.0 ps) = {sigma:.6f} ps = 1.699(1)")


def test_criterion_7_visibility_monotonicity(criterion, symmetric_cfg):
    rows = run_visibility_sweep(
        symmetric_cfg(0.01, 0.01, 1e-5),
        [0.01, 0.02, 0.05, 0.1],
        gates_per_point=10**12,
        seed=7,
    )
    assert all(row.fit is not None and row.fit.converged for row in rows)
    vs = [row.fit.params.visibility for row in rows]
    errs = [row.fit.visibility_error for row in rows]
    ok = all(
        vs[k] - vs[k + 1] > -math.hypot(errs[k], errs[k + 1])
        for k in range(len(vs) - 1)
    )
    assert criterion(
        7,
        ok,
        "fitted V strictly decreasing over p=0.01..0.1: "
        + " > ".join(f"{v:.4f}" for v in vs),
    )


def test_criterion_8_byte_determinism(criterion, tmp_path):
    # Per-gate dip scan: the threaded sampler must give byte-identical
    # output no matter how many workers split the batches.
    scan_args = (
        "dip-scan", "--eta", "0.2", "--pairs-per-pulse", "0.05",
        "--sampler", "per-gate", "--gates", "2e5", "--seed", "9",
    )
    proc_a = run_cli(*scan_args, "--out", str(tmp_path / "scan1"), threads=1)
    proc_b = run_cli(*scan_args, "--out", str(tmp_path / "scan4"), threads=4)

    car_args = (
        "car", "--eta", "0.1", "--pairs-per-pulse", "0.03",
        "--dark-prob-a", "1e-4", "--dark-prob-b", "1e-4",
        "--gates", "2e6", "--seed", "11",
    )
    proc_c = run_cli(*car_args, "--out", str(tmp_path / "car1"), threads=1)
    proc_d = run_cli(*car_args, "--out", str(tmp_path / "car4"), threads=4)

    def stripped_report(directory):
        lines = (directory / "report.json").read_text().splitlines()
        return [line for line in lines if "wall_seconds" not in line]

    checks = {
        "exit codes": all(
            p.returncode == 0 for p in (proc_a, proc_b, proc_c, proc_d)
        ),
        "scan csv": (tmp_path / "scan1" / "points.csv").read_bytes()
        == (tmp_path / "scan4" / "points.csv").read_bytes(),
        "scan report": stripped_report(tmp_path / "scan1")
        == stripped_report(tmp_path / "scan4"),
        "car csv": (tmp_path / "car1" / "car_offsets.csv").read_bytes()
        == (tmp_path / "car4" / "car_offsets.csv").read_bytes(),
        "car report": stripped_report(tmp_path / "car1")
        == stripped_report(tmp_path / "car4"),
    }
    ok = all(checks.values())
    assert criterion(
        8,
        ok,
        "dip-scan(per-gate) and car identical across thread caps 1 vs 4"
        if ok
        else "mismatch: " + ", ".join(k for k, v in checks.items() if not v),
    )
