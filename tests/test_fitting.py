"""The dip-lineshape fit: its linear solve, width and center searches, and covariance."""

import math

import numpy as np
import pytest
from scipy.optimize import curve_fit, least_squares

from conftest import finite_difference_jacobian
from hombench import (
    BeamSplitter,
    ScanPoint,
    fit_dip,
    load_config,
    run_dip_scan,
    splitter_dip_factor,
)
from hombench import exact, fitting
from hombench.analytics import dip_curve as _dip_curve
from hombench.fitting import _dip_jacobian_external, _solve

REFERENCE_SPLITTER = BeamSplitter.from_db(-3.3, -3.6)
DELAYS_21 = np.linspace(-6.0, 6.0, 21)


def make_points(
    counts: np.ndarray, delays: np.ndarray = DELAYS_21, gates: int = 10**6
) -> list[ScanPoint]:
    # Counts are kept as exact reals: integer quantization would floor the
    # achievable round-trip accuracy well above the 1e-6 target.
    return [
        ScanPoint(float(d), gates, float(c), 2.0 * float(c), 2.0 * float(c))
        for d, c in zip(delays, counts)
    ]


def dip_counts(
    baseline: float,
    visibility: float,
    sigma: float,
    delays: np.ndarray = DELAYS_21,
    center: float = 0.0,
    splitter: BeamSplitter = REFERENCE_SPLITTER,
) -> np.ndarray:
    return _dip_curve(
        delays, baseline, visibility, sigma, splitter_dip_factor(splitter), center
    )


class TestSolve:
    """The fit's elimination against LAPACK, on systems of the fit's sizes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_lapack_up_to_the_condition_number(self, n):
        rng = np.random.default_rng(100 + n)
        eps = np.finfo(float).eps
        for log_cond in np.linspace(0.0, 12.0, 25):
            for _ in range(8):
                q1, q2 = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
                singular = np.logspace(0.0, -log_cond, n) * 10 ** rng.uniform(-3, 3)
                a = (q1 * singular) @ q2.T
                # Both solutions sit within about cond * eps of the exact one.
                tol = 10 * n * np.linalg.cond(a) * eps
                v, m = rng.normal(size=n), rng.normal(size=(n, 3))
                for b, reference in [(v, np.linalg.solve(a, v)),
                                     (m, np.linalg.solve(a, m)),
                                     (np.eye(n), np.linalg.inv(a))]:
                    got = _solve(a, b)
                    assert got.shape == reference.shape
                    err = np.linalg.norm(got - reference) / np.linalg.norm(reference)
                    assert err <= tol, (log_cond, err / tol)

    def test_exactly_singular_matrix_raises(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, np.ones(3))
        with pytest.raises(np.linalg.LinAlgError):
            _solve(a, np.ones(3))
        with pytest.raises(np.linalg.LinAlgError):
            _solve(np.zeros((1, 1)), np.eye(1))

    def test_nan_entry_propagates(self):
        a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        a[1, 2] = np.nan
        assert np.isnan(np.linalg.solve(a, np.ones(3))).any()
        assert np.isnan(_solve(a, np.ones(3))).any()
        assert np.isnan(_solve(a, np.eye(3))).any()


class TestFitDip:
    def test_noiseless_round_trip(self):
        counts = dip_counts(1000.0, 0.8, 1.7)
        fit = fit_dip(make_points(counts), REFERENCE_SPLITTER)
        assert fit.converged
        assert fit.params.baseline == pytest.approx(1000.0, rel=1e-6)
        assert fit.params.visibility == pytest.approx(0.8, rel=1e-6)
        assert fit.params.sigma_ps == pytest.approx(1.7, rel=1e-6)
        assert fit.chi_squared == pytest.approx(0.0, abs=1e-6)
        assert fit.dof == 18
        assert fit.center_ps is None

    def test_analytic_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(100):
            baseline = rng.uniform(100.0, 20000.0)
            visibility = rng.uniform(0.05, 1.0)
            sigma = rng.uniform(0.8, 3.0)
            center = rng.uniform(-0.5, 0.5)
            factor = splitter_dip_factor(REFERENCE_SPLITTER)
            delays = np.linspace(-3.0 * sigma, 3.0 * sigma, 9) + center

            def curve(d, theta):
                return _dip_curve(d, theta[0], theta[1], theta[2], factor, theta[3])

            theta = np.array([baseline, visibility, sigma, center])
            analytic = _dip_jacobian_external(
                delays, baseline, visibility, sigma, factor, center, with_center=True
            )
            fd = finite_difference_jacobian(curve, delays, theta)
            scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-9)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / scale)))
        assert worst < 1e-6

    def test_finite_difference_jacobian_accuracy(self):
        def model(x, theta):
            return theta[0] * np.exp(-theta[1] * x)

        x = np.linspace(0.0, 2.0, 7)
        theta = np.array([3.0, 0.7])
        analytic = np.column_stack(
            [np.exp(-0.7 * x), -3.0 * x * np.exp(-0.7 * x)]
        )
        fd = finite_difference_jacobian(model, x, theta)
        np.testing.assert_allclose(fd, analytic, rtol=1e-7, atol=1e-10)

    def test_fits_a_poisson_scan(self):
        rng = np.random.default_rng(2024)
        counts = rng.poisson(dip_counts(12000.0, 0.8, 1.7))
        fit = fit_dip(make_points(counts), REFERENCE_SPLITTER)
        assert fit.converged
        assert fit.params.visibility == pytest.approx(0.8, abs=5 * fit.visibility_error)
        assert fit.visibility_error < 0.05

    @pytest.mark.parametrize("fit_center", [False, True])
    def test_matches_reference_optimizer(self, fit_center):
        # scipy's curve_fit from the true parameters; with a free center the
        # scan's dip sits off zero.
        rng = np.random.default_rng(31415)
        center = 0.3 if fit_center else 0.0
        counts = rng.poisson(dip_counts(12000.0, 0.8, 1.7, center=center)).astype(float)
        factor = splitter_dip_factor(REFERENCE_SPLITTER)
        fit = fit_dip(make_points(counts), REFERENCE_SPLITTER, fit_center=fit_center)

        def model(d, c, v, s, mu=0.0):
            return c * (1.0 - factor * v * np.exp(-((d - mu) ** 2) / (2.0 * s * s)))

        popt, pcov = curve_fit(
            model,
            DELAYS_21,
            counts,
            p0=[12000.0, 0.8, 1.7] + ([center] if fit_center else []),
            sigma=np.sqrt(np.maximum(counts, 1.0)),
            absolute_sigma=True,
        )
        np.testing.assert_allclose(
            [fit.params.baseline, fit.params.visibility, fit.params.sigma_ps]
            + ([fit.center_ps] if fit_center else []),
            popt,
            rtol=1e-6,
        )
        np.testing.assert_allclose(fit.std_errors, np.sqrt(np.diag(pcov)), rtol=1e-4)

    def test_rescaling_counts_rescales_only_the_baseline(self):
        rng = np.random.default_rng(99)
        counts = rng.poisson(dip_counts(12000.0, 0.8, 1.7)).astype(float)
        fit1 = fit_dip(make_points(counts), REFERENCE_SPLITTER)
        fit32 = fit_dip(make_points(counts * 32.0), REFERENCE_SPLITTER)
        assert fit32.params.baseline == pytest.approx(
            32.0 * fit1.params.baseline, rel=1e-8
        )
        assert fit32.params.visibility == pytest.approx(
            fit1.params.visibility, rel=1e-8
        )
        assert fit32.params.sigma_ps == pytest.approx(fit1.params.sigma_ps, rel=1e-8)

    @pytest.mark.parametrize("fit_center", [False, True])
    @pytest.mark.parametrize("unit", [1e-200, 1e-12, 1e3, 1e100])
    def test_rescaling_delays_rescales_only_sigma_and_center(self, unit, fit_center):
        # Delays given in another unit (1e-12: seconds read as ps) fit the
        # same dip, std errors included; no scale overflows the search.
        rng = np.random.default_rng(5)
        counts = rng.poisson(dip_counts(3000.0, 0.8, 1.7, center=0.4)).astype(float)
        fit1 = fit_dip(make_points(counts), REFERENCE_SPLITTER, fit_center=fit_center)
        fit = fit_dip(make_points(counts, DELAYS_21 * unit), REFERENCE_SPLITTER,
                      fit_center=fit_center)
        assert not fit.degenerate
        got = [fit.params.baseline, fit.params.visibility, fit.params.sigma_ps / unit]
        want = [fit1.params.baseline, fit1.params.visibility, fit1.params.sigma_ps]
        if fit_center:
            got.append(fit.center_ps / unit)
            want.append(fit1.center_ps)
        np.testing.assert_allclose(got, want, rtol=1e-8)
        # The searches stop within about 1e-8 of log sigma, and the std errors
        # move a few times as much; 1e-200^2 underflows two of the variances.
        if unit > 1e-100:
            scale = [1.0, 1.0, unit, unit][:len(fit.std_errors)]
            np.testing.assert_allclose(fit.std_errors / scale, fit1.std_errors, rtol=1e-7)

    def test_delay_axis_sign_flip_is_irrelevant(self):
        rng = np.random.default_rng(7)
        counts = rng.poisson(dip_counts(9000.0, 0.7, 2.1))
        fit_fwd = fit_dip(make_points(counts, DELAYS_21), REFERENCE_SPLITTER)
        fit_rev = fit_dip(make_points(counts, -DELAYS_21), REFERENCE_SPLITTER)
        assert fit_rev.params.visibility == pytest.approx(
            fit_fwd.params.visibility, rel=1e-12
        )
        assert fit_rev.params.sigma_ps == pytest.approx(
            fit_fwd.params.sigma_ps, rel=1e-12
        )

    def test_chi_squared_per_dof_is_calibrated(self):
        rng = np.random.default_rng(555)
        ratios = []
        for _ in range(100):
            counts = rng.poisson(dip_counts(12000.0, 0.8, 1.7))
            fit = fit_dip(make_points(counts), REFERENCE_SPLITTER)
            ratios.append(fit.chi_squared / fit.dof)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.1)

    def test_fitted_center_recovery(self):
        counts = dip_counts(5000.0, 0.8, 1.7, center=0.7)
        fit = fit_dip(make_points(counts), REFERENCE_SPLITTER, fit_center=True)
        assert fit.converged
        assert fit.center_ps == pytest.approx(0.7, abs=1e-6)
        assert fit.params.visibility == pytest.approx(0.8, rel=1e-6)
        assert fit.dof == 17
        assert len(fit.std_errors) == 4

    def test_visibility_stays_inside_its_box(self):
        # Data carved deeper than the splitter factor allows: the raw
        # estimate would exceed 1, the box keeps it at or below 1.02.
        lopsided = BeamSplitter(0.9, 0.1)
        counts = dip_counts(4000.0, 1.0, 1.7, splitter=BeamSplitter(0.5, 0.5))
        fit = fit_dip(make_points(counts), lopsided)
        assert fit.params.visibility <= 1.02

    def test_box_edges_match_a_bounded_reference(self):
        # A dip 97% deep, fitted with an unbalanced splitter's factor 0.923
        # (at most 94% deep), ends on V = 1.02, and a bump ends on V = 0;
        # scipy's bounded least squares agrees.
        unbalanced = BeamSplitter(0.6, 0.4)
        factor = splitter_dip_factor(unbalanced)
        rng = np.random.default_rng(8)
        deep = rng.poisson(dip_counts(4000.0, 0.97, 1.7, splitter=BeamSplitter(0.5, 0.5)))
        bump = rng.poisson(dip_counts(4000.0, -0.2, 1.7))
        for counts, edge in [(deep.astype(float), 1.02), (bump.astype(float), 0.0)]:
            fit = fit_dip(make_points(counts), unbalanced)
            w = 1.0 / np.sqrt(np.maximum(counts, 1.0))
            ref = least_squares(
                lambda th: w * (counts - _dip_curve(DELAYS_21, *th, factor)),
                [counts.max(), 0.5, 2.0], bounds=([0.0, 0.0, 6e-3], [np.inf, 1.02, 6e3]),
                xtol=1e-15, ftol=1e-15, gtol=1e-15,
            )
            assert fit.params.visibility == edge
            assert fit.chi_squared <= 2.0 * ref.cost * (1.0 + 1e-9)
            assert fit.params.baseline == pytest.approx(ref.x[0], rel=1e-6)
            if edge:  # at V = 0 the width has no effect on the lineshape
                assert fit.params.sigma_ps == pytest.approx(ref.x[2], rel=1e-6)

    def test_requires_coincidences(self):
        with pytest.raises(ValueError, match="no coincidences to fit"):
            fit_dip(make_points(np.zeros(21)), REFERENCE_SPLITTER)

    @pytest.mark.parametrize("delay, count, match", [
        (math.nan, 50.0, "must be finite"),
        (math.inf, 50.0, "must be finite"),
        (1.0, math.nan, "must be finite"),
        (1.0, -1.0, "coincidences >= 0"),
    ])
    def test_rejects_non_finite_or_negative_input(self, delay, count, match):
        delays, counts = DELAYS_21.copy(), dip_counts(1000.0, 0.8, 1.7)
        delays[3], counts[3] = delay, count
        with pytest.raises(ValueError, match=match):
            fit_dip(make_points(counts, delays), REFERENCE_SPLITTER)

    def test_requires_a_nonzero_delay(self):
        with pytest.raises(ValueError, match="every delay is 0"):
            fit_dip(make_points(np.full(5, 10.0), np.zeros(5)), REFERENCE_SPLITTER)

    def test_requires_four_points(self):
        counts = dip_counts(1000.0, 0.8, 1.7, delays=np.array([-6.0, 0.0, 6.0]))
        with pytest.raises(ValueError, match="4 points"):
            fit_dip(make_points(counts, np.array([-6.0, 0.0, 6.0])), REFERENCE_SPLITTER)

    def test_fitted_center_needs_five_points(self):
        delays = np.array([-6.0, -2.0, 2.0, 6.0])
        counts = dip_counts(1000.0, 0.8, 1.7, delays=delays)
        with pytest.raises(ValueError, match="5 points"):
            fit_dip(make_points(counts, delays), REFERENCE_SPLITTER, fit_center=True)

    def test_requires_baseline_leverage(self):
        delays = np.linspace(-1.0, 1.0, 9)
        counts = dip_counts(1000.0, 0.8, 1.7, delays=delays)
        with pytest.raises(ValueError, match="baseline leverage"):
            fit_dip(make_points(counts, delays), REFERENCE_SPLITTER)


# Seeded multinomial scans on the 21-point grid, fitted as the CLI fits
# them. Estimates, chi^2, refinement step counts, flags and messages are
# pinned exactly; std errors to rtol 1e-13 (inverting the normal matrix in
# other coordinates moves only the last digits).
SCAN_CASES = {
    # (eta, pairs_per_pulse, gates_per_point, seed)
    "bright": (0.2, 0.05, 5 * 10**4, 8),
    "sparse": (0.05, 0.03, 2 * 10**5, 3),
    "reference_p": (0.05, 0.1, 10**6, 0),
}
FROZEN_FITS = [
    # case, fit_center, (baseline, visibility, sigma_ps, center_ps),
    # chi_squared, iterations, std_errors
    ("bright", False,
     (40.72351935941079, 0.931214207597316, 1.4961833330549628, None),
     18.27458791912427, 9,
     (2.2117842133913457, 0.03193040840612524, 0.15342373894490638)),
    ("bright", True,
     (40.74264458737894, 0.9333270027336371, 1.4816107163313408,
      0.14749152670370258),
     16.21177989928748, 9,
     (2.194638646633827, 0.03209148464107219, 0.15154699453239487,
      0.1020739664530586)),
    ("sparse", False,
     (6.332023972519631, 0.878604241692519, 2.3520958465117876, None),
     18.1297805683014, 13,
     (1.619725558621834, 0.09133156785036958, 0.852440543568195)),
    ("sparse", True,
     (6.205314778263568, 0.9087214871714806, 2.1530793316972523,
      -0.4289936141508319),
     16.68587415723464, 12,
     (1.3035593436929898, 0.10396038408133065, 0.6916103070940008,
      0.33533572573260356)),
    ("reference_p", False,
     (124.95951029162181, 0.8325452940514907, 1.6382964280740935, None),
     17.12299150866029, 9,
     (4.196086276408989, 0.025007663806612138, 0.11683317304934983)),
    ("reference_p", True,
     (125.25857467944533, 0.8332417128623608, 1.6427836985462287,
      -0.10881625773313147),
     15.083392675864568, 8,
     (4.214185120560193, 0.024954585162745745, 0.11715880089830506,
      0.0760564548788964)),
]


def scan_case(name: str) -> tuple[list[ScanPoint], BeamSplitter]:
    eta, p, gates, seed = SCAN_CASES[name]
    cfg = load_config(
        None, {"eta_signal": eta, "eta_idler": eta, "pairs_per_pulse": p}
    )
    return run_dip_scan(cfg, list(map(float, DELAYS_21)), gates, seed), cfg.splitter


class TestFrozenFits:
    @pytest.mark.parametrize(
        "case, fit_center, estimates, chi_squared, iterations, std_errors",
        FROZEN_FITS,
    )
    def test_seeded_scan_fit_is_pinned(
        self, case, fit_center, estimates, chi_squared, iterations, std_errors
    ):
        points, splitter = scan_case(case)
        fit = fit_dip(points, splitter, fit_center=fit_center)
        got = (
            fit.params.baseline, fit.params.visibility, fit.params.sigma_ps,
            fit.center_ps,
        )
        assert got == estimates
        assert fit.chi_squared == chi_squared
        assert fit.iterations == iterations
        assert fit.converged and not fit.degenerate
        assert fit.message == "refinement bracket below tolerance"
        np.testing.assert_allclose(fit.std_errors, std_errors, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("fit_center", [False, True])
    def test_parameters_table_follows_covariance_order(self, fit_center):
        points, splitter = scan_case("bright")
        fit = fit_dip(points, splitter, fit_center=fit_center)
        expected = [
            ("baseline", fit.params.baseline),
            ("visibility", fit.params.visibility),
            ("sigma_ps", fit.params.sigma_ps),
        ] + ([("center_ps", fit.center_ps)] if fit_center else [])
        assert fit.parameters == [
            (name, est, err) for (name, est), err in zip(expected, fit.std_errors)
        ]

    def test_degenerate_fit_is_pinned(self):
        # Four points within 0.3 ps: every width below about 0.0116 ps fits
        # them exactly, so the profile is flat there and the fit reports the
        # floor of the width box, with a singular normal matrix.
        points = make_points(
            np.array([5.0, 50.0, 50.0, 50.0]), np.array([0.0, 0.1, 0.2, 0.3])
        )
        fit = fit_dip(points, REFERENCE_SPLITTER)
        assert (fit.params.baseline, fit.params.visibility, fit.params.sigma_ps) == (
            50.0, 0.9021481227155688, 0.0003000000000000001,
        )
        assert fit.chi_squared == 0.0
        assert fit.iterations == 0
        assert fit.converged and fit.degenerate
        assert fit.message == (
            "refinement bracket below tolerance; singular normal matrix, "
            "covariance is a pseudo-inverse"
        )
        # No covariance exists: every entry and std error is undefined.
        assert fit.covariance.shape == (3, 3)
        assert np.isnan(fit.covariance).all()
        assert np.isnan(fit.std_errors).all() and fit.std_errors.shape == (3,)
        assert all(math.isnan(err) for _, _, err in fit.parameters)


class TestCovarianceOracle:
    """The reported covariance is the inverse weighted normal matrix of the
    lineshape in (baseline, visibility, sigma[, center]) at the optimum."""

    @pytest.mark.parametrize("fit_center", [False, True])
    def test_equals_inverse_normal_matrix_in_reported_coordinates(self, fit_center):
        rng = np.random.default_rng(4242)
        factor = splitter_dip_factor(REFERENCE_SPLITTER)
        checked = 0
        for _ in range(40):
            baseline, visibility = rng.uniform(20.0, 5000.0), rng.uniform(0.3, 1.0)
            sigma, center = rng.uniform(1.0, 2.5), rng.uniform(-0.3, 0.3)
            counts = rng.poisson(dip_counts(baseline, visibility, sigma, center=center))
            fit = fit_dip(make_points(counts), REFERENCE_SPLITTER,
                          fit_center=fit_center)
            if fit.degenerate:
                continue
            J = _dip_jacobian_external(
                DELAYS_21, fit.params.baseline, fit.params.visibility,
                fit.params.sigma_ps, factor, fit.center_ps or 0.0,
                with_center=fit_center,
            )
            w = 1.0 / np.maximum(counts, 1.0)
            oracle = np.linalg.inv(J.T @ (w[:, None] * J))
            # Relative on the diagonal; an off-diagonal entry is judged on
            # the scale of its two standard errors (a correlation), since a
            # near-zero covariance has no relative precision of its own.
            scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
            np.testing.assert_allclose(
                fit.covariance / scale, oracle / scale, rtol=0, atol=1e-10
            )
            checked += 1
        assert checked >= 35


class TestDegeneracyWithoutSVD:
    """The covariance is an LU inverse, and the normal matrix is degenerate
    when LU fails or its Frobenius condition reaches 1 / (n eps); the SVD
    rank (sigma_min <= sigma_max n eps) is the reference."""

    def test_flag_agrees_with_svd_rank_over_fit_normal_matrices(self, monkeypatch):
        seen = []
        covariance_from_normal = fitting._covariance_from_normal

        def spy(a):
            covariance, degenerate = covariance_from_normal(a)
            seen.append((a.copy(), degenerate))
            return covariance, degenerate

        monkeypatch.setattr(fitting, "_covariance_from_normal", spy)
        rng = np.random.default_rng(2025)
        factor = splitter_dip_factor(REFERENCE_SPLITTER)
        fits = []

        def fit(delays, counts, fit_center=False):
            try:
                fits.append(fit_dip(make_points(counts, delays), REFERENCE_SPLITTER,
                                    fit_center=fit_center))
            except ValueError:  # a failed precondition: no covariance
                pass

        while len(seen) < 900:
            n = int(rng.integers(4, 42))
            span = rng.uniform(0.3, 12.0)
            delays = (np.linspace(-0.5 * span, 0.5 * span, n) if rng.integers(2)
                      else np.linspace(0.0, span, n))
            baseline = math.exp(rng.uniform(math.log(0.1), math.log(5e4)))
            counts = _dip_curve(delays, baseline, rng.uniform(0.0, 1.0),
                                rng.uniform(0.5, 3.0), factor, 0.0)
            if rng.integers(2):
                counts = rng.poisson(counts).astype(float)
            fit(delays, counts, bool(rng.integers(2)) and n >= 5)
        # Four delays placed symmetrically about the center give three
        # parameters two distinct |delays|: their normal matrices are
        # singular up to round-off, so some land near the threshold.
        for _ in range(200):
            delays = np.linspace(-0.5, 0.5, 4) * rng.uniform(0.3, 12.0)
            baseline = math.exp(rng.uniform(math.log(0.1), math.log(5e4)))
            fit(delays, rng.poisson(_dip_curve(delays, baseline, rng.uniform(0.0, 1.0),
                                               rng.uniform(0.5, 3.0), factor, 0.0)))
        # Every fit ends its searches within the refinement cap.
        assert len(fits) == len(seen) and all(fit.converged for fit in fits)
        near = 0
        for a, degenerate in seen:
            assert degenerate == (np.linalg.matrix_rank(a) < a.shape[0])
            s = np.linalg.svd(a, compute_uv=False)
            near += 1e-2 < s[-1] / (s[0] * a.shape[0] * np.finfo(float).eps) < 1e2
        flagged = sum(degenerate for _, degenerate in seen)
        assert 50 <= flagged <= len(seen) - 500
        assert near >= 20  # matrices within 100x of the threshold

    @pytest.fixture
    def no_svd(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("SVD reached")

        for name in ("svd", "matrix_rank", "pinv"):
            monkeypatch.setattr(np.linalg, name, forbidden)

    def test_regular_fit_and_cold_scan_take_no_svd(self, no_svd):
        fit = fit_dip(make_points(dip_counts(1000.0, 0.8, 1.7)), REFERENCE_SPLITTER)
        assert not fit.degenerate and np.isfinite(fit.std_errors).all()
        exact._pair_click_dist.cache_clear()  # so the scan runs the Fock oracle
        points = run_dip_scan(load_config(None), DELAYS_21.tolist(), 10**9, seed=3)
        assert exact._pair_click_dist.cache_info().currsize > 0
        fit = fit_dip(points, REFERENCE_SPLITTER)
        assert not fit.degenerate and np.isfinite(fit.std_errors).all()

    def test_degenerate_fit_still_takes_the_pseudo_inverse(self, no_svd):
        points = make_points(
            np.array([5.0, 50.0, 50.0, 50.0]), np.array([0.0, 0.1, 0.2, 0.3])
        )
        with pytest.raises(AssertionError, match="SVD reached"):
            fit_dip(points, REFERENCE_SPLITTER)
