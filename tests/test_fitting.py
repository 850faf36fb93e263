"""Levenberg-Marquardt engine and the dip-lineshape fit built on it."""

import math

import numpy as np
import pytest
from scipy.optimize import curve_fit

from conftest import finite_difference_jacobian
from hombench import (
    BeamSplitter,
    DipModelParams,
    ScanPoint,
    fit_dip,
    load_config,
    run_dip_scan,
    splitter_dip_factor,
)
from hombench import exact, fitting
from hombench.analytics import dip_curve as _dip_curve
from hombench.fitting import _dip_jacobian_external, _solve, levenberg_marquardt

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


def fd_levenberg_marquardt(model, x, y, weights, theta0, **kwargs):
    """`levenberg_marquardt` on a toy model: finite-difference Jacobian, no box."""
    return levenberg_marquardt(
        model, x, y, weights, theta0,
        lambda x, theta: finite_difference_jacobian(model, x, theta),
        lambda theta: theta,
        **kwargs,
    )


class TestLevenbergMarquardt:
    def test_linear_model_converges_immediately(self):
        x = np.arange(8.0)
        y = 2.0 * x

        def model(x, theta):
            return theta[0] * x

        result = fd_levenberg_marquardt(model, x, y, np.ones_like(x), np.array([0.3]))
        assert result.converged
        # The optimum is reached on the first accepted step; the few extra
        # iterations are the stopping rules confirming it.
        assert result.iterations <= 5
        assert result.theta[0] == pytest.approx(2.0, abs=1e-10)

    def test_affine_model_with_covariance(self):
        x = np.arange(10.0)
        y = 2.0 * x + 1.0
        w = np.ones_like(x)

        def model(x, theta):
            return theta[0] * x + theta[1]

        result = fd_levenberg_marquardt(model, x, y, w, np.array([0.0, 0.0]))
        assert result.converged
        np.testing.assert_allclose(result.theta, [2.0, 1.0], atol=1e-9)
        design = np.column_stack([x, np.ones_like(x)])
        np.testing.assert_allclose(
            result.covariance, np.linalg.inv(design.T @ design), rtol=1e-6
        )

    def test_curved_valley_reaches_known_minimum(self):
        # Rosenbrock residuals (10(b - a^2), 1 - a): minimum at (1, 1).
        x = np.zeros(2)
        y = np.array([0.0, 1.0])

        def model(_, theta):
            return np.array([10.0 * (theta[1] - theta[0] ** 2), theta[0]])

        result = fd_levenberg_marquardt(
            model, x, y, np.ones(2), np.array([-1.2, 1.0]),
            max_iterations=500,
        )
        assert result.converged
        np.testing.assert_allclose(result.theta, [1.0, 1.0], atol=1e-8)

    def test_nan_at_start_raises(self):
        def model(x, theta):
            return np.full_like(x, math.nan)

        with pytest.raises(ValueError):
            fd_levenberg_marquardt(
                model, np.ones(3), np.ones(3), np.ones(3), np.array([1.0])
            )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_invalid_weights_rejected(self, bad):
        def model(x, theta):
            return theta[0] * x

        w = np.ones(3)
        w[1] = bad
        with pytest.raises(ValueError):
            fd_levenberg_marquardt(model, np.ones(3), np.ones(3), w, np.array([1.0]))

    def test_degenerate_parameterization_is_flagged(self):
        # theta[0] and theta[1] only enter through their sum: the normal
        # matrix is singular everywhere.
        x = np.arange(6.0)
        y = 3.0 * x

        def model(x, theta):
            return (theta[0] + theta[1]) * x

        result = fd_levenberg_marquardt(
            model, x, y, np.ones_like(x), np.array([1.0, 1.0])
        )
        assert result.degenerate
        assert np.isfinite(result.covariance).all()

    def test_box_clamps_the_start_and_every_trial_step(self):
        # The data pull theta toward 2 but the box caps it at 1: the start
        # (1.5) is projected in, no evaluation ever leaves the box, and the
        # fit settles on the boundary.
        x = np.arange(1.0, 9.0)
        y = 2.0 * x
        seen = []

        def model(x, theta):
            seen.append(float(theta[0]))
            return theta[0] * x

        result = levenberg_marquardt(
            model, x, y, np.ones_like(x), np.array([1.5]),
            lambda x, theta: x[:, None],
            lambda theta: np.minimum(theta, 1.0),
        )
        assert seen[0] == 1.0
        assert max(seen) <= 1.0
        assert result.theta[0] == 1.0

    def test_jacobian_and_box_have_no_defaults(self):
        def model(x, theta):
            return theta[0] * x

        x = np.arange(4.0)
        with pytest.raises(TypeError):
            levenberg_marquardt(model, x, 2.0 * x, np.ones_like(x), [1.0])
        with pytest.raises(TypeError):
            levenberg_marquardt(
                model, x, 2.0 * x, np.ones_like(x), [1.0],
                lambda x, theta: x[:, None],
            )

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

    def test_self_initialization_handles_poisson_noise(self):
        rng = np.random.default_rng(2024)
        counts = rng.poisson(dip_counts(12000.0, 0.8, 1.7))
        fit = fit_dip(make_points(counts), REFERENCE_SPLITTER)
        assert fit.converged
        assert fit.params.visibility == pytest.approx(0.8, abs=5 * fit.visibility_error)
        assert fit.visibility_error < 0.05

    def test_matches_reference_optimizer(self):
        rng = np.random.default_rng(31415)
        counts = rng.poisson(dip_counts(12000.0, 0.8, 1.7)).astype(float)
        factor = splitter_dip_factor(REFERENCE_SPLITTER)
        init = DipModelParams(12000.0, 0.8, 1.7)
        fit = fit_dip(make_points(counts), REFERENCE_SPLITTER, init=init)

        def model(d, c, v, s):
            return c * (1.0 - factor * v * np.exp(-(d * d) / (2.0 * s * s)))

        popt, pcov = curve_fit(
            model,
            DELAYS_21,
            counts,
            p0=[12000.0, 0.8, 1.7],
            sigma=np.sqrt(np.maximum(counts, 1.0)),
            absolute_sigma=True,
        )
        np.testing.assert_allclose(
            [fit.params.baseline, fit.params.visibility, fit.params.sigma_ps],
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

    def test_explicit_init_is_honored(self):
        counts = dip_counts(1000.0, 0.8, 1.7)
        init = DipModelParams(900.0, 0.5, 2.0)
        fit = fit_dip(make_points(counts), REFERENCE_SPLITTER, init=init)
        assert fit.converged
        assert fit.params.visibility == pytest.approx(0.8, rel=1e-6)

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
# them. Estimates, chi^2, iteration counts, flags and messages are pinned
# exactly; std errors to rtol 1e-13 (inverting the normal matrix in other
# coordinates moves only the last digits).
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
     (40.723517073860585, 0.9312142264953314, 1.496183082890443, None),
     18.274587919126645, 5,
     (2.211783912868075, 0.03193041168700547, 0.15342371100307875)),
    ("bright", True,
     (40.7426440421044, 0.9333270073546949, 1.4816106565478906,
      0.147491522220253),
     16.21177989928758, 6,
     (2.1946385765373795, 0.0320914854308256, 0.1515469878972949,
      0.10207396299353053)),
    ("sparse", False,
     (6.33202498929985, 0.878604226250692, 2.3520964675836034, None),
     18.12978056830191, 5,
     (1.6197265549011974, 0.09133154535487169, 0.8524409723562758)),
    ("sparse", True,
     (6.205321074702965, 0.9087211935153492, 2.153083532367456,
      -0.4289931266358486),
     16.685874157284875, 10,
     (1.303564430760161, 0.10396016736808572, 0.6916129591793564,
      0.33533617274447636)),
    ("reference_p", False,
     (124.95950688699112, 0.8325453053104788, 1.6382962853902014, None),
     17.122991508661965, 6,
     (4.196085897021762, 0.025007665306514288, 0.11683315991381353)),
    ("reference_p", True,
     (125.2585885499418, 0.8332416654445587, 1.6427842808979423,
      -0.10881604697167985),
     15.08339267590191, 6,
     (4.214186667261983, 0.02495457888211898, 0.11715885432327146,
      0.07605647647712911)),
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
        assert fit.message == "relative cost decrease below tolerance"
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
        # Four points within 0.3 ps: sigma is pinned against the grid and
        # the normal matrix is numerically singular.
        points = make_points(
            np.array([5.0, 50.0, 50.0, 50.0]), np.array([0.0, 0.1, 0.2, 0.3])
        )
        fit = fit_dip(points, REFERENCE_SPLITTER)
        assert (fit.params.baseline, fit.params.visibility, fit.params.sigma_ps) == (
            50.0, 0.9021481227155688, 0.011480970481747671,
        )
        assert fit.chi_squared == 1.5777218104420237e-31
        assert fit.iterations == 35
        assert fit.converged and fit.degenerate
        assert fit.message == (
            "relative cost decrease below tolerance; singular normal matrix, "
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
            fit_center = bool(rng.integers(2)) and n >= 5
            try:
                fit_dip(make_points(counts, delays), REFERENCE_SPLITTER,
                        fit_center=fit_center)
            except ValueError:  # no baseline leverage: LM never ran
                pass
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
