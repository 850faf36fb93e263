"""Levenberg-Marquardt engine and the dip-lineshape fit built on it."""

import math

import numpy as np
import pytest
from scipy.optimize import curve_fit

from hombench import (
    BeamSplitter,
    DipModelParams,
    ScanPoint,
    dip_model,
    finite_difference_jacobian,
    fit_dip,
    levenberg_marquardt,
    splitter_dip_factor,
)
from hombench.fitting import _dip_curve, _dip_jacobian_external

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
    params = DipModelParams(baseline, visibility, sigma, splitter)
    return np.array([dip_model(float(d) - center, params) for d in delays])


class TestLevenbergMarquardt:
    def test_linear_model_converges_immediately(self):
        x = np.arange(8.0)
        y = 2.0 * x

        def model(x, theta):
            return theta[0] * x

        result = levenberg_marquardt(model, x, y, np.ones_like(x), np.array([0.3]))
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

        result = levenberg_marquardt(model, x, y, w, np.array([0.0, 0.0]))
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

        result = levenberg_marquardt(
            model, x, y, np.ones(2), np.array([-1.2, 1.0]),
            max_iterations=500,
        )
        assert result.converged
        np.testing.assert_allclose(result.theta, [1.0, 1.0], atol=1e-8)

    def test_nan_at_start_raises(self):
        def model(x, theta):
            return np.full_like(x, math.nan)

        with pytest.raises(ValueError):
            levenberg_marquardt(
                model, np.ones(3), np.ones(3), np.ones(3), np.array([1.0])
            )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_invalid_weights_rejected(self, bad):
        def model(x, theta):
            return theta[0] * x

        w = np.ones(3)
        w[1] = bad
        with pytest.raises(ValueError):
            levenberg_marquardt(model, np.ones(3), np.ones(3), w, np.array([1.0]))

    def test_degenerate_parameterization_is_flagged(self):
        # theta[0] and theta[1] only enter through their sum: the normal
        # matrix is singular everywhere.
        x = np.arange(6.0)
        y = 3.0 * x

        def model(x, theta):
            return (theta[0] + theta[1]) * x

        result = levenberg_marquardt(model, x, y, np.ones_like(x), np.array([1.0, 1.0]))
        assert result.degenerate
        assert np.isfinite(result.covariance).all()

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
        init = DipModelParams(12000.0, 0.8, 1.7, REFERENCE_SPLITTER)
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
        init = DipModelParams(900.0, 0.5, 2.0, REFERENCE_SPLITTER)
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
