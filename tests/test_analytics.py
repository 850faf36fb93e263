"""Closed-form predictions: dip lineshape, visibility budget, CAR."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hombench import (
    BeamSplitter,
    CalibrationError,
    DipModelParams,
    NoAccidentalsError,
    VisibilityBudget,
    amplitude_overlap,
    budget_from_config,
    calibrate_eta,
    car_prediction,
    fwhm_to_sigma,
    indistinguishability,
    invert_car,
    splitter_dip_factor,
    visibility_prediction,
)
from hombench.analytics import (
    _CAR_SATURATED,
    car_peak_pair_rate,
    car_slot_pmf,
    car_terms,
    dip_curve,
)

REFERENCE_SPLITTER = BeamSplitter.from_db(-3.3, -3.6)
REFERENCE_FACTOR = splitter_dip_factor(REFERENCE_SPLITTER)


def bisection_eta(target_v, p, dark_prob, extinction_ratio):
    """Oracle: the bisection `calibrate_eta` ran before its closed form.
    Returns its final bracket (lo, hi) on the efficiency."""
    def v_at(eta):
        return visibility_prediction(VisibilityBudget(p, eta, dark_prob, extinction_ratio))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if v_at(mid) < target_v:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(hi, 1e-6):
            break
    return lo, hi


def golden_car_peak(eta_s, eta_i, dark_a, dark_b, leak):
    """Oracle: the golden-section search on log p that `car_peak_pair_rate`
    ran before it took the package's grid-and-Brent minimiser."""
    def car_at(log_p):
        return car_prediction(math.exp(log_p), eta_s, eta_i, dark_a, dark_b, leak)

    lo = math.log(1e-12 / max(eta_s, eta_i))
    hi = math.log(_CAR_SATURATED / min(eta_s, eta_i))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - golden * (hi - lo), lo + golden * (hi - lo)
    car_c, car_d = car_at(c), car_at(d)
    while hi - lo > 1e-6:
        if car_c >= car_d:
            hi, d, car_d = d, c, car_c
            c = hi - golden * (hi - lo)
            car_c = car_at(c)
        else:
            lo, c, car_c = c, d, car_d
            d = lo + golden * (hi - lo)
            car_d = car_at(d)
    return math.exp(0.5 * (lo + hi))


class TestIndistinguishability:
    def test_zero_delay_is_unity(self):
        assert indistinguishability(0.0, 1.7) == 1.0

    def test_one_sigma_delay(self):
        assert indistinguishability(1.7, 1.7) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_large_delay_vanishes(self):
        assert indistinguishability(20.0, 1.7) < 1e-30

    def test_even_in_delay(self):
        for dt in (0.3, 1.0, 2.5, 7.0):
            assert indistinguishability(dt, 1.7) == indistinguishability(-dt, 1.7)

    def test_amplitude_overlap_squares_to_it(self):
        for dt in (0.0, 0.5, 1.7, 3.0):
            assert amplitude_overlap(dt, 1.7) ** 2 == pytest.approx(
                indistinguishability(dt, 1.7), rel=1e-14
            )

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_invalid_sigma_raises(self, sigma):
        with pytest.raises(ValueError):
            indistinguishability(1.0, sigma)


class TestDipModel:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            DipModelParams(-1.0, 0.8, 1.7)
        with pytest.raises(ValueError):
            DipModelParams(1000.0, 1.021, 1.7)
        with pytest.raises(ValueError):
            DipModelParams(1000.0, 0.8, 0.0)
        DipModelParams(1000.0, 1.02, 1.7)  # overshoot tolerated

    def test_splitter_factor_balanced(self):
        assert splitter_dip_factor(BeamSplitter(0.5, 0.5)) == pytest.approx(1.0, rel=1e-15)

    def test_splitter_factor_imbalanced(self):
        # 2TR/(T^2+R^2) for the -3.3/-3.6 dB coupler, derived independently
        # from the dB conversions above.
        assert splitter_dip_factor(REFERENCE_SPLITTER) == pytest.approx(
            0.9976188802465136, rel=1e-12
        )

    def test_splitter_factor_degenerate_raises(self):
        with pytest.raises(ValueError):
            splitter_dip_factor(BeamSplitter(0.0, 0.0))

    def test_balanced_dip_floor(self):
        balanced = splitter_dip_factor(BeamSplitter(0.5, 0.5))
        floor = dip_curve(0.0, 1000.0, 0.8, 1.7, balanced)
        assert floor == pytest.approx(200.0, rel=1e-12)

    def test_imbalanced_dip_floor(self):
        floor = dip_curve(0.0, 1000.0, 1.0, fwhm_to_sigma(4.0), REFERENCE_FACTOR)
        assert floor == pytest.approx(2.381119753486427, abs=1e-9)

    def test_far_delay_returns_baseline(self):
        far = dip_curve(1e3, 1000.0, 0.8, 1.7, REFERENCE_FACTOR)
        assert far == pytest.approx(1000.0, rel=1e-15)

    def test_curve_stays_within_dip_bounds(self):
        floor = 1000.0 * (1.0 - REFERENCE_FACTOR * 0.9)
        delays = np.arange(-80, 81) / 10.0
        values = dip_curve(delays, 1000.0, 0.9, 1.7, REFERENCE_FACTOR)
        assert all(floor - 1e-9 <= v <= 1000.0 + 1e-9 for v in values)
        assert values.min() == dip_curve(0.0, 1000.0, 0.9, 1.7, REFERENCE_FACTOR)


class TestVisibilityBudget:
    def test_ideal_source_limit(self):
        assert visibility_prediction(
            VisibilityBudget(0.0, 0.01, 0.0, math.inf)
        ) == pytest.approx(1.0, rel=1e-15)

    def test_worked_example(self):
        assert visibility_prediction(
            VisibilityBudget(0.03, 0.01, 1e-4, 1000.0)
        ) == pytest.approx(0.9106984969053935, rel=1e-12)

    def test_all_zero_budget_raises(self):
        with pytest.raises(ValueError):
            visibility_prediction(VisibilityBudget(0.0, 0.0, 0.0, math.inf))

    def test_monotone_in_pair_rate_and_noise(self):
        base = dict(eta=0.01, dark=1e-5, xi=1000.0)
        v_of_p = [
            visibility_prediction(VisibilityBudget(p, base["eta"], base["dark"], base["xi"]))
            for p in (0.005, 0.01, 0.02, 0.05, 0.1)
        ]
        assert all(a > b for a, b in zip(v_of_p, v_of_p[1:]))
        v_of_dark = [
            visibility_prediction(VisibilityBudget(0.03, base["eta"], d, base["xi"]))
            for d in (0.0, 1e-6, 1e-5, 1e-4)
        ]
        assert all(a > b for a, b in zip(v_of_dark, v_of_dark[1:]))
        v_of_xi = [
            visibility_prediction(VisibilityBudget(0.03, base["eta"], 1e-5, xi))
            for xi in (100.0, 1000.0, 10000.0)
        ]
        assert all(a < b for a, b in zip(v_of_xi, v_of_xi[1:]))

    def test_never_exceeds_one(self):
        for p in (0.0, 0.01, 0.1):
            for eta in (0.001, 0.1, 1.0):
                v = visibility_prediction(VisibilityBudget(p, eta, 1e-5, 1000.0))
                assert v <= 1.0


class TestCalibration:
    def test_calibrated_efficiency_value(self, default_cfg):
        budget = budget_from_config(default_cfg)
        eta = calibrate_eta(0.80, 0.03, budget.dark_prob, 1000.0)
        assert eta == pytest.approx(0.004356234096691836, rel=1e-9)
        achieved = visibility_prediction(
            VisibilityBudget(0.03, eta, budget.dark_prob, 1000.0)
        )
        assert achieved == pytest.approx(0.80, abs=1e-9)

    def test_higher_target_needs_more_efficiency(self):
        lo = calibrate_eta(0.80, 0.03, 2.14e-4, 1000.0)
        hi = calibrate_eta(0.85, 0.03, 2.14e-4, 1000.0)
        assert hi > lo

    def test_infeasible_target_raises(self):
        with pytest.raises(CalibrationError, match="achievable maximum"):
            calibrate_eta(0.999, 0.03, 2.14e-4, 1000.0)

    def test_zero_dark_floor_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_eta(0.80, 0.03, 0.0, 1000.0)

    def test_target_outside_open_interval_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_eta(1.0, 0.03, 2.14e-4, 1000.0)

    @pytest.mark.parametrize("p", [0.0, 0.005, 0.03, 0.3])
    @pytest.mark.parametrize("dark", [1e-8, 2.14e-4, 1e-2])
    @pytest.mark.parametrize("xi", [10.0, 1e3, 1e5])
    def test_closed_form_meets_the_target_and_the_bisection(self, p, dark, xi):
        # The budget is 1 - a ratio, so it is known to about ulp(1). The
        # oracle's bracket is compared at that resolution too: it is widened
        # by the change in eta that moves V by 2 ulp(1), which near the
        # ceiling at a small dark term is far wider than the bracket.
        eps = math.ulp(1.0)
        a, b = 1.0 + 3.0 * p + 1.0 / xi, 2.0 * p + 1.0 / xi
        ceiling = visibility_prediction(VisibilityBudget(p, 1.0, dark, xi))
        for fraction in (1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0):
            target = fraction * ceiling
            eta = calibrate_eta(target, p, dark, xi)
            achieved = visibility_prediction(VisibilityBudget(p, eta, dark, xi))
            assert abs(achieved - target) <= 2.0 * eps, fraction
            lo, hi = bisection_eta(target, p, dark, xi)
            slack = 2.0 * eps * (a * eta + 4.0 * dark) ** 2 / (4.0 * dark * (a - b))
            assert lo - slack <= eta <= hi + slack, fraction


class TestCar:
    def test_source_off_gives_unity(self):
        assert car_prediction(0.0, 0.1, 0.1, 1e-4, 1e-4) == pytest.approx(1.0, rel=1e-15)

    def test_worked_example(self):
        assert car_prediction(0.03, 0.01, 0.01, 1e-4, 1e-4) == pytest.approx(
            19.742060684269795, rel=1e-12
        )

    def test_calibrated_defaults_bracket_the_headline(self, default_cfg):
        car = car_prediction(*car_terms(default_cfg))
        assert car == pytest.approx(29.457666308711875, rel=1e-9)
        assert 20.0 < car < 40.0

    def test_decreasing_in_darks_and_at_least_one(self):
        cars = [
            car_prediction(0.03, 0.1, 0.1, d, d) for d in (1e-6, 1e-5, 1e-4, 1e-3)
        ]
        assert all(a > b for a, b in zip(cars, cars[1:]))
        assert all(c >= 1.0 for c in cars)

    def test_monotone_decrease_in_pair_rate_past_peak(self):
        assert car_prediction(0.01, 0.1, 0.1, 1e-5, 1e-5) > car_prediction(
            0.05, 0.1, 0.1, 1e-5, 1e-5
        )

    def test_no_accidentals_is_a_distinct_error(self):
        with pytest.raises(NoAccidentalsError):
            car_prediction(0.0, 0.1, 0.1, 0.0, 0.0)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            car_prediction(-0.01, 0.1, 0.1, 1e-4, 1e-4)
        with pytest.raises(ValueError):
            car_prediction(0.01, 1.1, 0.1, 1e-4, 1e-4)
        with pytest.raises(ValueError):
            car_prediction(0.01, 0.1, 0.1, 1.0, 1e-4)
        with pytest.raises(ValueError):
            car_prediction(0.01, 0.1, 0.1, 1e-4, 1e-4, 1.5)

    def test_peak_pair_rate_maximises_the_car(self, default_cfg):
        # At the reference instrument the peak is in the low-rate regime,
        # where it tends to sqrt(dark_a dark_b / (eta_s eta_i)).
        _, *terms = car_terms(default_cfg)
        eta_s, eta_i, dark_a, dark_b, _ = terms
        peak = car_peak_pair_rate(*terms)
        assert peak == pytest.approx(
            math.sqrt(dark_a * dark_b / (eta_s * eta_i)), rel=1e-3
        )
        top = car_prediction(peak, *terms)
        for p in peak * np.array([1e-3, 0.5, 0.99, 0.999, 1.001, 1.01, 2.0, 1e3]):
            assert car_prediction(p, *terms) < top

    @pytest.mark.parametrize(
        "case", ["reference", "car-bright", "one dark-free", "both dark-free", "eta 1e-6"]
    )
    def test_peak_meets_the_golden_section_oracle(self, default_cfg, case):
        _, eta_s, eta_i, dark_a, dark_b, leak = car_terms(default_cfg)
        terms = {
            "reference": (eta_s, eta_i, dark_a, dark_b, leak),
            "car-bright": (1.0, 1.0, dark_a, dark_b, leak),
            "one dark-free": (eta_s, eta_i, 0.0, dark_b, leak),
            "both dark-free": (eta_s, eta_i, 0.0, 0.0, leak),
            "eta 1e-6": (1e-6, 1e-6, dark_a, dark_b, leak),
        }[case]
        peak, oracle = car_peak_pair_rate(*terms), golden_car_peak(*terms)
        top = car_prediction(peak, *terms)
        assert top >= car_prediction(oracle, *terms) * (1.0 - 1e-12)
        assert abs(math.log(peak / oracle)) <= 1e-5
        if case == "both dark-free":  # the CAR grows without bound as p -> 0+
            low_end = math.log(1e-12 / max(terms[0], terms[1]))
            assert math.log(peak) == pytest.approx(low_end, abs=1e-6)

    @staticmethod
    def singles(p, *terms):
        """The singles product q_A q_B a run at pair rate p observes."""
        _, p01, p10, p11 = car_slot_pmf(p, *terms)
        return (p10 + p11) * (p01 + p11)

    @pytest.mark.parametrize("leak", [0.0, 1e-3])
    @pytest.mark.parametrize("darks", [(0.0, 0.0), (0.0, 2e-7), (1e-7, 0.0), (1e-7, 3e-7)])
    @pytest.mark.parametrize("eta", [4e-3, 0.05, 0.3, 1.0])
    def test_invert_round_trips(self, eta, darks, leak):
        # Pair rates from 1e-3 up lie past the peak (below 1e-4 for these
        # darks); with both detectors dark, the rates below it lie on the
        # rising branch, and the singles pick that branch.
        terms = (eta, 0.8 * eta, *darks, leak)
        peak = car_peak_pair_rate(*terms)
        assert peak < 1e-4
        rising = (0.01 * peak, 0.3 * peak) if min(darks) > 0.0 else ()
        for p in (*rising, 1e-3, 0.01, 0.1, 1.0, 10.0):
            car = car_prediction(p, *terms)
            assert invert_car(car, self.singles(p, *terms), *terms) == pytest.approx(
                p, rel=1e-9), p

    def test_one_dark_free_detector_bounds_the_car(self):
        # p -> 0+ limit: 1 + (1 - dark) eta / dark, from the detector that has
        # darks and the efficiency of the other arm.
        limit = 1.0 + (1.0 - 2e-5) * 0.08 / 2e-5
        terms = (0.1, 0.08, 0.0, 2e-5, 0.0)
        assert invert_car(limit * 0.999, self.singles(1e-3, *terms), *terms) > 0.0
        with pytest.raises(CalibrationError):
            invert_car(limit * 1.001, self.singles(1e-3, *terms), *terms)

    def test_invert_rejects_unreachable_car(self, default_cfg):
        _, *terms = car_terms(default_cfg)
        peak = car_peak_pair_rate(*terms)
        top = car_prediction(peak, *terms)
        assert invert_car(top * 0.999, self.singles(2 * peak, *terms), *terms) > peak
        assert invert_car(top * 0.999, self.singles(peak / 2, *terms), *terms) < peak
        for car in (top * 1.01, 1.0, 0.5):
            with pytest.raises(CalibrationError):
                invert_car(car, self.singles(peak, *terms), *terms)
        # A blind arm: the CAR is 1 at every pair rate.
        with pytest.raises(CalibrationError):
            invert_car(2.0, 1e-6, 0.0, 0.1, 1e-5, 1e-5, 0.0)


def test_budget_from_config_averages_channels(default_cfg):
    cfg = replace(
        default_cfg,
        channel_s=replace(default_cfg.channel_s, transmittance=0.02),
        channel_i=replace(default_cfg.channel_i, transmittance=0.04),
    )
    budget = budget_from_config(cfg)
    assert budget.efficiency == pytest.approx(0.03, rel=1e-12)
    assert budget.dark_prob == pytest.approx(
        (cfg.detector_a.dark_prob_per_gate + cfg.detector_b.dark_prob_per_gate) / 2.0
    )
    assert budget.pairs_per_pulse == cfg.source.mean_pairs_per_pulse
    assert budget.extinction_ratio == cfg.source.extinction_ratio
