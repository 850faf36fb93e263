"""Monte Carlo engine: samplers, determinism, and oracle agreement."""

import decimal
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hombench import (
    BeamSplitter,
    ConfigError,
    InsufficientStatisticsError,
    OpticalChannel,
    amplitude_overlap,
    budget_from_config,
    car_prediction,
    gate_pattern_distribution,
    run_car,
    run_dip_scan,
    run_visibility_sweep,
    simulate_gate,
    visibility_prediction,
)
from hombench import exact, fock, simulate
from hombench.analytics import car_peak_pair_rate, car_slot_pmf, car_terms, invert_car
from hombench.exact import _pair_arrangements, _pair_pattern_probs
from hombench.simulate import CarResult, _offset_walk, thread_cap

# Pattern vector order: (no click, B only, A only, both).
FROZEN_DEFAULT_PMF = [
    0.9993362812512148,
    0.00043699690916110256,
    0.00022662172261589397,
    1.0011700842417349e-07,
]

# CAR per-slot pmf, delay parked at 10 sigma: reference instrument, then
# the bright corner p = 2, eta = 1.
FROZEN_CAR_PMF = [
    0.9997178349313576,
    0.00014604786446614781,
    0.0001355292391977958,
    5.879649784823471e-07,
]
FROZEN_BRIGHT_CAR_PMF = [
    0.13533238707330156,
    0.00027282867232331087,
    0.0002714020976931075,
    0.864123382156682,
]


def _poisson_mixture(p, x):
    """sum_n Pois(n; p) x^n, term by term until the terms vanish."""
    return math.fsum(math.exp(-p) * p**n / math.factorial(n) * x**n for n in range(120))


@pytest.mark.parametrize("p", [0.0, 0.03, 2.0, 30.0, 800.0])
def test_poisson_pmf_sums_to_one(p):
    pmf = simulate._poisson_pmf(p)
    assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)
    # The omitted tail is below 2^-64: the last term bounds it.
    assert pmf[-1] < 2.0**-64 and pmf.size >= 2.0 * p


class TestGatePatternDistribution:
    def test_sums_to_one(self, default_cfg, symmetric_cfg):
        # Source off, a saturated lossless source, no darks, and full
        # crosstalk: the rows need no clipping or renormalising.
        rng = np.random.default_rng(0)
        for cfg in (default_cfg, symmetric_cfg(0.05, 0.2, 1e-4), symmetric_cfg(0.0, 0.2, 1e-4),
                    symmetric_cfg(800.0, 1.0, 1e-4), symmetric_cfg(0.05, 0.2, 0.0),
                    symmetric_cfg(0.05, 0.2, 1e-4, extinction=1.0)):
            pmf = gate_pattern_distribution(cfg)
            assert pmf.shape == (4,)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
            assert (pmf >= 0.0).all()
            assert rng.multinomial(10**6, pmf).sum() == 10**6

    def test_frozen_values_at_calibrated_defaults(self, default_cfg):
        np.testing.assert_allclose(
            gate_pattern_distribution(default_cfg), FROZEN_DEFAULT_PMF, rtol=1e-10
        )

    def test_far_delay_coincidence_floor(self, default_cfg):
        pmf = gate_pattern_distribution(replace(default_cfg, delay_ps=60.0))
        assert pmf[3] == pytest.approx(3.320491224201305e-07, rel=1e-10)

    @pytest.mark.parametrize("p, visibility", [
        (0.005, 0.4705), (0.01, 0.5927), (0.03, 0.7002), (0.1, 0.6834),
    ])
    def test_exact_visibility_at_the_reference_efficiency(self, default_cfg, p, visibility):
        cfg = replace(default_cfg, source=replace(default_cfg.source, mean_pairs_per_pulse=p))
        assert exact.exact_visibility(cfg) == pytest.approx(visibility, abs=1e-4)

    def test_kappa_override_matches_far_delay(self, default_cfg):
        far = gate_pattern_distribution(replace(default_cfg, delay_ps=1e4))
        forced = gate_pattern_distribution(default_cfg, kappa=0.0)
        np.testing.assert_allclose(forced, far, rtol=1e-12)

    def test_dip_suppresses_coincidences(self, symmetric_cfg):
        on_dip = gate_pattern_distribution(symmetric_cfg(0.05, 0.2, 0.0))
        off_dip = gate_pattern_distribution(
            symmetric_cfg(0.05, 0.2, 0.0, delay_ps=60.0)
        )
        assert on_dip[3] < off_dip[3]

    @pytest.mark.parametrize("p", [0.0, 0.03, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("kappa", [0.0, 0.6, 1.0])
    def test_mixes_pair_numbers_by_their_poisson_law(self, default_cfg, p, kappa):
        # The no-click probabilities of a gate: a pair leaves A silent with
        # x = P00 + P01, B silent with P00 + P10, both silent with P00.
        cfg = replace(default_cfg, source=replace(default_cfg.source, mean_pairs_per_pulse=p))
        x00, x01, x10, _ = _pair_pattern_probs(cfg, [kappa])[0]
        dark_a = cfg.detector_a.dark_prob_per_gate
        dark_b = cfg.detector_b.dark_prob_per_gate
        pmf = gate_pattern_distribution(cfg, kappa=kappa)
        for got, want in (
            (pmf[0], (1.0 - dark_a) * (1.0 - dark_b) * _poisson_mixture(p, x00)),
            (pmf[0] + pmf[1], (1.0 - dark_a) * _poisson_mixture(p, x00 + x01)),
            (pmf[0] + pmf[2], (1.0 - dark_b) * _poisson_mixture(p, x00 + x10)),
        ):
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.03, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("eta", [4.356e-3, 0.5, 1.0])
    def test_car_pmf_mixes_pair_numbers_by_their_poisson_law(self, default_cfg, p, eta):
        # Detector A reads arm s: a pair leaves it silent unless its signal
        # stays in s or its idler leaks there, and that photon survives.
        cfg = replace(
            default_cfg, delay_ps=60.0,
            source=replace(default_cfg.source, mean_pairs_per_pulse=p),
            channel_s=OpticalChannel(eta), channel_i=OpticalChannel(0.8 * eta),
        )
        _, u_s, u_i, dark_a, dark_b, leak = car_terms(cfg)
        assert leak == 1.0 / cfg.source.extinction_ratio
        a_silent = (1.0 - (1.0 - leak) * u_s) * (1.0 - leak * u_s)
        b_silent = (1.0 - (1.0 - leak) * u_i) * (1.0 - leak * u_i)
        silent = (1.0 - (1.0 - leak) * u_s - leak * u_i) * (1.0 - leak * u_s - (1.0 - leak) * u_i)
        pmf = car_slot_pmf(*car_terms(cfg))
        for got, want in (
            (pmf[0], (1.0 - dark_a) * (1.0 - dark_b) * _poisson_mixture(p, silent)),
            (pmf[0] + pmf[1], (1.0 - dark_a) * _poisson_mixture(p, a_silent)),
            (pmf[0] + pmf[2], (1.0 - dark_b) * _poisson_mixture(p, b_silent)),
        ):
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("extinction", [1e30, 1e3, 10.0])
    @pytest.mark.parametrize("darks", [(0.0, 0.0), (0.0, 2e-4), (1e-4, 3e-4)])
    def test_car_matches_the_routing_enumerator(self, default_cfg, extinction, darks):
        # The per-slot CAR from one pair's routed arrangements, each fixing a
        # click pattern (A reads arm s, B arm i), mixed in 40-digit decimals.
        pattern = {"none": 0, "single_i": 1, "same_i": 1,
                   "single_s": 2, "same_s": 2, "cross": 3}
        for p, eta in ((p, eta) for p in (0.0, 1e-3, 0.03, 1.0, 5.0)
                       for eta in (4e-3, 0.1, 1.0)):
            if p == 0.0 and 0.0 in darks:
                continue  # a detector that never clicks: no accidentals
            cfg = replace(
                default_cfg, delay_ps=60.0,
                source=replace(default_cfg.source, mean_pairs_per_pulse=p,
                               extinction_ratio=extinction),
                channel_s=OpticalChannel(eta), channel_i=OpticalChannel(0.8 * eta),
                detector_a=replace(default_cfg.detector_a, dark_prob_per_gate=darks[0]),
                detector_b=replace(default_cfg.detector_b, dark_prob_per_gate=darks[1]),
            )
            terms = car_terms(cfg)
            with decimal.localcontext(prec=40):
                pi = [decimal.Decimal(0)] * 4
                for weight, kind in _pair_arrangements(terms[5], terms[1], terms[2]):
                    pi[pattern[kind]] += decimal.Decimal(weight)
                mean, dark_a, dark_b = (decimal.Decimal(v) for v in (p, *terms[3:5]))
                silent_a = (1 - dark_a) * (-mean * (pi[2] + pi[3])).exp()
                silent_b = (1 - dark_b) * (-mean * (pi[1] + pi[3])).exp()
                silent = (1 - dark_a) * (1 - dark_b) * (-mean * sum(pi[1:])).exp()
                both = 1 - silent_a - silent_b + silent
                enumerated = float(both / ((1 - silent_a) * (1 - silent_b)))
            assert car_prediction(*terms) == pytest.approx(enumerated, rel=1e-10), (p, eta)

    @pytest.mark.parametrize("p", [1e-6, 1e-4, 0.03, 2.0])
    @pytest.mark.parametrize("darks", [False, True])
    @pytest.mark.parametrize("rows", ["one by one", "one scan"])
    def test_dip_pmf_matches_the_decimal_mixture(self, default_cfg, p, darks, rows):
        # Each pattern of the gate pmf from one pair's pattern probabilities,
        # mixed over Poisson pair numbers with darks in 40-digit decimals,
        # on a grid of overlaps: a float64 row of four per overlap, whether
        # built alone or as one scan's array. At low rates P11 is far below
        # the no-click probability, so it keeps its digits only if it is
        # never a difference from 1.
        detectors = {} if darks else {
            "detector_a": replace(default_cfg.detector_a, dark_prob_per_gate=0.0),
            "detector_b": replace(default_cfg.detector_b, dark_prob_per_gate=0.0)}
        cfg = replace(default_cfg, source=replace(default_cfg.source, mean_pairs_per_pulse=p),
                      **detectors)
        kappas = [0.0, 0.3, 0.7, 0.95, 1.0]
        if rows == "one scan":
            got = exact._gate_pmfs(cfg, kappas)
        else:
            alone = [gate_pattern_distribution(cfg, kappa=kappa) for kappa in kappas]
            assert all(row.dtype == np.float64 and row.shape == (4,) for row in alone)
            got = np.array(alone)
        assert got.dtype == np.float64 and got.shape == (len(kappas), 4)
        mixed = []
        with decimal.localcontext(prec=40):
            mean, dark_a, dark_b = (decimal.Decimal(v) for v in (
                p, cfg.detector_a.dark_prob_per_gate, cfg.detector_b.dark_prob_per_gate))
            for row in _pair_pattern_probs(cfg, kappas).tolist():
                pi = [decimal.Decimal(v) for v in row]
                silent_a = (1 - dark_a) * (-mean * (pi[2] + pi[3])).exp()
                silent_b = (1 - dark_b) * (-mean * (pi[1] + pi[3])).exp()
                silent = (1 - dark_a) * (1 - dark_b) * (-mean * sum(pi[1:])).exp()
                mixed.append([float(v) for v in (silent, silent_a - silent, silent_b - silent,
                                                 1 - silent_a - silent_b + silent)])
        np.testing.assert_allclose(got, mixed, rtol=1e-12)

    @pytest.mark.parametrize("p, gap", [(0.03, 0.0270428), (0.1, 0.0800326)])
    def test_multimode_limit_against_identical_pairs(self, symmetric_cfg, p, gap):
        # The gate model treats the pairs of one pulse as distinguishable. If
        # every photon of an arm shared one mode, the dip would be deeper:
        # n pairs thinned to k_s, k_i photons by eta and interfered together
        # by the oracle, darks and crosstalk off. Pair numbers here keep the
        # gate model's Poisson weights, so the gap is the mode sharing alone;
        # a single-mode source also changes them (thermal pin below).
        cfg = symmetric_cfg(p, 0.05, 0.0, extinction=1e300)
        poisson = [math.exp(-p) * p**n / math.factorial(n) for n in range(9)]
        assert _identical_pair_dip(cfg, poisson) - _gate_dip(cfg) == pytest.approx(gap, abs=1e-6)

    @pytest.mark.parametrize("p, gap", [(0.03, 0.0028969), (0.1, 0.0226847)])
    def test_single_mode_source_against_multimode_limit(self, symmetric_cfg, p, gap):
        # A single-mode source puts all pairs of a pulse in one mode per arm
        # and draws their number from a thermal law, p^n / (1 + p)^(n + 1):
        # its extra bunching offsets most of the deeper dip of shared modes.
        cfg = symmetric_cfg(p, 0.05, 0.0, extinction=1e300)
        thermal = [p**n / (1.0 + p) ** (n + 1) for n in range(9)]
        assert _identical_pair_dip(cfg, thermal) - _gate_dip(cfg) == pytest.approx(gap, abs=1e-6)

    def test_invalid_config_rejected(self, default_cfg):
        bad = replace(default_cfg, delay_ps=math.nan)
        with pytest.raises(ConfigError):
            gate_pattern_distribution(bad)

    @pytest.mark.parametrize("kappa", [-0.1, 1.5, math.nan])
    @pytest.mark.parametrize("eta", [0.2, 0.0])
    def test_kappa_override_out_of_range_rejected(self, symmetric_cfg, eta, kappa):
        # eta = 0 loses every photon, so no "cross" arrangement ever reaches
        # the oracle: the check must not depend on the routing.
        with pytest.raises(ValueError, match=re.escape(repr(kappa))):
            gate_pattern_distribution(symmetric_cfg(0.03, eta, 1e-4), kappa=kappa)


def _identical_pair_dip(cfg, weights) -> float:
    """1 - P11(1) / P11(0) when the n pairs of a pulse, drawn with
    probability weights[n], share one mode per arm and interfere together.

    Both arms' n photons are thinned by one transmittance eta; survivors
    past the oracle's four photons are left out, and so are n > 8.
    """
    eta = cfg.channel_s.transmittance
    t, r = cfg.splitter.transmittance, cfg.splitter.reflectance

    def p11(kappa):
        total = 0.0
        for n in range(1, len(weights)):
            for k_s in range(n + 1):
                for k_i in range(max(2 - k_s, 0), min(n, 4 - k_s) + 1):
                    thinned = (math.comb(n, k_s) * math.comb(n, k_i) * eta ** (k_s + k_i)
                               * (1.0 - eta) ** (2 * n - k_s - k_i))
                    total += weights[n] * thinned * fock.coincidence_prob(k_s, k_i, kappa, t, r)
        return total

    return 1.0 - p11(1.0) / p11(0.0)


def _gate_dip(cfg) -> float:
    """1 - P11(1) / P11(0) of the gate model: pairs mutually distinguishable."""
    return 1.0 - (gate_pattern_distribution(cfg, kappa=1.0)[3]
                  / gate_pattern_distribution(cfg, kappa=0.0)[3])


def _clear_pmf_caches() -> None:
    exact._pair_click_dist.cache_clear()


def _superposed_pair_probs(cfg, kappa):
    """`_pair_pattern_probs` with each cross pair evolved as a superposition.

    The idler rides kappa |matched> + sqrt(1 - kappa^2) |orthogonal>, the
    state the kappa^2 mixture of the gate model must reproduce.
    """
    surv = cfg.splitter.survival
    u = fock.splitter_unitary(cfg.splitter.effective_t, cfg.splitter.effective_r)
    pi = np.zeros(4)
    for weight, kind in _pair_arrangements(
        1.0 / cfg.source.extinction_ratio,
        cfg.channel_s.transmittance * surv,
        cfg.channel_i.transmittance * surv,
    ):
        if kind == "none":
            pi[0] += weight
            continue
        state = (fock.temporal_decompose(kappa, 1, 1) if kind == "cross"
                 else exact._FOCK_INPUT[kind])
        pi += weight * exact._vec(fock.click_pattern_probs(state, u))
    return pi


def test_overlap_mixture_matches_superposition(symmetric_cfg):
    # eta = 0.8 and 10 dB extinction visit every arrangement; the lossy
    # splitter (T + R = 0.9) runs from a pure reflector to a pure
    # transmitter.
    base = symmetric_cfg(0.03, 0.8, 1e-4, extinction=10.0)
    for t in (0.0, 0.2, 0.45, 0.7, 0.9):
        cfg = replace(base, splitter=BeamSplitter(t, 0.9 - t))
        for kappa in (0.0, 0.25, 0.5, 1.0 / math.sqrt(2.0), 0.9, 1.0):
            np.testing.assert_allclose(
                exact._pair_pattern_probs(cfg, kappa),
                _superposed_pair_probs(cfg, kappa), rtol=0.0, atol=1e-15,
                err_msg=f"T={t}, kappa={kappa}",
            )


class TestPmfCaches:
    def test_oracle_runs_six_times_per_splitter(self, symmetric_cfg, monkeypatch):
        _clear_pmf_caches()
        calls = []
        calls_before_row = []
        oracle, scan = fock.click_pattern_probs, simulate.run_dip_scan

        def counted_oracle(*args, **kwargs):
            calls.append(args)
            return oracle(*args, **kwargs)

        def marked_scan(*args, **kwargs):
            calls_before_row.append(len(calls))
            return scan(*args, **kwargs)

        monkeypatch.setattr(fock, "click_pattern_probs", counted_oracle)
        monkeypatch.setattr(simulate, "run_dip_scan", marked_scan)
        cfg = symmetric_cfg(0.03, 0.2, 1e-4)
        delays = np.linspace(-6.0, 6.0, 21).tolist()
        run_visibility_sweep(cfg, [0.02, 0.05], 200_000, seed=6, delays=delays)
        # Four arrangements plus the twin and split parts of a cross pair,
        # whatever the number of delays or rows.
        assert len(calls_before_row) == 2
        assert len(calls) == 6
        assert len(calls) == calls_before_row[1]  # the second row is all hits

    def test_cold_and_warm_builds_are_bit_identical(self, symmetric_cfg):
        sigma = symmetric_cfg(0.03, 0.2, 1e-4).wavepacket.sigma_ps
        delays = [0.0, 1.3, 4.0, 60.0 * sigma]
        assert amplitude_overlap(delays[0], sigma) == 1.0
        assert amplitude_overlap(delays[-1], sigma) == 0.0
        grid = [
            symmetric_cfg(p, eta, 1e-4, delay_ps=d)
            for p in (0.01, 0.3) for eta in (0.05, 1.0) for d in delays
        ]
        cold = []
        for cfg in grid:
            _clear_pmf_caches()
            cold.append(gate_pattern_distribution(cfg).tobytes())
        warm = [gate_pattern_distribution(cfg).tobytes() for cfg in reversed(grid)]
        assert warm[::-1] == cold

    def test_scan_rows_match_one_delay_builds(self, symmetric_cfg):
        sigma = symmetric_cfg(0.03, 0.2, 1e-4).wavepacket.sigma_ps
        delays = [-6.0, 0.0, 0.7, 3.0, 60.0 * sigma]
        kappas = [amplitude_overlap(d, sigma) for d in delays]
        assert kappas[1] == 1.0 and kappas[-1] == 0.0
        for p in (0.01, 0.3, 2.0):
            for eta in (0.05, 1.0):
                cfg = symmetric_cfg(p, eta, 1e-4)
                rows = exact._gate_pmfs(cfg, kappas)
                pair_rows = exact._pair_pattern_probs(cfg, kappas)
                assert rows.shape == pair_rows.shape == (len(delays), 4)
                for d, kappa, row, pair_row in zip(delays, kappas, rows, pair_rows):
                    one = gate_pattern_distribution(replace(cfg, delay_ps=d))
                    assert row.tobytes() == one.tobytes(), (p, eta, d)
                    assert pair_row.tobytes() == (
                        exact._pair_pattern_probs(cfg, kappa).tobytes()
                    ), (p, eta, d)

    @pytest.mark.parametrize("sampler", ["multinomial", "per-gate"])
    def test_scan_builds_pair_probs_once_per_row(
        self, symmetric_cfg, monkeypatch, sampler
    ):
        calls = []
        pair_probs = exact._pair_pattern_probs

        def counted(*args, **kwargs):
            calls.append(args)
            return pair_probs(*args, **kwargs)

        monkeypatch.setattr(exact, "_pair_pattern_probs", counted)
        monkeypatch.setattr(simulate, "_pair_pattern_probs", counted)
        delays = np.linspace(-12.0, 12.0, 401).tolist()
        run_visibility_sweep(symmetric_cfg(0.03, 0.2, 1e-4), [0.02, 0.05], 10_000,
                             seed=6, delays=delays, sampler=sampler)
        # Per row, one build for the scan's 401 overlaps and one for the
        # exact visibility's two (kappa = 1 and 0).
        assert sorted(np.size(kappa) for _, kappa in calls) == [2, 2, 401, 401]


@given(t=st.floats(0.0, 1.0))
@example(t=0.5172625244323762)  # the reference splitter
def test_oracle_click_distributions_are_polynomials_in_t_and_r(t):
    # (no click, B only, A only, both) of each oracle input through a
    # lossless splitter with T = t, R = r.
    r = 1.0 - t
    expected = {
        "twin": (0.0, 2 * t * r, 2 * t * r, (t - r) ** 2),
        "split": (0.0, t * r, t * r, t * t + r * r),
        "same_s": (0.0, r * r, t * t, 2 * t * r),
        "same_i": (0.0, t * t, r * r, 2 * t * r),
        "single_s": (0.0, r, t, 0.0),
        "single_i": (0.0, t, r, 0.0),
    }
    for kind, want in expected.items():
        np.testing.assert_allclose(exact._pair_click_dist(kind, t, r), want,
                                   rtol=0, atol=1e-12, err_msg=kind)


@given(
    leak=st.floats(0.0, 0.5),
    u_s=st.floats(0.0, 1.0),
    u_i=st.floats(0.0, 1.0),
)
def test_pair_arrangements_are_a_distribution(leak, u_s, u_i):
    branches = list(_pair_arrangements(leak, u_s, u_i))
    assert sum(weight for weight, _ in branches) == pytest.approx(1.0, abs=1e-12)
    assert all(weight > 0.0 for weight, _ in branches)
    assert {kind for _, kind in branches} <= {
        "none", "single_s", "single_i", "same_s", "same_i", "cross"
    }


def _clicks_with_patterns(positions):
    n = len(positions)
    return st.tuples(
        st.just(np.array(sorted(positions), dtype=np.int64)),
        st.lists(st.sampled_from([1, 2, 3]), min_size=n, max_size=n).map(
            lambda pats: np.array(pats, dtype=np.int64)
        ),
        st.integers(0, n),
    )


def _ints(*values):
    return np.array(values, dtype=np.int64)


# Patterns: 1 = B only, 2 = A only, 3 = both. The first n_old clicks are
# carried in from earlier batches.
@given(clicks=st.sets(st.integers(0, 80)).flatmap(_clicks_with_patterns),
       k_max=st.integers(1, 12))
@example(clicks=(_ints(3, 40, 80), _ints(2, 2, 1), 0), k_max=10)  # B at the end
@example(clicks=(_ints(), _ints(), 0), k_max=10)  # no clicks
@example(clicks=(_ints(1, 2, 3), _ints(3, 3, 3), 3), k_max=10)  # all carried
@example(clicks=(_ints(*range(30)), _ints(*[3] * 30), 10), k_max=3)  # long run
@example(clicks=(_ints(*range(40)), _ints(*[2, 1] * 20), 25), k_max=12)
def test_offset_walk_matches_intersections(clicks, k_max):
    assert _offset_walk(*clicks, k_max).tolist() == _intersections(*clicks, k_max)


def _intersections(pos, pat, n_old, k_max):
    a = pos[pat != 1]
    b = pos[n_old:][pat[n_old:] != 2]  # pairs are counted at their B click
    return [np.intersect1d(a, b - k, assume_unique=True).size
            for k in range(1, k_max + 1)]


# Dense clicks (span at most twice their number) take the indicator path,
# sparse ones the walk; gaps of 1..3 straddle the switch.
@given(clicks=st.one_of(
           st.lists(st.integers(1, 3), max_size=300),
           st.lists(st.one_of(st.integers(1, 50), st.integers(1, 10**6)), max_size=60),
       ).map(lambda gaps: np.cumsum(gaps).tolist()).flatmap(_clicks_with_patterns),
       k_max=st.integers(1, 40))
@example(clicks=(_ints(0, 1, 3, 6, 9), _ints(2, 3, 1, 3, 1), 1), k_max=10)  # span 2n
@example(clicks=(_ints(0, 1, 3, 6, 10), _ints(2, 3, 1, 3, 1), 1), k_max=10)  # 2n + 1
@example(clicks=(_ints(7), _ints(3), 0), k_max=5)  # one click
@example(clicks=(_ints(), _ints(), 0), k_max=40)  # no clicks
@example(clicks=(_ints(*range(10)), _ints(*[3] * 10), 10), k_max=40)  # all carried
@example(clicks=(_ints(*range(0, 12, 2)), _ints(*[2, 3, 1] * 2), 2), k_max=40)  # k_max > span
def test_offset_counts_match_intersections_dense_and_sparse(clicks, k_max):
    assert _offset_walk(*clicks, k_max).tolist() == _intersections(*clicks, k_max)


@pytest.mark.parametrize("field, value", [
    ("extinction_ratio", 0.0), ("mean_pairs_per_pulse", -1.0),
])
def test_simulate_gate_rejects_invalid_config(symmetric_cfg, field, value):
    cfg = symmetric_cfg(0.05, 0.2, 1e-4)
    bad = replace(cfg, source=replace(cfg.source, **{field: value}))
    with pytest.raises(ConfigError):
        simulate_gate(bad, np.random.default_rng(0))


def test_simulate_gate_tracks_exact_pmf(symmetric_cfg):
    # Chi-square of the staged single-gate mechanism against the closed
    # pmf; 3 dof, threshold at the 0.1% tail. Fixed seed keeps it exact.
    cfg = symmetric_cfg(0.05, 0.2, 1e-4)
    pmf = gate_pattern_distribution(cfg)
    rng = np.random.default_rng(42)
    counts = np.zeros(4)
    n = 200_000
    for _ in range(n):
        rec = simulate_gate(cfg, rng)
        counts[2 * rec.click_a + rec.click_b] += 1
    expected = pmf * n
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 16.27


class TestGenerators:
    @pytest.mark.parametrize("entropy", [0, 7, 2**32 - 1, 2**64 + 3, 2**128 + 5])
    @pytest.mark.parametrize("spawn_key", [(), (3,), (2, 9)])
    @pytest.mark.parametrize("width", [1, 2])
    def test_match_one_seed_sequence_per_key(self, entropy, spawn_key, width):
        base = np.random.SeedSequence(entropy, spawn_key=spawn_key)
        keys = np.random.default_rng(entropy % 101).integers(0, 2**32, (30, width))
        keys[0], keys[1] = 0, 2**32 - 1
        for key, rng in zip(keys.tolist(), simulate._generators(base, keys)):
            ref = simulate._rng(simulate._child(base, *key))
            assert rng.bit_generator.state == ref.bit_generator.state, key
            assert rng.random(3).tobytes() == ref.random(3).tobytes(), key

    def test_words_do_not_depend_on_the_chunk_size(self, monkeypatch):
        base = np.random.SeedSequence(11, spawn_key=(4,))
        keys = np.column_stack(np.divmod(np.arange(30), 6))
        whole = simulate._seed_words(base, keys)
        monkeypatch.setattr(simulate, "_SEED_CHUNK", 7)  # four full chunks and a short one
        chunked = simulate._seed_words(base, keys)
        assert chunked.tobytes() == whole.tobytes()
        for key, words in zip(keys.tolist(), chunked):
            ref = simulate._rng(simulate._child(base, *key))
            assert simulate._rng(simulate._Words(words)).bit_generator.state == (
                ref.bit_generator.state), key

    def test_key_elements_are_single_words(self):
        with pytest.raises(AssertionError, match="uint32"):
            simulate._generators(np.random.SeedSequence(0), [(1, 2**32)])


def _searchsorted_batch(rng, n_gates, pair_count_pmf, pattern_cum, dark_a, dark_b):
    """`simulate._simulate_batch` as pattern indices and one bincount."""
    head = pair_count_pmf[:3]
    by_n = rng.multinomial(n_gates, [*head, max(0.0, 1.0 - head.sum())])
    idle = rng.multinomial(by_n[0], [
        (1.0 - dark_a) * (1.0 - dark_b), (1.0 - dark_a) * dark_b,
        dark_a * (1.0 - dark_b), dark_a * dark_b,
    ])
    active = n_gates - int(by_n[0])
    click_a = np.zeros(active, dtype=bool)
    click_b = np.zeros(active, dtype=bool)

    def pair_slot(m):
        pat = np.searchsorted(pattern_cum, rng.random(m), side="right")
        click_a[:m] |= (pat == 2) | (pat == 3)
        click_b[:m] |= (pat == 1) | (pat == 3)

    for slot in range(1, 4):
        pair_slot(int(by_n[slot:].sum()))
    click_a |= rng.random(active) < dark_a
    click_b |= rng.random(active) < dark_b
    if by_n[3]:
        tail = pair_count_pmf[3:]
        by_tail = rng.multinomial(by_n[3], tail / tail.sum())
        for slot in range(1, by_tail.size):
            pair_slot(int(by_tail[slot:].sum()))
    return idle + np.bincount(2 * click_a + click_b, minlength=4)


@pytest.mark.parametrize("seed", range(24))
def test_simulate_batch_matches_searchsorted_reference(seed):
    rs = np.random.default_rng(seed)
    pair_count_pmf = simulate._poisson_pmf(rs.uniform(0.0, 2.0))
    probs = rs.dirichlet(np.ones(4))
    if seed % 4 == 1:
        probs[rs.integers(4)] = 0.0  # a tie in the cum table
    pattern_cum = np.cumsum(probs / probs.sum())
    if seed % 3 == 0:
        pattern_cum *= 0.97  # last entry below 1: some pairs click nowhere
    args = (int(rs.integers(1, 60_000)), pair_count_pmf, pattern_cum,
            *rs.uniform(0.0, 0.05, 2))
    got = simulate._simulate_batch(np.random.default_rng([seed, 1]), *args)
    want = _searchsorted_batch(np.random.default_rng([seed, 1]), *args)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("p", [30.0, 100.0, 800.0])
def test_simulate_batch_draws_bright_pair_rates(p):
    # A pair leaves A or B silent with probability 1/4, so with p pairs a
    # gate misses a coincidence with probability about 2 exp(-3p/4).
    counts = simulate._simulate_batch(np.random.default_rng(5), 1000, simulate._poisson_pmf(p),
                                      np.array([0.0, 0.25, 0.5, 1.0]), 0.0, 0.0)
    assert counts.tolist() == [0, 0, 0, 1000]


class TestRunDipScan:
    def test_point_bookkeeping(self, symmetric_cfg):
        cfg = symmetric_cfg(0.05, 0.2, 1e-4)
        points = run_dip_scan(cfg, [-6.0, 0.0, 6.0], 50_000, seed=3)
        assert [pt.delay_ps for pt in points] == [-6.0, 0.0, 6.0]
        for pt in points:
            assert pt.gates == 50_000
            assert pt.coincidences <= min(pt.singles_a, pt.singles_b)
            assert max(pt.singles_a, pt.singles_b) <= pt.gates

    @pytest.mark.parametrize("sampler", ["multinomial", "per-gate"])
    def test_same_seed_same_counts(self, symmetric_cfg, sampler):
        cfg = symmetric_cfg(0.05, 0.2, 1e-4)
        a = run_dip_scan(cfg, [-4.0, 0.0, 4.0], 100_000, seed=17, sampler=sampler)
        b = run_dip_scan(cfg, [-4.0, 0.0, 4.0], 100_000, seed=17, sampler=sampler)
        assert a == b

    def test_worker_count_does_not_change_results(self, symmetric_cfg, monkeypatch):
        cfg = symmetric_cfg(0.05, 0.2, 1e-4)
        monkeypatch.setenv("HOMBENCH_THREADS", "1")
        narrow = run_dip_scan(cfg, [0.0, 5.0], 300_000, seed=8, sampler="per-gate")
        monkeypatch.setenv("HOMBENCH_THREADS", "8")
        wide = run_dip_scan(cfg, [0.0, 5.0], 300_000, seed=8, sampler="per-gate")
        assert narrow == wide

    def test_worker_count_does_not_change_shared_batches(self, symmetric_cfg, monkeypatch):
        # Three batches per point, the last of one gate: at 2 and 4 workers
        # some worker runs batches of both points; 8 is capped at the 6
        # batches. A short switch interval interleaves the workers finely.
        cfg = symmetric_cfg(0.05, 0.2, 1e-4)
        runs = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in ("1", "2", "4", "8"):
                monkeypatch.setenv("HOMBENCH_THREADS", workers)
                runs.append(run_dip_scan(cfg, [0.0, 5.0], 2 * 2**20 + 1, seed=8,
                                         sampler="per-gate"))
        finally:
            sys.setswitchinterval(interval)
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_worker_error_reaches_caller(self, symmetric_cfg, monkeypatch, workers):
        # The one-gate second batch fails; at 2 workers it runs on worker 1,
        # a thread of its own, which must be joined before the error is raised.
        batch = simulate._simulate_batch

        def failing(rng, n_gates, *args):
            if n_gates == 1:
                raise ArithmeticError("batch failed")
            return batch(rng, n_gates, *args)

        monkeypatch.setattr(simulate, "_simulate_batch", failing)
        monkeypatch.setenv("HOMBENCH_THREADS", workers)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="batch failed"):
            run_dip_scan(symmetric_cfg(0.05, 0.2, 1e-4), [0.0], 2**20 + 1, seed=8,
                         sampler="per-gate")
        assert threading.active_count() == before

    @pytest.mark.parametrize("sampler", ["multinomial", "per-gate"])
    def test_memory_does_not_hold_a_generator_per_key(self, default_cfg, monkeypatch,
                                                       sampler):
        # 2,000 keys: a Generator apiece built up front peaks near 2 MiB;
        # built as each point or batch runs, each worker holds one.
        monkeypatch.setenv("HOMBENCH_THREADS", "2")
        delays = np.linspace(-6.0, 6.0, 2000).tolist()
        run_dip_scan(default_cfg, delays[:3], 1000, seed=1, sampler=sampler)  # warm
        tracemalloc.start()
        try:
            points = run_dip_scan(default_cfg, delays, 1000, seed=1, sampler=sampler)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(points) == 2000
        assert peak < 1.2 * 2**20

    def test_per_gate_keys_are_one_array(self, default_cfg, monkeypatch):
        # 21 points x 477 batches = 10,017 keys with the batches stubbed out:
        # a (point, batch) tuple per key peaks near 2.8 MiB, one array of
        # keys near 2.3 MiB (the rest is the hashed seed words).
        monkeypatch.setenv("HOMBENCH_THREADS", "2")
        monkeypatch.setattr(simulate, "_simulate_batch",
                            lambda rng, n_gates, *args: np.zeros(4, dtype=np.int64))
        delays = np.linspace(-6.0, 6.0, 21).tolist()
        gates = 477 * simulate._DIP_BATCH
        run_dip_scan(default_cfg, delays[:2], gates, seed=1, sampler="per-gate")  # warm
        tracemalloc.start()
        try:
            points = run_dip_scan(default_cfg, delays, gates, seed=1, sampler="per-gate")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [pt.coincidences for pt in points] == [0] * 21
        assert peak < 2.5 * 2**20

    def test_seed_words_hash_in_bounded_chunks(self, default_cfg, monkeypatch):
        # 21 points x 954 batches = 20,034 keys with the batches stubbed out.
        # Hashing every key at once held about 240 B of temporaries per key
        # (a 4.6 MiB peak); in chunks, the peak is the keys, the (keys, 4)
        # seed words and one chunk's temporaries.
        monkeypatch.setenv("HOMBENCH_THREADS", "2")
        monkeypatch.setattr(simulate, "_simulate_batch",
                            lambda rng, n_gates, *args: np.zeros(4, dtype=np.int64))
        delays = np.linspace(-6.0, 6.0, 21).tolist()
        gates = 954 * simulate._DIP_BATCH
        run_dip_scan(default_cfg, delays[:2], gates, seed=1, sampler="per-gate")  # warm
        tracemalloc.start()
        try:
            run_dip_scan(default_cfg, delays, gates, seed=1, sampler="per-gate")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("sampler", ["multinomial", "per-gate"])
    def test_counts_track_exact_pmf(self, symmetric_cfg, sampler):
        cfg = symmetric_cfg(0.05, 0.2, 1e-4)
        gates = 400_000
        delays = [-6.0, -2.0, 0.0, 2.0, 6.0]
        points = run_dip_scan(cfg, delays, gates, seed=12, sampler=sampler)
        for pt in points:
            p11 = gate_pattern_distribution(replace(cfg, delay_ps=pt.delay_ps))[3]
            mu = gates * p11
            z = (pt.coincidences - mu) / math.sqrt(mu * (1.0 - p11))
            assert abs(z) < 5.0, f"delay {pt.delay_ps}: z = {z:.2f}"

    @pytest.mark.parametrize("p, eta, dark_a, dark_b", [
        (2.0, 1.0, 1e-4, 1e-4),  # dense
        (0.03, 0.05, 0.05, 0.01),  # dark-dominated
        (0.0, 0.2, 0.2, 0.1),  # no pairs: every click is a dark
        (1.0, 0.2, 1e-4, 1e-4),  # Poisson tail past three pairs
        (5.0, 0.2, 1e-4, 1e-4),  # most gates hold four pairs or more
    ])
    def test_per_gate_counts_track_exact_pmf(
        self, symmetric_cfg, monkeypatch, p, eta, dark_a, dark_b
    ):
        # Coincidences and both singles at 5 sigma, over several batches
        # with a ragged last one.
        monkeypatch.setattr(simulate, "_DIP_BATCH", 100_000)
        cfg = symmetric_cfg(p, eta, dark_a)
        cfg = replace(cfg, detector_b=replace(cfg.detector_b, dark_prob_per_gate=dark_b))
        gates = 450_000
        points = run_dip_scan(cfg, [0.0, 2.0], gates, seed=31, sampler="per-gate")
        for pt in points:
            pmf = gate_pattern_distribution(replace(cfg, delay_ps=pt.delay_ps))
            if p == 0.0:
                assert pmf[3] == pytest.approx(dark_a * dark_b, rel=1e-12)
            for observed, prob in (
                (pt.coincidences, pmf[3]),
                (pt.singles_a, pmf[2] + pmf[3]),
                (pt.singles_b, pmf[1] + pmf[3]),
            ):
                mu = gates * prob
                z = (observed - mu) / math.sqrt(mu * (1.0 - prob))
                assert abs(z) < 5.0, f"delay {pt.delay_ps}: z = {z:.2f}"

    def test_off_dip_rate_matches_distinguishable_oracle(self, symmetric_cfg):
        cfg = symmetric_cfg(0.05, 0.2, 1e-4, delay_ps=60.0)
        gates = 1_000_000
        (pt,) = run_dip_scan(cfg, [60.0], gates, seed=11, sampler="per-gate")
        mu = gates * gate_pattern_distribution(cfg, kappa=0.0)[3]
        assert abs(pt.coincidences - mu) <= 3.0 * math.sqrt(mu) + 1.0

    def test_flat_scan_when_interference_is_dead(self, symmetric_cfg):
        # All delays far beyond the wavepacket width: every point draws
        # from the same pmf, so the spread is pure Poisson noise.
        cfg = symmetric_cfg(0.05, 0.2, 0.0)
        points = run_dip_scan(cfg, [40.0, 60.0, 80.0, 100.0], 200_000, seed=9)
        mu = 200_000 * gate_pattern_distribution(cfg, kappa=0.0)[3]
        for pt in points:
            assert abs(pt.coincidences - mu) <= 4.0 * math.sqrt(mu)

    def test_input_validation(self, symmetric_cfg):
        cfg = symmetric_cfg(0.05, 0.2, 1e-4)
        with pytest.raises(ValueError):
            run_dip_scan(cfg, [], 1000, seed=0)
        for gates in (0, 1.5, True, math.nan, math.inf):
            for sampler in ("multinomial", "per-gate"):
                with pytest.raises(ValueError, match="whole number"):
                    run_dip_scan(cfg, [0.0], gates, seed=0, sampler=sampler)
        # A whole count given as a float runs as the int it is.
        for sampler in ("multinomial", "per-gate"):
            (point,) = run_dip_scan(cfg, [0.0], 1e3, seed=0, sampler=sampler)
            assert point == run_dip_scan(cfg, [0.0], 1000, seed=0, sampler=sampler)[0]
            assert type(point.gates) is int
        with pytest.raises(ValueError):
            run_dip_scan(cfg, [0.0], 1000, seed=0, sampler="bogus")
        with pytest.raises(ConfigError):
            run_dip_scan(replace(cfg, delay_ps=math.nan), [0.0], 1000, seed=0)

    @pytest.mark.parametrize("sampler", ["multinomial", "per-gate"])
    def test_non_finite_delay_rejected(self, symmetric_cfg, sampler):
        cfg = symmetric_cfg(0.05, 0.2, 1e-4)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=re.escape(
                    f"delay_ps: must be finite (got {bad!r})")):
                run_dip_scan(cfg, [0.0, bad, 1.0], 10**5, seed=1, sampler=sampler)


# numpy kernels that the CAR path would page in for scalar work alone.
_SCALAR_UFUNCS = ("exp", "expm1", "log1p", "maximum", "stack")


def _forbid(monkeypatch, *names):
    """Make each numpy function in `names` raise when called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy kernel reached")

    for name in names:
        monkeypatch.setattr(np, name, forbidden)


def _bright(cfg):
    """The bright corner of a config: p = 2 and lossless channels."""
    return replace(
        cfg,
        source=replace(cfg.source, mean_pairs_per_pulse=2.0),
        channel_s=replace(cfg.channel_s, transmittance=1.0),
        channel_i=replace(cfg.channel_i, transmittance=1.0),
    )


class TestRunCar:
    def test_frozen_pattern_distribution(self, default_cfg):
        parked = replace(default_cfg, delay_ps=10.0 * default_cfg.wavepacket.sigma_ps)
        bright = _bright(parked)
        np.testing.assert_allclose(
            car_slot_pmf(*car_terms(parked)), FROZEN_CAR_PMF, rtol=1e-10
        )
        np.testing.assert_allclose(
            car_slot_pmf(*car_terms(bright)), FROZEN_BRIGHT_CAR_PMF, rtol=1e-10
        )

    @pytest.mark.parametrize("bright", [False, True])
    def test_pinned_result_per_benchmark_config(self, default_cfg, bright):
        # The perfbench car-sparse and car-bright configs at a fixed seed. No
        # gap of the bright run exceeds the 10 offsets, so its blocks draw
        # what a per-click sampler draws, and it equals the earlier stream.
        cfg = replace(default_cfg, delay_ps=10.0 * default_cfg.wavepacket.sigma_ps)
        if bright:
            cfg = _bright(cfg)
            expected = CarResult(
                431965, (373610, 373540, 373407, 373468, 373412, 373397, 373321,
                         373417, 373276, 373403),
                1.156752045818559, 1.9986841320213562, 500_000, 432132, 432108)
        else:
            expected = CarResult(
                5965, (210, 216, 218, 192, 197, 201, 183, 198, 174, 202),
                29.959819169860626, 0.029388904738530616, 10**10, 1360355, 1467054)
        result = run_car(cfg, expected.gates, seed=14)
        assert result == replace(
            expected, car=pytest.approx(expected.car, rel=1e-12),
            p_estimate=pytest.approx(expected.p_estimate, rel=1e-12))

    @pytest.mark.parametrize("k", [1, 100])
    def test_pinned_bright_result_at_offset_extremes(self, default_cfg, k):
        # car-bright's config at the fewest and at many offsets: the dense
        # offset count loops once and a hundred times per block. No gap
        # exceeds 10, so K = 100 draws the stream of the K = 10 pin.
        cfg = _bright(replace(default_cfg, delay_ps=10.0 * default_cfg.wavepacket.sigma_ps))
        expected = {
            1: CarResult(432052, (373522,), 1.1566952840689437,
                         1.9989972381892553, 500_000, 432201, 432201),
            100: CarResult(431965, (
                373610, 373540, 373407, 373468, 373412, 373397, 373321, 373417, 373276,
                373403, 373537, 373397, 373487, 373439, 373459, 373541, 373293, 373498,
                373493, 373432, 373319, 373518, 373442, 373391, 373412, 373282, 373377,
                373381, 373356, 373328, 373533, 373398, 373471, 373599, 373467, 373434,
                373591, 373406, 373446, 373437, 373413, 373362, 373548, 373524, 373525,
                373439, 373415, 373442, 373460, 373418, 373317, 373426, 373493, 373390,
                373441, 373337, 373342, 373321, 373412, 373264, 373440, 373515, 373452,
                373455, 373375, 373466, 373472, 373423, 373417, 373342, 373502, 373231,
                373456, 373354, 373486, 373350, 373316, 373346, 373355, 373332, 373261,
                373392, 373558, 373322, 373274, 373376, 373280, 373384, 373286, 373395,
                373300, 373394, 373344, 373346, 373431, 373306, 373398, 373404, 373334,
                373432), 1.1566945238031348, 1.999001432801229, 500_000, 432132, 432108),
        }[k]
        result = run_car(cfg, expected.gates, n_offset_slots=k, seed=14)
        assert result == replace(
            expected, car=pytest.approx(expected.car, rel=1e-12),
            p_estimate=pytest.approx(expected.p_estimate, rel=1e-12))

    def test_click_probability_keeps_its_digits(self, symmetric_cfg, monkeypatch):
        # The per-gate click probability q that places the clicks, against
        # 1 - P00 from a 40-digit mixture over one pair's routed
        # arrangements, at a rate where 1 - P00 in doubles is off by 4e-9.
        # 6e17 gates clear the accidentals precheck; the first block stops
        # the run.
        cfg = symmetric_cfg(1e-6, 4.356e-3, 0.0, delay_ps=60.0)
        seen = []

        def record(rng, last, gates, k, q, lam):
            seen.append(q)
            raise StopIteration

        monkeypatch.setattr(simulate, "_cluster_clicks", record)
        with pytest.raises(StopIteration):
            run_car(cfg, 6 * 10**17, seed=0)
        p, eta_s, eta_i, _, _, leak = car_terms(cfg)
        with decimal.localcontext(prec=40):
            clicks = sum(decimal.Decimal(w) for w, kind in _pair_arrangements(leak, eta_s, eta_i)
                         if kind != "none")
            q = float(1 - (-decimal.Decimal(p) * clicks).exp())
        assert seen == [pytest.approx(q, rel=1e-12, abs=0.0)]

    def test_closed_form_runs_on_floats(self, default_cfg, monkeypatch):
        # The slot pmf, the CAR, its peak and its inverse call no numpy
        # kernel on a scalar: each is plain floats.
        _forbid(monkeypatch, *_SCALAR_UFUNCS)
        terms = car_terms(replace(default_cfg, delay_ps=10.0 * default_cfg.wavepacket.sigma_ps))
        pmf = car_slot_pmf(*terms)
        car = car_prediction(*terms)
        peak = car_peak_pair_rate(*terms[1:])
        p = invert_car(car, (pmf[2] + pmf[3]) * (pmf[1] + pmf[3]), *terms[1:])
        assert [type(v) for v in (*pmf, car, peak, p)] == [float] * 7
        assert p == pytest.approx(terms[0], rel=1e-9)

    @pytest.mark.parametrize("bright, gates", [(False, 6 * 10**8), (True, 20_000)])
    def test_run_car_calls_no_scalar_kernel(self, default_cfg, monkeypatch, bright, gates):
        # car-sparse's and car-bright's configs give the same result with
        # the scalar ufuncs and numpy's sort refused. The sparse run ends in
        # a run of long gaps, whose 217 cut points sort as a list.
        cfg = replace(default_cfg, delay_ps=10.0 * default_cfg.wavepacket.sigma_ps)
        if bright:
            cfg = _bright(cfg)
        expected = run_car(cfg, gates, seed=0)
        _forbid(monkeypatch, *_SCALAR_UFUNCS, "sort")
        sorts = []
        monkeypatch.setattr(simulate, "sorted", lambda cuts: sorts.append(len(cuts))
                            or sorted(cuts), raising=False)
        assert run_car(cfg, gates, seed=0) == expected
        assert sorts == ([] if bright else [217])

    def test_requires_off_dip_delay(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.1, 1e-4)  # delay 0: on the dip
        with pytest.raises(ValueError, match="off the dip"):
            run_car(cfg, 10**6, seed=0)

    def test_requires_more_gates_than_offsets(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.1, 1e-4, delay_ps=60.0)
        with pytest.raises(ValueError):
            run_car(cfg, 5, n_offset_slots=10, seed=0)

    def test_requires_whole_counts(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.1, 1e-4, delay_ps=60.0)
        for gates, slots in ((1.5e9 + 0.5, 10), (True, 10), (0, 10), (math.inf, 10),
                             (10**6, 2.5), (10**6, True)):
            with pytest.raises(ValueError, match="whole number"):
                run_car(cfg, gates, n_offset_slots=slots, seed=0)
        # A whole count given as a float runs as the int it is.
        result = run_car(cfg, 2e6, seed=4)
        assert result == run_car(cfg, 2_000_000, seed=4)
        assert type(result.gates) is int

    def test_insufficient_statistics_reports_needed_gates(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.1, 1e-4, delay_ps=60.0)
        with pytest.raises(InsufficientStatisticsError) as exc_info:
            run_car(cfg, 2000, seed=0)
        assert exc_info.value.gates_needed > 2000
        assert "accidental" in str(exc_info.value)

    def test_recovers_configured_pair_rate(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.1, 1e-4, delay_ps=60.0)
        result = run_car(cfg, 2_000_000, seed=4)
        assert result.car > 1.0
        assert result.p_estimate == pytest.approx(0.03, rel=0.2)
        assert result.matched_coincidences > 0
        assert len(result.unmatched_coincidences) == 10
        assert result.gates == 2_000_000

    def test_dark_only_car_is_near_one(self, symmetric_cfg):
        cfg = symmetric_cfg(0.0, 0.1, 0.01, delay_ps=60.0)
        result = run_car(cfg, 400_000_000, seed=13)
        assert result.car == pytest.approx(1.0, abs=0.35)

    def test_car_falls_with_pair_rate(self, symmetric_cfg):
        lo = run_car(symmetric_cfg(0.01, 0.1, 1e-4, delay_ps=60.0), 10**7, seed=21)
        hi = run_car(symmetric_cfg(0.05, 0.1, 1e-4, delay_ps=60.0), 10**7, seed=22)
        assert lo.car > hi.car

    def test_deterministic(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.1, 1e-4, delay_ps=60.0)
        assert run_car(cfg, 2_000_000, seed=4) == run_car(cfg, 2_000_000, seed=4)

    def test_dense_clicks_meet_the_exact_car(self, symmetric_cfg):
        # p = 2, eta = 1: 86% of gates click both detectors.
        cfg = symmetric_cfg(2.0, 1.0, 1e-4, delay_ps=60.0)
        exact = car_prediction(*car_terms(cfg))
        assert exact == pytest.approx(1.1565, abs=5e-4)
        result = run_car(cfg, 200_000, seed=0)
        accidentals = sum(result.unmatched_coincidences)
        sigma = result.car * math.sqrt(
            1.0 / result.matched_coincidences + 1.0 / accidentals
        )
        assert abs(result.car - exact) <= 5.0 * sigma

    @pytest.mark.parametrize("batch", [7, 1000, None])
    @pytest.mark.parametrize("k_max", [1, 10, 2500])
    def test_batched_offsets_match_a_whole_run_count(
        self, symmetric_cfg, monkeypatch, batch, k_max
    ):
        # Offsets longer than a block carry clicks over many blocks. The
        # walk visits every carried click within k_max gates, so dense
        # clicks (86% of gates) run only with the short offsets. At
        # k_max = 1 most gaps are long, so runs, their inner clicks and a
        # run across the last gate occur in every case.
        sparse = symmetric_cfg(0.05, 0.2, 1e-4, delay_ps=60.0)
        if batch is None:
            cfg, gates = sparse, 2_000_000
        else:
            monkeypatch.setattr(simulate, "_CAR_SHORT_GAPS", batch)
            dense = symmetric_cfg(2.0, 1.0, 1e-4, delay_ps=60.0)
            cfg, gates = (sparse if k_max > 10 else dense), 6000
        result = run_car(cfg, gates, n_offset_slots=k_max, seed=5)

        # The whole-run count: the same block streams replayed gap by gap,
        # every click of the run placed, one intersection per offset. The
        # clicks inside a run have gaps > k_max on both sides, so any such
        # placement pairs with nothing; the one run across the last gate is
        # placed by its cut points, which decide how many of them count.
        pmf = car_slot_pmf(*car_terms(cfg))
        q = pmf[1] + pmf[2] + pmf[3]  # as run_car sums the click patterns
        base = np.random.SeedSequence(5)
        pos, pat = [], []
        last, block = -1, 0
        while last < gates - 1:
            rng = simulate._rng(simulate._child(base, block))
            e = rng.standard_exponential(simulate._CAR_SHORT_GAPS)
            gaps = np.floor(e / -math.log1p(-q)).astype(np.int64) + 1
            runs = (gaps - 1) // k_max
            excess = iter(rng.negative_binomial(runs[runs > 0], q).tolist()
                          if runs.any() else [])
            cluster, inner, crossing = [], [], False
            for gap, r in zip(gaps.tolist(), runs.tolist()):
                if r:
                    start, f = last, next(excess)
                    last += r * (k_max + 1) + f
                    if last < gates:
                        inner += [start + m * (k_max + 1) for m in range(1, r)]
                    else:
                        if not crossing and r > 1:
                            cuts = np.sort(rng.choice(f + r - 1, r - 1, replace=False,
                                                      shuffle=False))
                            inner += [start + m * k_max + int(c) + 1
                                      for m, c in enumerate(cuts, start=1)]
                        crossing = True
                    cluster.append(last)
                last += gap - r * k_max
                cluster.append(last)
            u = rng.random(len(cluster))
            inner = [g for g in inner if g < gates]
            n_b, n_a, n_ab = rng.multinomial(len(inner), np.divide(pmf[1:], q))
            pos += cluster + inner
            cluster_pat = np.where(u < pmf[1] / q, 1,
                                   np.where(u < (pmf[1] + pmf[2]) / q, 2, 3))
            pat += cluster_pat.tolist() + [1] * n_b + [2] * n_a + [3] * n_ab
            block += 1
        pos, pat = np.array(pos), np.array(pat)
        order = np.argsort(pos)
        pos, pat = pos[order], pat[order]
        pat = pat[pos < gates]
        pos = pos[pos < gates]
        assert np.all(np.diff(pos) > 0)
        a, b = pos[pat != 1], pos[pat != 2]
        assert result.unmatched_coincidences == tuple(
            np.intersect1d(a, b - k, assume_unique=True).size
            for k in range(1, k_max + 1)
        )
        assert (result.singles_a, result.singles_b) == (a.size, b.size)
        assert result.matched_coincidences == np.count_nonzero(pat == 3)

    def test_memory_does_not_grow_with_the_run(self, default_cfg):
        # Reference instrument, 8e9 gates: about 1.1e6 clicks per detector.
        parked = replace(default_cfg, delay_ps=10.0 * default_cfg.wavepacket.sigma_ps)
        tracemalloc.start()
        try:
            run_car(parked, 8 * 10**9, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_dense_run_memory_is_one_batch(self, symmetric_cfg):
        # p = 2, eta = 1, 2e6 gates: about 1.7e6 clicks per detector.
        cfg = symmetric_cfg(2.0, 1.0, 1e-4, delay_ps=60.0)
        tracemalloc.start()
        try:
            run_car(cfg, 2 * 10**6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("dense, gates, seeds", [
        pytest.param(False, 10**9, 1, id="False-1000000000"),
        pytest.param(True, 2 * 10**6, 1, id="True-2000000"),
        pytest.param(False, 6 * 10**8, 300, id="pooled-run-boundary"),
    ])
    def test_counts_track_the_slot_pmf(self, default_cfg, dense, gates, seeds):
        # Singles, matched and every offset's accidentals, pooled over seeds,
        # at 5 sigma of the per-slot pmf; the dense run would catch an
        # off-by-one in the gaps. At the reference config a run of long gaps
        # spans about 1.3e6 gates, so at 6e8 gates (just above the
        # accidentals precheck) the part past the last gate of the run that
        # crosses it holds about 0.2% of the clicks drawn: counting those
        # clicks shifts the pooled A singles by about 12 sigma.
        cfg = replace(default_cfg, delay_ps=10.0 * default_cfg.wavepacket.sigma_ps)
        if dense:
            cfg = _bright(cfg)
        pmf = car_slot_pmf(*car_terms(cfg))
        q_a, q_b = pmf[2] + pmf[3], pmf[1] + pmf[3]
        results = [run_car(cfg, gates, seed=seed) for seed in range(23, 23 + seeds)]
        for field, prob in (("singles_a", q_a), ("singles_b", q_b),
                            ("matched_coincidences", pmf[3])):
            observed = sum(getattr(r, field) for r in results)
            mu = seeds * gates * prob
            assert abs(observed - mu) <= 5.0 * math.sqrt(mu * (1.0 - prob)), field
        ab = q_a * q_b
        for k in range(1, 11):
            # A(g)B(g+k) and A(g+k)B(g+2k) share gate g + k.
            observed = sum(r.unmatched_coincidences[k - 1] for r in results)
            n = gates - k
            var = n * ab * (1.0 - ab) + 2 * (n - k) * ab * (pmf[3] - ab)
            assert abs(observed - seeds * n * ab) <= 5.0 * math.sqrt(seeds * var), (
                f"offset {k}")

    def test_saturated_clicks_fill_every_gate(self, symmetric_cfg, monkeypatch):
        # Every gate clicks both detectors, so every gap is short, each block
        # fills its gates, and offsets pair clicks across block boundaries.
        monkeypatch.setattr(simulate, "_CAR_SHORT_GAPS", 1000)
        cfg = symmetric_cfg(50.0, 1.0, 1e-4, delay_ps=60.0, extinction=1e30)
        gates = 10_000
        result = run_car(cfg, gates, seed=0)
        assert result.singles_a == result.singles_b == gates
        assert result.matched_coincidences == gates
        assert result.unmatched_coincidences == tuple(
            gates - k for k in range(1, 11)
        )
        assert result.car == 1.0


class TestRunVisibilitySweep:
    def test_rows_carry_fits_and_predictions(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.2, 1e-4)
        rows = run_visibility_sweep(cfg, [0.02, 0.05], 200_000, seed=6)
        assert [row.pairs_per_pulse for row in rows] == [0.02, 0.05]
        for row in rows:
            assert row.error is None
            assert row.fit is not None and row.fit.converged
            swapped = replace(
                cfg, source=replace(cfg.source, mean_pairs_per_pulse=row.pairs_per_pulse)
            )
            assert row.predicted_visibility == pytest.approx(
                visibility_prediction(budget_from_config(swapped))
            )
            assert row.exact_visibility == exact.exact_visibility(swapped)
            assert len(row.scan) == 21

    def test_fit_failure_stays_in_its_row(self, default_cfg):
        # 200 gates at the calibrated efficiency yields a near-empty scan;
        # the fit precondition fails and the row records why.
        rows = run_visibility_sweep(default_cfg, [0.03], 200, seed=1)
        assert len(rows) == 1
        assert rows[0].fit is None
        assert rows[0].error

    def test_fitted_visibility_tracks_prediction(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.01, 1e-5)
        (row,) = run_visibility_sweep(cfg, [0.03], 10**8, seed=6)
        assert row.fit is not None
        bound = max(0.02, 3.0 * row.fit.visibility_error)
        assert abs(row.fit.params.visibility - row.predicted_visibility) < bound

    def test_bad_pair_rate_is_a_config_error(self, symmetric_cfg):
        # Each row's config is validated before its budget is computed,
        # whose own range check would otherwise raise first.
        with pytest.raises(ConfigError, match="source.mean_pairs_per_pulse"):
            run_visibility_sweep(symmetric_cfg(0.03, 0.2, 1e-4), [-0.1], 1000, seed=0)

    def test_empty_pair_list_rejected(self, symmetric_cfg):
        with pytest.raises(ValueError):
            run_visibility_sweep(symmetric_cfg(0.03, 0.2, 1e-4), [], 1000, seed=0)

    def test_deterministic(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.2, 1e-4)
        a = run_visibility_sweep(cfg, [0.02, 0.05], 100_000, seed=19)
        b = run_visibility_sweep(cfg, [0.02, 0.05], 100_000, seed=19)
        assert [row.scan for row in a] == [row.scan for row in b]
        assert [row.fit.params for row in a] == [row.fit.params for row in b]


class TestThreadCap:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HOMBENCH_THREADS", "3")
        assert thread_cap() == 3

    def test_default_is_positive(self, monkeypatch):
        monkeypatch.delenv("HOMBENCH_THREADS", raising=False)
        assert thread_cap() >= 1

    def test_default_follows_cpu_affinity(self, monkeypatch):
        # A process pinned to one CPU starts no second worker, however many
        # CPUs the host has.
        monkeypatch.delenv("HOMBENCH_THREADS", raising=False)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 64)
        assert thread_cap() == 1

    def test_override_is_capped_like_the_default(self, monkeypatch):
        # Only the count is read: no thread starts.
        monkeypatch.setenv("HOMBENCH_THREADS", "100000")
        before = threading.active_count()
        assert thread_cap() == 32
        assert threading.active_count() == before

    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_invalid_values_raise(self, monkeypatch, bad):
        monkeypatch.setenv("HOMBENCH_THREADS", bad)
        with pytest.raises(ValueError):
            thread_cap()
