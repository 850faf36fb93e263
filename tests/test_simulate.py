"""Monte Carlo engine: samplers, determinism, and oracle agreement."""

import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hombench import (
    ConfigError,
    InsufficientStatisticsError,
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
from hombench import fock, simulate
from hombench.analytics import car_terms
from hombench.simulate import (
    _car_pattern_distribution,
    _offset_counts,
    _pair_arrangements,
    folded_poisson,
    sample_pair_count,
    thread_cap,
)

# Pattern vector order: (no click, B only, A only, both).
FROZEN_DEFAULT_PMF = [
    0.9993362815056325,
    0.00043699678351516447,
    0.00022662159694286643,
    1.0011390949582477e-07,
]

# CAR per-slot pmf, delay parked at 10 sigma: reference instrument, then
# the bright corner p = 2, eta = 1.
FROZEN_CAR_PMF = [
    0.9997178352120629,
    0.00014604772627968554,
    0.00013552910100977922,
    5.879606476133503e-07,
]
FROZEN_BRIGHT_CAR_PMF = [
    0.13533238707330156,
    0.00027282881468099207,
    0.0002714022400492899,
    0.8641233818719681,
]


class TestFoldedPoisson:
    def test_matches_closed_form_below_the_fold(self):
        pmf = folded_poisson(0.1, 3)
        for k in range(3):
            assert pmf[k] == pytest.approx(
                math.exp(-0.1) * 0.1**k / math.factorial(k), rel=1e-12
            )

    def test_tail_mass_folds_into_last_bin(self):
        pmf = folded_poisson(0.1, 3)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
        tail = 1.0 - sum(
            math.exp(-0.1) * 0.1**k / math.factorial(k) for k in range(3)
        )
        assert pmf[3] == pytest.approx(tail, rel=1e-9)

    def test_zero_mean_is_deterministic(self):
        pmf = folded_poisson(0.0, 3)
        assert pmf[0] == 1.0
        assert pmf[1:].sum() == 0.0


def test_sample_pair_count_stays_in_range():
    rng = np.random.default_rng(5)
    draws = [sample_pair_count(0.5, rng, max_pairs=3) for _ in range(2000)]
    assert min(draws) >= 0
    assert max(draws) <= 3
    assert np.mean(draws) == pytest.approx(0.5, abs=0.05)


class TestGatePatternDistribution:
    def test_sums_to_one(self, default_cfg, symmetric_cfg):
        for cfg in (default_cfg, symmetric_cfg(0.05, 0.2, 1e-4)):
            pmf = gate_pattern_distribution(cfg)
            assert pmf.shape == (4,)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
            assert (pmf >= 0.0).all()

    def test_frozen_values_at_calibrated_defaults(self, default_cfg):
        np.testing.assert_allclose(
            gate_pattern_distribution(default_cfg), FROZEN_DEFAULT_PMF, rtol=1e-10
        )

    def test_far_delay_coincidence_floor(self, default_cfg):
        pmf = gate_pattern_distribution(replace(default_cfg, delay_ps=60.0))
        assert pmf[3] == pytest.approx(3.3204577343237673e-07, rel=1e-10)

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


def _clear_pmf_caches() -> None:
    simulate._arrangement_click_dist.cache_clear()
    fock._amplitude_column.cache_clear()


class TestPmfCaches:
    def test_oracle_runs_once_per_distinct_overlap(self, symmetric_cfg, monkeypatch):
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
        sigma = cfg.wavepacket.sigma_ps
        distinct_kappas = {amplitude_overlap(d, sigma) for d in delays}
        assert len(calls_before_row) == 2
        assert len(calls) <= 4 + len(distinct_kappas)
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


_positions = st.sets(st.integers(0, 80)).map(
    lambda s: np.array(sorted(s), dtype=np.int64)
)


def _ints(*values):
    return np.array(values, dtype=np.int64)


@given(a=_positions, b=_positions, k_max=st.integers(1, 12),
       block=st.integers(1, 9))
@example(a=_ints(3, 40), b=_ints(80), k_max=10, block=1)  # B at the last index
@example(a=_ints(3, 4, 5), b=_ints(), k_max=10, block=2)  # no B clicks
@example(a=_ints(), b=_ints(1, 2), k_max=10, block=2)  # no A clicks
@example(a=_ints(*range(30)), b=_ints(*range(30)), k_max=3, block=4)  # long runs
@example(a=_ints(*range(0, 40, 2)), b=_ints(*range(1, 41, 2)), k_max=12, block=7)
def test_offset_walk_matches_intersections(a, b, k_max, block):
    # Small blocks put A clicks of one offset pair in different blocks.
    with mock.patch.object(simulate, "_WALK_BLOCK", block):
        walked = _offset_counts(a, b, k_max)
    assert walked.tolist() == [
        np.intersect1d(a, b - k, assume_unique=True).size
        for k in range(1, k_max + 1)
    ]


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

    @pytest.mark.parametrize("p, eta, dark_a, dark_b, max_pairs", [
        (2.0, 1.0, 1e-4, 1e-4, 3),  # dense
        (0.03, 0.05, 0.05, 0.01, 3),  # dark-dominated
        (0.0, 0.2, 0.2, 0.1, 3),  # no pairs: every click is a dark
        (1.0, 0.2, 1e-4, 1e-4, 2),  # folded Poisson tail
        (1.0, 0.2, 1e-4, 1e-4, 6),
    ])
    def test_per_gate_counts_track_exact_pmf(
        self, symmetric_cfg, monkeypatch, p, eta, dark_a, dark_b, max_pairs
    ):
        # Coincidences and both singles at 5 sigma, over several batches
        # with a ragged last one.
        monkeypatch.setattr(simulate, "_DIP_BATCH", 100_000)
        cfg = symmetric_cfg(p, eta, dark_a)
        cfg = replace(
            cfg,
            source=replace(cfg.source, max_pairs=max_pairs),
            detector_b=replace(cfg.detector_b, dark_prob_per_gate=dark_b),
        )
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
        with pytest.raises(ValueError):
            run_dip_scan(cfg, [0.0], 0, seed=0)
        with pytest.raises(ValueError):
            run_dip_scan(cfg, [0.0], 1000, seed=0, sampler="bogus")
        with pytest.raises(ConfigError):
            run_dip_scan(replace(cfg, delay_ps=math.nan), [0.0], 1000, seed=0)


class TestRunCar:
    def test_frozen_pattern_distribution(self, default_cfg):
        parked = replace(default_cfg, delay_ps=10.0 * default_cfg.wavepacket.sigma_ps)
        bright = replace(
            parked,
            source=replace(parked.source, mean_pairs_per_pulse=2.0),
            channel_s=replace(parked.channel_s, transmittance=1.0),
            channel_i=replace(parked.channel_i, transmittance=1.0),
        )
        np.testing.assert_allclose(
            _car_pattern_distribution(parked), FROZEN_CAR_PMF, rtol=1e-10
        )
        np.testing.assert_allclose(
            _car_pattern_distribution(bright), FROZEN_BRIGHT_CAR_PMF, rtol=1e-10
        )

    def test_requires_off_dip_delay(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.1, 1e-4)  # delay 0: on the dip
        with pytest.raises(ValueError, match="off the dip"):
            run_car(cfg, 10**6, seed=0)

    def test_requires_more_gates_than_offsets(self, symmetric_cfg):
        cfg = symmetric_cfg(0.03, 0.1, 1e-4, delay_ps=60.0)
        with pytest.raises(ValueError):
            run_car(cfg, 5, n_offset_slots=10, seed=0)

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
        pmf = _car_pattern_distribution(cfg)
        exact = pmf[3] / ((pmf[2] + pmf[3]) * (pmf[1] + pmf[3]))
        assert exact == pytest.approx(1.157, abs=5e-4)
        # The closed form keeps only the single-pair true term.
        assert car_prediction(*car_terms(cfg)) == pytest.approx(3.675, abs=5e-4)
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
        # Offsets longer than a batch carry A clicks over many batches.
        if batch is None:
            cfg = symmetric_cfg(0.05, 0.2, 1e-4, delay_ps=60.0)
            gates = simulate._CAR_BATCH + 10**5
        else:
            monkeypatch.setattr(simulate, "_CAR_BATCH", batch)
            cfg = symmetric_cfg(2.0, 1.0, 1e-4, delay_ps=60.0)
            gates = 6000
        result = run_car(cfg, gates, n_offset_slots=k_max, seed=5)

        # The whole-run count: the same batch streams, every click of the
        # run kept and sorted, one intersection per offset.
        pmf = _car_pattern_distribution(cfg)
        base = np.random.SeedSequence(5)
        a_chunks, b_chunks = [], []
        for index, start, size in simulate._batches(gates, simulate._CAR_BATCH):
            rng = simulate._rng(simulate._child(base, index))
            c = rng.multinomial(size, pmf)
            pos = rng.choice(size, c[1:].sum(), replace=False) + start
            a_chunks.append(pos[:c[3] + c[2]])
            b_chunks += [pos[:c[3]], pos[c[3] + c[2]:]]
        a = np.sort(np.concatenate(a_chunks))
        b = np.sort(np.concatenate(b_chunks))
        assert result.unmatched_coincidences == tuple(
            np.intersect1d(a, b - k, assume_unique=True).size
            for k in range(1, k_max + 1)
        )
        assert (result.singles_a, result.singles_b) == (a.size, b.size)

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

    def test_saturated_clicks_fill_every_gate(self, symmetric_cfg, monkeypatch):
        # Every gate clicks both detectors, so each batch draws all of its
        # gates, and offsets pair clicks across batch boundaries.
        monkeypatch.setattr(simulate, "_CAR_BATCH", 1000)
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
        assert abs(row.fit.visibility - row.predicted_visibility) < bound

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

    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_invalid_values_raise(self, monkeypatch, bad):
        monkeypatch.setenv("HOMBENCH_THREADS", bad)
        with pytest.raises(ValueError):
            thread_cap()
