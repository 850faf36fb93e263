"""Exact few-photon interference engine, cross-checked two ways."""

import itertools
import math

import numpy as np
import pytest

from hombench import (
    CapacityError,
    click_pattern_probs,
    coincidence_prob,
    evolve_fock,
    evolve_fock_ladder,
    splitter_unitary,
)
from hombench import fock
from hombench.fock import clicks_from_occupation, permanent, temporal_decompose

U_BALANCED = splitter_unitary(0.5, 0.5)


def brute_force_permanent(m: np.ndarray) -> complex:
    n = m.shape[0]
    return sum(
        math.prod(m[i, perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


class TestPermanent:
    def test_empty_matrix(self):
        assert permanent(np.zeros((0, 0))) == 1.0

    def test_one_by_one(self):
        assert permanent(np.array([[3.5 + 1j]])) == pytest.approx(3.5 + 1j)

    def test_two_by_two(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert permanent(m) == pytest.approx(1.0 * 4.0 + 2.0 * 3.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(1234 + n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert permanent(m) == pytest.approx(brute_force_permanent(m), rel=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            permanent(np.zeros((2, 3)))


class TestSplitterUnitary:
    def test_full_transmission_is_identity(self):
        np.testing.assert_allclose(splitter_unitary(1.0, 0.0), np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("t", [0.5, 0.517, 0.3])
    def test_columns_orthonormal(self, t):
        u = splitter_unitary(t, 1.0 - t)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_rejects_lossy_split(self):
        with pytest.raises(ValueError):
            splitter_unitary(0.4677, 0.4365)


class TestTemporalDecompose:
    def test_identical_photons(self):
        assert temporal_decompose(1.0, 1, 1) == {(1, 0, 1, 0): 1.0 + 0.0j}

    def test_orthogonal_photons(self):
        assert temporal_decompose(0.0, 1, 1) == {(1, 0, 0, 1): 1.0 + 0.0j}

    def test_single_photon_amplitudes(self):
        state = temporal_decompose(0.6, 0, 1)
        assert state[(0, 0, 1, 0)] == pytest.approx(0.6)
        assert state[(0, 0, 0, 1)] == pytest.approx(0.8)

    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.71, 1.0])
    @pytest.mark.parametrize("n_idler", [0, 1, 2, 3])
    def test_normalized(self, kappa, n_idler):
        state = temporal_decompose(kappa, 1, n_idler)
        assert sum(abs(a) ** 2 for a in state.values()) == pytest.approx(1.0, rel=1e-12)

    def test_invalid_kappa_raises(self):
        with pytest.raises(ValueError):
            temporal_decompose(1.5, 1, 1)

    def test_capacity_enforced(self):
        with pytest.raises(CapacityError):
            temporal_decompose(0.5, 3, 3, max_total=4)


class TestEvolveFock:
    def test_hom_suppression(self):
        # Two identical photons from opposite ports of a balanced splitter
        # bunch: the coincidence outcome has zero probability.
        out = evolve_fock((1, 0, 1, 0), U_BALANCED)
        assert sum(out.values()) == pytest.approx(1.0, rel=1e-12)
        clicks = click_pattern_probs((1, 0, 1, 0), U_BALANCED)
        assert clicks[(True, True)] == pytest.approx(0.0, abs=1e-12)
        assert clicks[(True, False)] == pytest.approx(0.5, rel=1e-12)
        assert clicks[(False, True)] == pytest.approx(0.5, rel=1e-12)

    def test_orthogonal_photons_coincide_half_the_time(self):
        clicks = click_pattern_probs((1, 0, 0, 1), U_BALANCED)
        assert clicks[(True, True)] == pytest.approx(0.5, rel=1e-12)

    def test_two_two_identical_input(self):
        out = evolve_fock(temporal_decompose(1.0, 2, 2), U_BALANCED)
        by_port: dict[int, float] = {}
        for occ, prob in out.items():
            a_count = occ[0] + occ[1]
            by_port[a_count] = by_port.get(a_count, 0.0) + prob
        assert by_port[4] == pytest.approx(0.375, abs=1e-10)
        assert by_port[2] == pytest.approx(0.25, abs=1e-10)
        assert by_port[0] == pytest.approx(0.375, abs=1e-10)
        assert by_port.get(3, 0.0) == pytest.approx(0.0, abs=1e-10)
        assert by_port.get(1, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_two_two_orthogonal_input(self):
        # kappa = 0 removes all cross-pair interference; the two pairs
        # route independently and the port counts convolve.
        out = evolve_fock(temporal_decompose(0.0, 2, 2), U_BALANCED)
        by_port: dict[int, float] = {}
        for occ, prob in out.items():
            a_count = occ[0] + occ[1]
            by_port[a_count] = by_port.get(a_count, 0.0) + prob
        expected = {0: 1 / 16, 1: 1 / 4, 2: 3 / 8, 3: 1 / 4, 4: 1 / 16}
        for count, prob in expected.items():
            assert by_port[count] == pytest.approx(prob, abs=1e-10)
        clicks = click_pattern_probs(temporal_decompose(0.0, 2, 2), U_BALANCED)
        assert clicks[(True, True)] == pytest.approx(7 / 8, abs=1e-10)
        assert clicks[(True, False)] == pytest.approx(1 / 16, abs=1e-10)

    def test_photon_number_conserved(self):
        for occ, prob in evolve_fock((1, 1, 1, 0), U_BALANCED).items():
            assert sum(occ) == 3
            assert prob >= 0.0

    def test_rejects_empty_and_mixed_states(self):
        with pytest.raises(ValueError):
            evolve_fock({}, U_BALANCED)
        with pytest.raises(ValueError):
            evolve_fock({(1, 0, 0, 0): 0.7, (1, 0, 1, 0): 0.7}, U_BALANCED)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            evolve_fock((1, 0, 0, 0), np.ones((4, 4)))

    @pytest.mark.parametrize("engine", [evolve_fock, evolve_fock_ladder])
    def test_rejects_nan_matrix(self, engine):
        with pytest.raises(ValueError, match="not unitary"):
            engine((1, 0, 0, 0), np.full((4, 4), np.nan))

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            evolve_fock((3, 0, 2, 0), U_BALANCED, max_total=4)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestDualEngines:
    """The permanent path and the ladder-expansion path must agree."""

    def test_agreement_on_random_states(self):
        rng = np.random.default_rng(777)
        worst = 0.0
        for _ in range(30):
            u = random_unitary(rng)
            total = int(rng.integers(1, 4))
            occs = [
                occ
                for occ in itertools.product(range(total + 1), repeat=4)
                if sum(occ) == total
            ]
            picks = rng.choice(len(occs), size=min(3, len(occs)), replace=False)
            amps = rng.standard_normal(len(picks)) + 1j * rng.standard_normal(len(picks))
            amps /= np.linalg.norm(amps)
            state = {occs[i]: complex(a) for i, a in zip(picks, amps)}
            out_a = evolve_fock(state, u)
            out_b = evolve_fock_ladder(state, u)
            keys = set(out_a) | set(out_b)
            for k in keys:
                worst = max(worst, abs(out_a.get(k, 0.0) - out_b.get(k, 0.0)))
        assert worst < 1e-10

    def test_agreement_through_temporal_decomposition(self):
        for kappa in (0.0, 0.3, 0.71, 1.0):
            state = temporal_decompose(kappa, 1, 2)
            out_a = evolve_fock(state, U_BALANCED)
            out_b = evolve_fock_ladder(state, U_BALANCED)
            for k in set(out_a) | set(out_b):
                assert out_a.get(k, 0.0) == pytest.approx(out_b.get(k, 0.0), abs=1e-12)


class TestPermanentPath:
    """The permanent path sums the transition amplitudes of the unitary given."""

    def test_cached_path_equals_direct_recomputation(self):
        u_random = random_unitary(np.random.default_rng(11))
        for u in (U_BALANCED, splitter_unitary(0.3, 0.7), u_random):
            for state in (temporal_decompose(0.37, 1, 1),
                          temporal_decompose(0.8, 2, 1), (1, 1, 0, 0)):
                amplitudes = fock._as_state(state)
                total = sum(next(iter(amplitudes)))
                direct = {}
                for out in fock._output_occupations(total):
                    amp = 0.0 + 0.0j
                    for inp, a in amplitudes.items():
                        amp += a * fock._transition_amplitude(u, out, inp)
                    direct[out] = float(abs(amp) ** 2)
                assert evolve_fock(state, u) == direct  # cold
                assert evolve_fock(state, u) == direct  # warm

    def test_in_place_mutation_is_never_served_stale(self):
        u = splitter_unitary(0.5, 0.5)
        before = click_pattern_probs((1, 0, 1, 0), u)
        u[:] = splitter_unitary(0.9, 0.1)
        after = click_pattern_probs((1, 0, 1, 0), u)
        assert before[(True, True)] == pytest.approx(0.0, abs=1e-12)
        assert after[(True, True)] == pytest.approx(0.64, abs=1e-12)  # (T - R)^2
        permanents = evolve_fock((1, 0, 1, 0), u)
        for occ, prob in evolve_fock_ladder((1, 0, 1, 0), u).items():
            assert permanents[occ] == pytest.approx(prob, abs=1e-12)


def test_clicks_from_occupation():
    assert clicks_from_occupation((0, 0, 0, 0)) == (False, False)
    assert clicks_from_occupation((1, 0, 0, 0)) == (True, False)
    assert clicks_from_occupation((0, 2, 0, 0)) == (True, False)
    assert clicks_from_occupation((0, 0, 1, 1)) == (False, True)
    assert clicks_from_occupation((1, 0, 0, 3)) == (True, True)


class TestCoincidenceProb:
    def test_single_pair_lossless_law(self):
        # One pair through a lossless splitter: P(coincidence) is
        # t^2 + r^2 - 2 t r kappa^2, the lineshape's microscopic origin.
        for t in (0.3, 0.5, 0.7):
            r = 1.0 - t
            for kappa in (0.0, 0.25, 0.5, 0.75, 1.0):
                expected = t * t + r * r - 2.0 * t * r * kappa * kappa
                assert coincidence_prob(1, 1, kappa, t, r) == pytest.approx(
                    expected, abs=1e-10
                )

    def test_matches_direct_evolution_when_lossless(self):
        for kappa in (0.0, 0.3, 1.0 / math.sqrt(2.0), 1.0):
            for t in (0.35, 0.5, 0.65):
                u = splitter_unitary(t, 1.0 - t)
                direct = click_pattern_probs(temporal_decompose(kappa, 1, 1), u)
                assert coincidence_prob(1, 1, kappa, t, 1.0 - t) == pytest.approx(
                    direct[(True, True)], abs=1e-12
                )

    def test_loss_reduces_coincidences(self):
        lossless = coincidence_prob(1, 1, 0.0, 0.5, 0.5)
        lossy = coincidence_prob(1, 1, 0.0, 0.45, 0.45)
        assert lossy < lossless

    def test_zero_survival_means_zero(self):
        assert coincidence_prob(2, 2, 0.5, 0.0, 0.0) == 0.0

    def test_multiphoton_loss_decomposition(self):
        # Binomial survival thinning must agree with an explicit average
        # over surviving photon numbers at the effective splitter.
        t, r, kappa = 0.4, 0.35, 0.6
        s = t + r
        expected = 0.0
        for k_s in range(3):
            w_s = math.comb(2, k_s) * s**k_s * (1 - s) ** (2 - k_s)
            for k_i in range(2):
                w_i = math.comb(1, k_i) * s**k_i * (1 - s) ** (1 - k_i)
                if k_s + k_i < 2:
                    continue
                state = temporal_decompose(kappa, k_s, k_i)
                c = click_pattern_probs(state, splitter_unitary(t / s, r / s))
                expected += w_s * w_i * c[(True, True)]
        assert coincidence_prob(2, 1, kappa, t, r) == pytest.approx(expected, abs=1e-12)

    def test_invalid_splitter_raises(self):
        with pytest.raises(ValueError):
            coincidence_prob(1, 1, 0.5, 0.7, 0.5)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            coincidence_prob(4, 3, 0.5, 0.4, 0.4, max_total=4)
