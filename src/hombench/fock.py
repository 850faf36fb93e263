"""Exact few-photon linear optics over four modes.

The mode basis is fixed: (signal port, matched temporal mode),
(signal port, orthogonal temporal mode), (idler port, matched),
(idler port, orthogonal). A beam splitter mixes the two ports and leaves
the temporal label alone, so its single-photon matrix is a 2x2 block
tensored with the identity on temporal modes.

Two independent evolution engines are provided. `evolve_fock` computes
output amplitudes through matrix permanents; `evolve_fock_ladder` expands
the creation-operator polynomial directly. They must agree to 1e-10, and
the test suite holds them to that.

Photon totals are capped (default 4, hard engine limit 6): the permanent
cost grows as 2^n and nothing in this package needs more than three pairs.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

N_MODES = 4
HARD_PHOTON_LIMIT = 6

Occupation = tuple[int, int, int, int]
State = dict[Occupation, complex]


class CapacityError(ValueError):
    """Total photon number exceeds the configured capacity."""


def _check_occupation(occ: Occupation, max_total: int) -> None:
    if len(occ) != N_MODES or any(n < 0 for n in occ):
        raise ValueError(f"occupation must be 4 non-negative integers (got {occ!r})")
    if max_total > HARD_PHOTON_LIMIT:
        raise ValueError(
            f"capacity {max_total} exceeds the engine limit {HARD_PHOTON_LIMIT}"
        )
    if sum(occ) > max_total:
        raise CapacityError(
            f"{sum(occ)} photons exceed the capacity of {max_total}"
        )


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix by Ryser's inclusion-exclusion formula.

    Exponential in the matrix size; fine for the n <= 6 blocks used here.
    """
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"matrix must be square (got shape {m.shape})")
    if n == 0:
        return complex(1.0)
    total = 0.0 + 0.0j
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        row_sums = m[:, cols].sum(axis=1)
        sign = -1.0 if (n - len(cols)) % 2 else 1.0
        total += sign * row_sums.prod()
    return complex(total)


def splitter_unitary(t_eff: float, r_eff: float) -> np.ndarray:
    """Four-mode unitary of a lossless splitter with the symmetric phase choice.

    The 2x2 port block is [[sqrt(T), i sqrt(R)], [i sqrt(R), sqrt(T)]];
    excess loss must be commuted out by the caller before using this, so
    T + R = 1 is required here.
    """
    if not (math.isclose(t_eff + r_eff, 1.0, abs_tol=1e-12)
            and t_eff >= 0.0 and r_eff >= 0.0):
        raise ValueError(
            f"effective splitter needs T + R = 1 with T, R >= 0 "
            f"(got {t_eff!r}, {r_eff!r})"
        )
    st, sr = math.sqrt(t_eff), math.sqrt(r_eff)
    block = np.array([[st, 1j * sr], [1j * sr, st]], dtype=complex)
    return np.kron(block, np.eye(2, dtype=complex))


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (N_MODES, N_MODES):
        raise ValueError(f"mode unitary must be {N_MODES}x{N_MODES} (got {u.shape})")
    # einsum: a complex matmul would add about 0.4 MB to peak RSS for this one check.
    residual = np.abs(np.einsum("ik,jk->ij", u, u.conj()) - np.eye(N_MODES)).max()
    if not residual <= 1e-12:  # a NaN residual fails too
        raise ValueError(f"matrix is not unitary (residual {residual:.3e})")
    return u


def temporal_decompose(
    kappa: float, n_signal: int, n_idler: int, max_total: int = 4
) -> State:
    """Input state with the idler wavepacket split across temporal modes.

    Signal photons all occupy the matched mode. Each idler photon occupies
    kappa |matched> + sqrt(1 - kappa^2) |orthogonal>, so n identical idler
    photons spread binomially with amplitudes sqrt(C(n, k)) kappa^k
    (1 - kappa^2)^((n-k)/2).
    """
    if not (0.0 <= kappa <= 1.0):
        raise ValueError(f"kappa must be in [0, 1] (got {kappa!r})")
    if n_signal < 0 or n_idler < 0:
        raise ValueError("photon numbers must be >= 0")
    _check_occupation((n_signal, 0, n_idler, 0), max_total)
    lam = math.sqrt(max(0.0, 1.0 - kappa * kappa))
    state: State = {}
    for k in range(n_idler + 1):
        amp = math.sqrt(math.comb(n_idler, k)) * kappa**k * lam ** (n_idler - k)
        if amp != 0.0:
            state[(n_signal, 0, k, n_idler - k)] = complex(amp)
    return state


def _as_state(state: State | Occupation) -> State:
    if isinstance(state, tuple):
        return {state: 1.0 + 0.0j}
    return dict(state)


def _output_occupations(total: int) -> list[Occupation]:
    outs = []
    for modes in combinations_with_replacement(range(N_MODES), total):
        occ = [0] * N_MODES
        for m in modes:
            occ[m] += 1
        outs.append(tuple(occ))
    return outs


def _transition_amplitude(u: np.ndarray, out: Occupation, inp: Occupation) -> complex:
    rows = [i for i, n in enumerate(out) for _ in range(n)]
    cols = [j for j, n in enumerate(inp) for _ in range(n)]
    sub = u[np.ix_(rows, cols)]
    norm = math.sqrt(
        math.prod(math.factorial(n) for n in out)
        * math.prod(math.factorial(n) for n in inp)
    )
    return permanent(sub) / norm


def _checked_input(
    state: State | Occupation, unitary: np.ndarray, max_total: int
) -> tuple[np.ndarray, State, int]:
    """Unitary, amplitudes and photon total of an engine input, all checked."""
    u = _check_unitary(unitary)
    amplitudes = _as_state(state)
    if not amplitudes:
        raise ValueError("input state is empty")
    totals = {sum(occ) for occ in amplitudes}
    if len(totals) != 1:
        raise ValueError(f"mixed photon totals in input state: {sorted(totals)}")
    for occ in amplitudes:
        _check_occupation(occ, max_total)
    return u, amplitudes, totals.pop()


def evolve_fock(
    state: State | Occupation, unitary: np.ndarray, max_total: int = 4
) -> dict[Occupation, float]:
    """Output photon-number distribution via permanents.

    The input may be a bare occupation tuple or a dict of occupation ->
    complex amplitude; all components must share one total photon number
    (lossless evolution conserves it). Returns every output occupation of
    that total with its probability; the probabilities sum to 1.
    """
    u, amplitudes, total = _checked_input(state, unitary, max_total)
    result: dict[Occupation, float] = {}
    for out in _output_occupations(total):
        amp = 0.0 + 0.0j
        for inp, a in amplitudes.items():
            amp += a * _transition_amplitude(u, out, inp)
        result[out] = float(abs(amp) ** 2)
    return result


def evolve_fock_ladder(
    state: State | Occupation, unitary: np.ndarray, max_total: int = 4
) -> dict[Occupation, float]:
    """Output distribution by direct creation-operator expansion.

    Independent of the permanent path: each input creation operator is
    substituted with its image under the unitary and the resulting
    polynomial is expanded term by term. Used as a cross-check oracle.
    """
    u, amplitudes, _ = _checked_input(state, unitary, max_total)

    # Polynomial over output-mode exponent tuples, seeded with the vacuum.
    out_amp: dict[Occupation, complex] = {}
    for inp, a in amplitudes.items():
        poly: dict[Occupation, complex] = {(0, 0, 0, 0): a}
        for j, n_j in enumerate(inp):
            for _ in range(n_j):
                nxt: dict[Occupation, complex] = {}
                for exps, coeff in poly.items():
                    for i in range(N_MODES):
                        cij = u[i, j]
                        if cij == 0:
                            continue
                        bumped = list(exps)
                        bumped[i] += 1
                        key = tuple(bumped)
                        nxt[key] = nxt.get(key, 0.0 + 0.0j) + coeff * cij
                poly = nxt
        in_norm = math.sqrt(math.prod(math.factorial(n) for n in inp))
        for exps, coeff in poly.items():
            out_norm = math.sqrt(math.prod(math.factorial(n) for n in exps))
            out_amp[exps] = out_amp.get(exps, 0.0 + 0.0j) + coeff * out_norm / in_norm

    return {occ: float(abs(amp) ** 2) for occ, amp in out_amp.items()}


def clicks_from_occupation(occ: Occupation) -> tuple[bool, bool]:
    """Threshold-detector reduction: any photon in a port fires its detector."""
    return (occ[0] + occ[1] > 0, occ[2] + occ[3] > 0)


def click_pattern_probs(
    state: State | Occupation, unitary: np.ndarray, max_total: int = 4
) -> dict[tuple[bool, bool], float]:
    """Click-pattern distribution of an evolved state under threshold detection."""
    pattern = {(False, False): 0.0, (False, True): 0.0,
               (True, False): 0.0, (True, True): 0.0}
    for occ, prob in evolve_fock(state, unitary, max_total).items():
        pattern[clicks_from_occupation(occ)] += prob
    return pattern


def coincidence_prob(
    n_s: int,
    n_i: int,
    kappa: float,
    t: float,
    r: float,
    max_total: int = 4,
) -> float:
    """Exact two-detector coincidence probability for threshold detectors.

    Splitter excess loss (1 - T - R) is commuted to an independent
    per-photon survival draw before an effective lossless splitter with
    T/(T+R) and R/(T+R); each photon sits in its own copy of the same
    wavepacket, so dropping photons keeps the survivors' temporal
    decomposition intact. The survivors are then evolved exactly.
    """
    if not (t >= 0.0 and r >= 0.0 and t + r <= 1.0 + 1e-12):
        raise ValueError(f"need T, R >= 0 with T + R <= 1 (got {t!r}, {r!r})")
    _check_occupation((n_s, 0, n_i, 0), max_total)
    s = t + r
    if s == 0.0:
        return 0.0
    u = splitter_unitary(t / s, r / s)
    prob = 0.0
    for k_s in range(n_s + 1):
        w_s = math.comb(n_s, k_s) * s**k_s * (1.0 - s) ** (n_s - k_s)
        for k_i in range(n_i + 1):
            w_i = math.comb(n_i, k_i) * s**k_i * (1.0 - s) ** (n_i - k_i)
            if k_s + k_i < 2:
                continue
            state = temporal_decompose(kappa, k_s, k_i, max_total)
            prob += w_s * w_i * click_pattern_probs(state, u, max_total)[(True, True)]
    return prob
