"""Stochastic pulse-by-pulse simulation of the interference benchmark.

The chain per gated pulse: Poisson pair generation (truncated), photon
routing with demultiplexer crosstalk, per-photon channel and coupler
survival, an exact interference draw for the survivors (probabilities
from the `fock` oracle), and finally dark counts OR-ed onto each
threshold detector.

Photons from different pairs of the same pulse are mutually
distinguishable: each pair interferes only internally. Pairs are
independently heralded wavepackets, so a gate with n pairs composes n
independent per-pair click draws. The per-pair click distributions are
exact oracle outputs, which makes the comparison against the closed-form
visibility budget a real cross-check rather than a restatement.

Those per-pair distributions are cached by what they depend on: the
"cross" arrangement on (overlap, splitter), the four others on the
splitter alone (see `_pair_click_dist`). The oracle work of a scan grows
with the number of distinct overlaps it visits, not with delays x rows.

Determinism contract: every public run takes a seed, derives one child
generator per (point, batch) through named SeedSequence spawn keys, and
merges batch counts by commutative addition. Results are bit-for-bit
stable under any worker count; the HOMBENCH_THREADS environment variable
changes speed only.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import fock
from .analytics import (
    CalibrationError,
    amplitude_overlap,
    budget_from_config,
    car_peak_pair_rate,
    car_terms,
    indistinguishability,
    invert_car,
    visibility_prediction,
)
from .fitting import FitResult, fit_dip
from .model import ExperimentConfig, validate

SAMPLERS = ("multinomial", "per-gate")

# Pattern vector order everywhere in this module: (no click, B only, A only,
# both). Index arithmetic relies on it.
_P00, _P01, _P10, _P11 = 0, 1, 2, 3

# Click pattern of each pair arrangement without the coupler (CAR runs):
# A reads arm s, B reads arm i, threshold detectors.
_CAR_PATTERN = {"none": _P00, "single_i": _P01, "same_i": _P01,
                "single_s": _P10, "same_s": _P10, "cross": _P11}

# Gates per random-stream batch; each (point, batch) gets its own child
# seed, so these fix the streams, not just the work split.
_DIP_BATCH = 1 << 20
_CAR_BATCH = 1 << 22
# A clicks per pass of the CAR offset walk; bounds its temporaries only.
_WALK_BLOCK = 1 << 18


class InsufficientStatisticsError(RuntimeError):
    """A counting run cannot resolve its target quantity.

    `gates_needed` carries an estimate of the gate count that would.
    """

    def __init__(self, message: str, gates_needed: int):
        super().__init__(message)
        self.gates_needed = gates_needed


@dataclass(frozen=True)
class GateRecord:
    """Click outcome of one gated pulse."""

    gate_index: int
    click_a: bool
    click_b: bool


@dataclass(frozen=True)
class ScanPoint:
    """Aggregated counts at one delay setting."""

    delay_ps: float
    gates: int
    coincidences: int
    singles_a: int
    singles_b: int


@dataclass(frozen=True)
class CarResult:
    """Coincidence-to-accidental measurement summary."""

    matched_coincidences: int
    unmatched_coincidences: tuple[int, ...]
    car: float
    p_estimate: float
    gates: int
    singles_a: int
    singles_b: int


@dataclass(frozen=True)
class SweepRow:
    """One pair-rate setting of a visibility sweep."""

    pairs_per_pulse: float
    scan: tuple[ScanPoint, ...]
    fit: FitResult | None
    predicted_visibility: float
    error: str | None = None


def thread_cap() -> int:
    """Worker count for batched runs; HOMBENCH_THREADS overrides."""
    raw = os.environ.get("HOMBENCH_THREADS")
    if raw is None:
        return min(32, os.cpu_count() or 1)
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"HOMBENCH_THREADS must be a positive integer (got {raw!r})"
        )
    return cap


def _as_seedseq(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def _child(base: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=tuple(base.spawn_key) + key
    )


def _rng(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seq))


def _batches(total: int, size: int) -> Iterator[tuple[int, int, int]]:
    """(batch, start, size) blocks covering range(total); `batch` is the
    block's spawn key, so `size` fixes the random streams."""
    for batch, start in enumerate(range(0, total, size)):
        yield batch, start, min(size, total - start)


def folded_poisson(mean: float, max_n: int) -> np.ndarray:
    """Poisson pmf truncated at max_n with the tail folded into the top bin."""
    if mean < 0.0:
        raise ValueError(f"mean must be >= 0 (got {mean!r})")
    pmf = np.array(
        [math.exp(-mean) * mean**n / math.factorial(n) for n in range(max_n + 1)]
    )
    pmf[max_n] += 1.0 - pmf.sum()
    return pmf


def sample_pair_count(p: float, rng: np.random.Generator, max_pairs: int = 3) -> int:
    """One truncated-Poisson pair count; the tail folds into max_pairs."""
    if p < 0.0:
        raise ValueError(f"p must be >= 0 (got {p!r})")
    return int(min(rng.poisson(p), max_pairs))


def _vec(pattern: dict[tuple[bool, bool], float]) -> np.ndarray:
    return np.array(
        [
            pattern[(False, False)],
            pattern[(False, True)],
            pattern[(True, False)],
            pattern[(True, True)],
        ]
    )


def _pair_click_dist(
    kind: str, kappa: float, t_eff: float, r_eff: float
) -> tuple[float, float, float, float]:
    """Click-pattern distribution of one surviving pair arrangement.

    kinds: "cross" (one photon per input arm, overlap kappa), "same_s" /
    "same_i" (both photons in one arm after a crosstalk event), "single_s"
    / "single_i" (lone survivor). All probabilities come from the exact
    oracle.

    Only "cross" depends on kappa, so only "cross" is cached on (kappa,
    t_eff, r_eff); the other four are cached on the splitter alone. A scan
    therefore evaluates the oracle once per distinct overlap plus four
    times per splitter, however many delays or pair rates it visits. The
    cache keeps the 1024 most recently used entries, so a long-lived
    process that visits ever new overlaps holds bounded memory; a miss
    is cheap because `fock.evolve_fock` caches the permanents underneath.
    """
    return _arrangement_click_dist(
        kind, kappa if kind == "cross" else 0.0, t_eff, r_eff
    )


@lru_cache(maxsize=1024)
def _arrangement_click_dist(
    kind: str, kappa: float, t_eff: float, r_eff: float
) -> tuple[float, float, float, float]:
    u = fock.splitter_unitary(t_eff, r_eff)
    if kind == "cross":
        state: fock.State | fock.Occupation = fock.temporal_decompose(kappa, 1, 1)
    elif kind == "same_s":
        state = (1, 1, 0, 0)
    elif kind == "same_i":
        state = (0, 0, 1, 1)
    elif kind == "single_s":
        state = (1, 0, 0, 0)
    elif kind == "single_i":
        state = (0, 0, 1, 0)
    else:
        raise ValueError(f"unknown pair arrangement {kind!r}")
    return tuple(_vec(fock.click_pattern_probs(state, u)))


def _pair_arrangements(
    leak: float, u_s: float, u_i: float
) -> Iterator[tuple[float, str]]:
    """One pair's crosstalk routing x per-photon survival.

    Each photon swaps arms with probability `leak`, then survives with the
    probability of the arm it landed in (u_s for arm s, u_i for arm i).
    Yields (weight, arrangement) over the nonzero branches; arrangements
    are the `_pair_click_dist` kinds plus "none" (nothing survived).
    """
    u_by_port = {"s": u_s, "i": u_i}
    for leak_s, leak_i in ((0, 0), (0, 1), (1, 0), (1, 1)):
        w = (leak if leak_s else 1.0 - leak) * (leak if leak_i else 1.0 - leak)
        port_s = "i" if leak_s else "s"  # arm the signal photon lands in
        port_i = "s" if leak_i else "i"
        u_sig, u_idl = u_by_port[port_s], u_by_port[port_i]
        for surv_s in (0, 1):
            for surv_i in (0, 1):
                ws = w * (u_sig if surv_s else 1.0 - u_sig) * (
                    u_idl if surv_i else 1.0 - u_idl
                )
                if ws == 0.0:
                    continue
                if surv_s and surv_i:
                    kind = "cross" if port_s != port_i else f"same_{port_s}"
                elif surv_s or surv_i:
                    kind = f"single_{port_s if surv_s else port_i}"
                else:
                    kind = "none"
                yield ws, kind


def _pair_pattern_probs(config: ExperimentConfig, kappa: float) -> np.ndarray:
    """Marginal click-pattern distribution of a single generated pair.

    Routing and survival (channel plus coupler) from `_pair_arrangements`,
    then the exact interference of whatever survived.
    """
    surv = config.splitter.survival
    t_eff, r_eff = config.splitter.effective_t, config.splitter.effective_r
    pi = np.zeros(4)
    for weight, kind in _pair_arrangements(
        1.0 / config.source.extinction_ratio,
        config.channel_s.transmittance * surv,
        config.channel_i.transmittance * surv,
    ):
        if kind == "none":
            pi[_P00] += weight
        else:
            pi += weight * np.array(_pair_click_dist(kind, kappa, t_eff, r_eff))
    return pi


def _compose_gate_pmf(
    pair_probs: np.ndarray,
    pair_count_pmf: np.ndarray,
    dark_a: float,
    dark_b: float,
) -> np.ndarray:
    """Gate-level click-pattern pmf from independent pairs plus darks.

    Pairs are independent given their number n, so the per-gate no-click
    probabilities are mixtures of n-th powers of the per-pair ones; darks
    multiply in as one more independent veto per detector.
    """
    x_a = pair_probs[_P00] + pair_probs[_P01]  # pair leaves A silent
    x_b = pair_probs[_P00] + pair_probs[_P10]
    x_0 = pair_probs[_P00]
    powers = np.arange(pair_count_pmf.size)
    e_a = float(pair_count_pmf @ x_a**powers)
    e_b = float(pair_count_pmf @ x_b**powers)
    e_0 = float(pair_count_pmf @ x_0**powers)

    p00 = (1.0 - dark_a) * (1.0 - dark_b) * e_0
    p01 = (1.0 - dark_a) * e_a - p00
    p10 = (1.0 - dark_b) * e_b - p00
    p11 = 1.0 - p00 - p01 - p10
    pmf = np.clip(np.array([p00, p01, p10, p11]), 0.0, None)
    return pmf / pmf.sum()


def gate_pattern_distribution(
    config: ExperimentConfig, kappa: float | None = None
) -> np.ndarray:
    """Exact per-gate click-pattern pmf (no click, B only, A only, both).

    This is the distribution the per-gate sampler draws from implicitly
    and the multinomial sampler draws from directly; unit tests hold the
    empirical gate simulation to it. A given `kappa` overrides the overlap
    implied by the configured delay and must lie in [0, 1].
    """
    validate(config)
    if kappa is None:
        kappa = amplitude_overlap(config.delay_ps, config.wavepacket.sigma_ps)
    elif not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must be in [0, 1] (got {kappa!r})")
    pair_probs = _pair_pattern_probs(config, kappa)
    pair_count_pmf = folded_poisson(
        config.source.mean_pairs_per_pulse, config.source.max_pairs
    )
    return _compose_gate_pmf(
        pair_probs,
        pair_count_pmf,
        config.detector_a.dark_prob_per_gate,
        config.detector_b.dark_prob_per_gate,
    )


def simulate_gate(
    config: ExperimentConfig, rng: np.random.Generator, gate_index: int = 0
) -> GateRecord:
    """Simulate one gated pulse through the literal staged mechanism.

    Reference implementation: the batched samplers collapse these stages
    into precomputed distributions, and tests pin their agreement.
    """
    kappa = amplitude_overlap(config.delay_ps, config.wavepacket.sigma_ps)
    leak = 1.0 / config.source.extinction_ratio
    surv = config.splitter.survival
    u_by_port = {
        "s": config.channel_s.transmittance * surv,
        "i": config.channel_i.transmittance * surv,
    }
    t_eff, r_eff = config.splitter.effective_t, config.splitter.effective_r

    click_a = click_b = False
    n = sample_pair_count(
        config.source.mean_pairs_per_pulse, rng, config.source.max_pairs
    )
    for _ in range(n):
        port_s = "i" if rng.random() < leak else "s"
        port_i = "s" if rng.random() < leak else "i"
        surv_s = rng.random() < u_by_port[port_s]
        surv_i = rng.random() < u_by_port[port_i]
        if surv_s and surv_i:
            if port_s == port_i:
                kind = "same_s" if port_s == "s" else "same_i"
            else:
                kind = "cross"
        elif surv_s:
            kind = "single_s" if port_s == "s" else "single_i"
        elif surv_i:
            kind = "single_s" if port_i == "s" else "single_i"
        else:
            continue
        dist = _pair_click_dist(kind, kappa, t_eff, r_eff)
        pattern = int(np.searchsorted(np.cumsum(dist), rng.random(), side="right"))
        click_a |= pattern in (_P10, _P11)
        click_b |= pattern in (_P01, _P11)
    if rng.random() < config.detector_a.dark_prob_per_gate:
        click_a = True
    if rng.random() < config.detector_b.dark_prob_per_gate:
        click_b = True
    return GateRecord(gate_index, click_a, click_b)


def _simulate_batch(
    rng: np.random.Generator,
    n_gates: int,
    pair_count_pmf: np.ndarray,
    pattern_cum: np.ndarray,
    dark_a: float,
    dark_b: float,
) -> np.ndarray:
    """Click-pattern counts of one batch of gates, sampled per gate.

    Gates are exchangeable, so a batch costs only its gates with pairs.
    Draws, in this order: one multinomial splits the batch by pair number;
    one more counts the pair-free gates over the four dark patterns; the
    gates with pairs, ordered by descending pair number (so pair slot s is
    the first `by_n[s:].sum()` of them), draw one pattern per pair from
    `pattern_cum` and one dark uniform per detector. The stream layout
    depends on the drawn counts alone: the batch generator fixes the result.
    """
    by_n = rng.multinomial(n_gates, pair_count_pmf)
    idle = rng.multinomial(by_n[0], [
        (1.0 - dark_a) * (1.0 - dark_b), (1.0 - dark_a) * dark_b,
        dark_a * (1.0 - dark_b), dark_a * dark_b,
    ])
    active = n_gates - int(by_n[0])
    click_a = np.zeros(active, dtype=bool)
    click_b = np.zeros(active, dtype=bool)
    for slot in range(1, by_n.size):
        m = int(by_n[slot:].sum())
        pat = np.searchsorted(pattern_cum, rng.random(m), side="right")
        click_a[:m] |= (pat == _P10) | (pat == _P11)
        click_b[:m] |= (pat == _P01) | (pat == _P11)
    click_a |= rng.random(active) < dark_a
    click_b |= rng.random(active) < dark_b
    return idle + np.bincount(2 * click_a + click_b, minlength=4)


def run_dip_scan(
    config: ExperimentConfig,
    delays: list[float],
    gates_per_point: int,
    seed: int | np.random.SeedSequence,
    sampler: str = "multinomial",
) -> list[ScanPoint]:
    """Coincidence scan over delay settings.

    sampler = "multinomial" draws each point's pattern counts in one exact
    multinomial from the per-gate pmf (distributionally identical to
    simulating every gate, any gate count in O(1)); "per-gate" samples the
    stochastic chain itself (pair number, per-pair patterns, darks) in
    `_DIP_BATCH`-gate batches, see `_simulate_batch`. Deterministic for a
    given (config, seed, sampler) at any thread count: each (point, batch)
    has its own generator from a fixed spawn key, and batch counts add.
    """
    validate(config)
    if gates_per_point < 1:
        raise ValueError(f"gates_per_point must be >= 1 (got {gates_per_point!r})")
    if not delays:
        raise ValueError("delays must be non-empty")
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS} (got {sampler!r})")
    base = _as_seedseq(seed)
    configs = [replace(config, delay_ps=float(delay)) for delay in delays]
    counts = np.zeros((len(delays), 4), dtype=np.int64)

    if sampler == "multinomial":
        for i, cfg in enumerate(configs):
            counts[i] = _rng(_child(base, i)).multinomial(
                gates_per_point, gate_pattern_distribution(cfg)
            )
    else:
        pair_count_pmf = folded_poisson(
            config.source.mean_pairs_per_pulse, config.source.max_pairs
        )
        darks = (config.detector_a.dark_prob_per_gate,
                 config.detector_b.dark_prob_per_gate)
        tasks = []
        for i, cfg in enumerate(configs):
            kappa = amplitude_overlap(cfg.delay_ps, cfg.wavepacket.sigma_ps)
            cum = np.cumsum(_pair_pattern_probs(cfg, kappa))
            tasks.extend(
                (i, batch, size, cum)
                for batch, _, size in _batches(gates_per_point, _DIP_BATCH)
            )

        def run_task(task):
            i, batch, size, cum = task
            return i, _simulate_batch(
                _rng(_child(base, i, batch)), size, pair_count_pmf, cum, *darks
            )

        with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
            for i, batch_counts in pool.map(run_task, tasks):
                counts[i] += batch_counts

    return [
        ScanPoint(float(delay), gates_per_point, coincidences=int(c[_P11]),
                  singles_a=int(c[_P10] + c[_P11]),
                  singles_b=int(c[_P01] + c[_P11]))
        for delay, c in zip(delays, counts)
    ]


def _car_pattern_distribution(config: ExperimentConfig) -> np.ndarray:
    """Per-slot click-pattern pmf for direct pair monitoring.

    The coincidence-to-accidental measurement taps the two channels
    straight into the detectors (no interference coupler in the path) and
    resolves clicks in single pulse slots with a time tagger. Two
    consequences for the model:

    * detector A sees the signal channel and detector B the idler channel,
      with only the channel efficiencies applied (crosstalk still swaps
      photons between the channels), so each arrangement of
      `_pair_arrangements` fixes the click pattern;
    * the dark probability for one slot is the configured per-gate value
      divided by the gate divider: the same dark rate, resolved in a
      pulse-period window instead of a whole gate.
    """
    p, eta_s, eta_i, dark_a, dark_b = car_terms(config)
    pi = np.zeros(4)
    for weight, kind in _pair_arrangements(
        1.0 / config.source.extinction_ratio, eta_s, eta_i
    ):
        pi[_CAR_PATTERN[kind]] += weight
    pair_count_pmf = folded_poisson(p, config.source.max_pairs)
    return _compose_gate_pmf(pi, pair_count_pmf, dark_a, dark_b)


def _offset_counts(a_pos: np.ndarray, b_pos: np.ndarray, k_max: int) -> np.ndarray:
    """Counts of (a, b) pairs with b - a = k for k = 1 .. k_max.

    `a_pos` and `b_pos` are sorted and distinct. A walk from the first B
    click after each A click: every pass steps each A click to its next
    B click and drops the A clicks whose next B click is over k_max gates
    away; offsets grow by at least one per pass, so at most k_max + 1 run.
    """
    hist = np.zeros(k_max + 1, dtype=np.int64)
    for _, start, size in _batches(a_pos.size, _WALK_BLOCK):
        a = a_pos[start:start + size]
        j = np.searchsorted(b_pos, a, side="right")
        while a.size:
            live = j < b_pos.size
            a, j = a[live], j[live]
            d = b_pos[j] - a
            near = d <= k_max
            a, j = a[near], j[near] + 1
            hist += np.bincount(d[near], minlength=k_max + 1)
    return hist[1:]


def run_car(
    config: ExperimentConfig,
    gates: int,
    n_offset_slots: int = 10,
    seed: int | np.random.SeedSequence = 0,
) -> CarResult:
    """Coincidence-to-accidental ratio from a matched/offset slot histogram.

    Matched coincidences are same-gate A and B clicks. Accidentals are
    estimated from A clicks at gate g paired with B clicks at gate g + k
    for k = 1 .. n_offset_slots, pooled over offsets. The configured delay
    must park the interferometer far off the dip (overlap below 1e-6) so
    that matched counting is interference-free.

    The sampler is exact at any click density: per batch, pattern counts
    are drawn from the per-slot pmf, and the clicking gates are an exact
    uniform k-subset of the batch from numpy's `Generator.choice(...,
    replace=False)` in random order (gate outcomes are exchangeable).
    Sparse batches cost only the clicks they produce. Offsets are counted
    batch by batch, with the A clicks of the previous n_offset_slots gates
    carried in, so memory is O(batch) however many gates the run has.

    See `_car_pattern_distribution` for the detection geometry and the
    per-slot dark-count convention.
    """
    validate(config)
    if gates < 1:
        raise ValueError(f"gates must be >= 1 (got {gates!r})")
    if n_offset_slots < 1:
        raise ValueError(f"n_offset_slots must be >= 1 (got {n_offset_slots!r})")
    if gates <= n_offset_slots:
        raise ValueError("gates must exceed n_offset_slots")
    overlap = indistinguishability(config.delay_ps, config.wavepacket.sigma_ps)
    if overlap >= 1e-6:
        raise ValueError(
            f"delay {config.delay_ps} ps leaves overlap {overlap:.3g}; "
            f"park the delay off the dip (overlap < 1e-6) for CAR runs"
        )

    pmf = _car_pattern_distribution(config)
    q_a = pmf[_P10] + pmf[_P11]
    q_b = pmf[_P01] + pmf[_P11]
    offsets = np.arange(1, n_offset_slots + 1)
    expected_acc = float(q_a * q_b * (gates * n_offset_slots - offsets.sum()))
    needed = math.ceil(100.0 / max(q_a * q_b * n_offset_slots, 1e-300)) + n_offset_slots
    if expected_acc < 100.0:
        raise InsufficientStatisticsError(
            f"expected {expected_acc:.1f} accidental coincidences over "
            f"{gates} gates; at least 100 are needed (about {needed} gates)",
            gates_needed=needed,
        )

    base = _as_seedseq(seed)
    counts = np.zeros(4, dtype=np.int64)
    hist = np.zeros(n_offset_slots, dtype=np.int64)
    carry = np.zeros(0, dtype=np.int64)  # A clicks within reach of the batch
    for batch, start, size in _batches(gates, _CAR_BATCH):
        rng = _rng(_child(base, batch))
        c = rng.multinomial(size, pmf)
        counts += c
        # Shuffled, so the split into both / A only / B only is uniform.
        pos = rng.choice(size, c[_P01] + c[_P10] + c[_P11], replace=False) + start
        n_a = c[_P11] + c[_P10]
        a = np.concatenate((carry, np.sort(pos[:n_a])))
        b = np.sort(np.concatenate((pos[:c[_P11]], pos[n_a:])))
        # Each pair is counted in the batch that holds its B click.
        hist += _offset_counts(a, b, n_offset_slots)
        carry = a[a >= start + size - n_offset_slots]

    matched = int(counts[_P11])
    unmatched = [int(k) for k in hist]
    total_unmatched = sum(unmatched)
    if total_unmatched == 0:
        raise InsufficientStatisticsError(
            f"no accidental coincidences in {gates} gates; "
            f"about {needed} gates are needed",
            gates_needed=needed,
        )

    matched_rate = matched / gates
    accidental_rate = total_unmatched / float((gates - offsets).sum())
    car = matched_rate / accidental_rate

    _, *detection = car_terms(config)
    try:
        p_estimate = invert_car(max(car, 1.0), *detection)
    except CalibrationError:
        # Observed CAR above the model maximum (possible in the tails of
        # low statistics): report the peak-rate point estimate.
        p_estimate = car_peak_pair_rate(*detection)
    return CarResult(
        matched_coincidences=matched,
        unmatched_coincidences=tuple(unmatched),
        car=car,
        p_estimate=p_estimate,
        gates=gates,
        singles_a=int(counts[_P10] + counts[_P11]),
        singles_b=int(counts[_P01] + counts[_P11]),
    )


def run_visibility_sweep(
    config: ExperimentConfig,
    p_values: list[float],
    gates_per_point: int,
    seed: int | np.random.SeedSequence,
    delays: list[float] | None = None,
    sampler: str = "multinomial",
) -> list[SweepRow]:
    """Dip scan and fit at each pair rate; fit failures stay per-row.

    Each row gets an independent child seed, a full scan, a lineshape fit,
    and the closed-form visibility prediction for overlay.
    """
    validate(config)
    if not p_values:
        raise ValueError("p_values must be non-empty")
    if delays is None:
        delays = np.linspace(-6.0, 6.0, 21).tolist()
    base = _as_seedseq(seed)
    rows: list[SweepRow] = []
    for j, p in enumerate(p_values):
        cfg = replace(
            config, source=replace(config.source, mean_pairs_per_pulse=float(p))
        )
        predicted = visibility_prediction(budget_from_config(cfg))
        points = run_dip_scan(
            cfg, delays, gates_per_point, _child(base, j), sampler=sampler
        )
        try:
            fit = fit_dip(points, cfg.splitter)
            rows.append(SweepRow(float(p), tuple(points), fit, predicted))
        except ValueError as exc:
            rows.append(SweepRow(float(p), tuple(points), None, predicted, str(exc)))
    return rows
