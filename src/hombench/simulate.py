"""Stochastic pulse-by-pulse simulation of the interference benchmark.

The chain per gated pulse: Poisson pair generation (untruncated), photon
routing with demultiplexer crosstalk, per-photon channel and coupler
survival, an interference draw for the survivors, and finally dark
counts OR-ed onto each threshold detector. The samplers draw from the
exact distributions of `exact`.

Determinism contract: every public run takes a seed, derives one child
generator per (point, batch) through named SeedSequence spawn keys, and
merges batch counts by commutative addition (a dip batch is 2^20 gates,
a CAR block 2^13 short gaps between clicks; a dip scan hashes its keys
in one numpy pass and builds each generator when its batch runs; a
per-gate scan deals its batches round-robin to workers, each adding into
its own counts, summed once all have joined). Results are bit-for-bit
stable under any worker count; HOMBENCH_THREADS changes speed only.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .analytics import (
    _P01,
    _P10,
    _P11,
    CalibrationError,
    amplitude_overlap,
    budget_from_config,
    car_peak_pair_rate,  # not called here; perfbench/probe.py wraps it here
    car_slot_pmf,
    car_terms,
    indistinguishability,
    invert_car,
    visibility_prediction,
)
from .exact import (
    _gate_pmfs,
    _pair_click_dist,
    _pair_pattern_probs,
    exact_visibility,
    gate_pattern_distribution,  # not called here; perfbench/probe.py reads it here
)
from .fitting import FitResult, fit_dip
from .model import ConfigError, ExperimentConfig, ScanPoint, validate

SAMPLERS = ("multinomial", "per-gate")

# Gates per dip random-stream batch, short click gaps per CAR block; each
# (point, batch) gets its own child seed, so these fix the streams, not just
# the work split.
_DIP_BATCH = 1 << 20
_CAR_SHORT_GAPS = 1 << 13

# SeedSequence's hash constants (NEP 19; O'Neill 2014, HMC-CS-2014-0905).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_M32 = 0xFFFFFFFF
_SEED_CHUNK = 1024  # keys `_seed_words` hashes per pass, which bounds its temporaries


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
class CarResult:
    """Coincidence-to-accidental measurement summary."""

    matched_coincidences: int
    unmatched_coincidences: tuple[int, ...]
    car: float
    p_estimate: float | None
    gates: int
    singles_a: int
    singles_b: int
    p_estimate_note: str | None = None  # why p_estimate is None


@dataclass(frozen=True)
class SweepRow:
    """One pair-rate setting of a visibility sweep."""

    pairs_per_pulse: float
    scan: tuple[ScanPoint, ...]
    fit: FitResult | None
    predicted_visibility: float
    exact_visibility: float
    error: str | None = None


def thread_cap() -> int:
    """Worker count for batched runs: the CPUs this process may run on,
    or HOMBENCH_THREADS if set; at most 32 either way."""
    raw = os.environ.get("HOMBENCH_THREADS")
    if raw is None:
        has_affinity = hasattr(os, "sched_getaffinity")  # not on macOS or Windows
        return min(32, len(os.sched_getaffinity(0)) if has_affinity else os.cpu_count() or 1)
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"HOMBENCH_THREADS must be a positive integer (got {raw!r})"
        )
    return min(32, cap)


def _count(name: str, value: int) -> int:
    """`value` as an int; refused unless a whole number >= 1 and not a bool."""
    if isinstance(value, bool) or not (
            math.isfinite(value) and value >= 1 and value == int(value)):
        raise ValueError(f"{name} must be a whole number >= 1 (got {value!r})")
    return int(value)


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


@dataclass
class _Words:
    """Seed words hashed ahead, standing in for a SeedSequence in PCG64."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _seed_words(base: np.random.SeedSequence, keys) -> np.ndarray:
    """Row r seeds `_rng(_Words(row))` as `_child(base, *keys[r])` would, in
    numpy passes of SeedSequence's own hash over `_SEED_CHUNK` keys each,
    with uint32 words held in uint64 arrays."""
    def hashmix(v: np.ndarray, init: int, mult: int, calls: int) -> np.ndarray:
        # Call number `calls` from `init`; h is a Python int, as a numpy one warns on overflow.
        h = init * pow(mult, calls, 1 << 32) & _M32
        v = (v ^ h) * (h * mult & _M32) & _M32
        return v ^ v >> 16

    from numpy.random import bit_generator as bg  # not at import: it costs set-up
    bg.ISeedSequence.register(_Words)
    keys = np.asarray(keys).reshape(len(keys), -1)
    # base.pool took four hash calls per word of its padded entropy.
    n_words = (max(4, bg._coerce_to_uint32_array(base.entropy).size)
               + bg._coerce_to_uint32_array(base.spawn_key).size)
    out = np.empty((len(keys), 4), dtype=np.uint64)
    for lo in range(0, len(keys), _SEED_CHUNK):
        chunk = keys[lo:lo + _SEED_CHUNK].astype(np.uint64)
        assert (chunk <= _M32).all(), "each key element must be one uint32 word"
        pool = np.tile(base.pool.astype(np.uint64), (len(chunk), 1))
        for c, word in enumerate(chunk.T, start=n_words):
            for d in range(4):
                v = hashmix(word, _INIT_A, _MULT_A, 4 * c + d)
                mixed = (0xCA01F9DD * pool[:, d] - 0x4973F715 * v) & _M32
                pool[:, d] = mixed ^ mixed >> 16
        # generate_state(4, uint64): eight uint32 words cycling the pool, paired little-endian.
        state = [hashmix(pool[:, d % 4], _INIT_B, _MULT_B, d) for d in range(8)]
        out[lo:lo + _SEED_CHUNK] = np.stack(state[::2], 1) | np.stack(state[1::2], 1) << 32
    return out


def _generators(base: np.random.SeedSequence, keys) -> map[np.random.Generator]:
    """`_rng(_child(base, *key))` per row of `keys`, each built when reached."""
    return map(_rng, map(_Words, _seed_words(base, keys)))


def simulate_gate(
    config: ExperimentConfig, rng: np.random.Generator, gate_index: int = 0
) -> GateRecord:
    """Simulate one gated pulse through the literal staged mechanism.

    Reference implementation: the batched samplers collapse these stages
    into precomputed distributions, and tests pin their agreement.
    """
    validate(config)
    twin = amplitude_overlap(config.delay_ps, config.wavepacket.sigma_ps) ** 2
    leak = 1.0 / config.source.extinction_ratio
    surv = config.splitter.survival
    u_by_port = {
        "s": config.channel_s.transmittance * surv,
        "i": config.channel_i.transmittance * surv,
    }
    t_eff, r_eff = config.splitter.effective_t, config.splitter.effective_r

    click_a = click_b = False
    for _ in range(rng.poisson(config.source.mean_pairs_per_pulse)):
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
        if kind == "cross":  # indistinguishable with probability kappa^2
            dist = (twin * np.array(_pair_click_dist("twin", t_eff, r_eff))
                    + (1.0 - twin) * np.array(_pair_click_dist("split", t_eff, r_eff)))
        else:
            dist = _pair_click_dist(kind, t_eff, r_eff)
        pattern = int(np.searchsorted(np.cumsum(dist), rng.random(), side="right"))
        click_a |= pattern in (_P10, _P11)
        click_b |= pattern in (_P01, _P11)
    if rng.random() < config.detector_a.dark_prob_per_gate:
        click_a = True
    if rng.random() < config.detector_b.dark_prob_per_gate:
        click_b = True
    return GateRecord(gate_index, click_a, click_b)


def _poisson_pmf(mean: float) -> np.ndarray:
    """Pois(n; mean) for n = 0 .. N, N >= 3, the tail past N below 2^-64.

    From n = 2 mean - 1 on, terms at least halve, so the tail is below the
    last term. Terms from n = 3 on go through their logs, so exp(-mean) may
    underflow without zeroing the pmf; the first three, all that the first
    draw of `_simulate_batch` reads, keep the form exp(-mean) mean^n / n!.
    """
    log_mean = math.log(mean) if mean > 0.0 else -math.inf
    pmf = [math.exp(-mean) * mean**n / math.factorial(n) for n in range(3)]
    while len(pmf) < max(4.0, 2.0 * mean) or pmf[-1] >= 2.0**-64:
        n = len(pmf)
        pmf.append(math.exp(n * log_mean - mean - math.lgamma(n + 1)))
    return np.array(pmf)


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
    Draws, in this order: one multinomial splits the batch into gates with
    0, 1, 2 and 3 or more pairs; one more counts the pair-free gates over
    the four dark patterns; the gates with pairs, ordered by descending
    pair number (so pair slot s is the first `by_n[s:].sum()` of them),
    draw one pattern per pair from `pattern_cum` in slots 1 to 3, then one
    dark uniform per detector; only if some gates hold 3 or more pairs, one
    multinomial splits them over 3 .. N of `pair_count_pmf`, and slots 4
    on draw likewise, up to the first empty slot. The stream layout depends
    on the drawn counts alone: the batch generator fixes the result.
    """
    head = pair_count_pmf[:3]  # numpy gives the last bin what these leave
    by_n = rng.multinomial(n_gates, [*head, max(0.0, 1.0 - head.sum())])
    idle = rng.multinomial(by_n[0], [
        (1.0 - dark_a) * (1.0 - dark_b), (1.0 - dark_a) * dark_b,
        dark_a * (1.0 - dark_b), dark_a * dark_b,
    ])
    active = n_gates - int(by_n[0])
    click_a = np.zeros(active, dtype=bool)
    click_b = np.zeros(active, dtype=bool)
    # Pattern k covers [cum[k - 1], cum[k]); u >= cum[3] clicks nowhere.
    c01, c10, c11, c_all = pattern_cum.tolist()

    def draw_slots(by_bin: np.ndarray) -> None:  # slot j: gates in bins j and up
        for m in np.cumsum(by_bin[::-1])[::-1].tolist():
            if not m:
                break
            u = rng.random(m)
            below = u < c_all
            click_a[:m] |= (u >= c10) & below
            click_b[:m] |= (u >= c01) & (u < c10) | (u >= c11) & below

    draw_slots(by_n[1:])
    click_a |= rng.random(active) < dark_a
    click_b |= rng.random(active) < dark_b
    if by_n[3]:
        tail = pair_count_pmf[3:]
        draw_slots(rng.multinomial(by_n[3], tail / tail.sum())[1:])
    n_a, n_b, n_ab = map(np.count_nonzero, (click_a, click_b, click_a & click_b))
    return idle + np.array([active - n_a - n_b + n_ab, n_b - n_ab, n_a - n_ab, n_ab])


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
    `_DIP_BATCH`-gate batches, see `_simulate_batch`. Either way the
    delays are checked and the pmfs of all points built once per scan, in
    one pass over the overlaps. Deterministic for a given (config, seed,
    sampler) at any thread count: each (point, batch) has its own
    generator from a fixed spawn key, and batch counts add. Worker w of n
    runs batches w, w + n, ...; the first error of any worker is raised
    after all have joined.
    """
    validate(config)
    gates_per_point = _count("gates_per_point", gates_per_point)
    if not delays:
        raise ValueError("delays must be non-empty")
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS} (got {sampler!r})")
    bad = [d for d in delays if not math.isfinite(d)]
    if bad:
        raise ConfigError([f"delay_ps: must be finite (got {float(bad[0])!r})"])
    base = _as_seedseq(seed)
    kappas = [amplitude_overlap(float(d), config.wavepacket.sigma_ps) for d in delays]
    counts = np.zeros((len(delays), 4), dtype=np.int64)

    if sampler == "multinomial":
        counts[:] = [rng.multinomial(gates_per_point, pmf) for pmf, rng in
                     zip(_gate_pmfs(config, kappas), _generators(base, range(len(delays))))]
    else:
        pair_count_pmf = _poisson_pmf(config.source.mean_pairs_per_pulse)
        darks = (config.detector_a.dark_prob_per_gate,
                 config.detector_b.dark_prob_per_gate)
        cums = np.cumsum(_pair_pattern_probs(config, kappas), axis=1)
        n_batches = -(-gates_per_point // _DIP_BATCH)
        keys = np.column_stack(np.divmod(np.arange(len(delays) * n_batches), n_batches))

        seeds = _seed_words(base, keys)
        n_workers = min(thread_cap(), len(keys))
        partial = np.zeros((n_workers, len(delays), 4), dtype=np.int64)
        errors: list[BaseException] = []

        def work(w: int) -> None:
            try:
                for (i, batch), words in zip(keys[w::n_workers], seeds[w::n_workers]):
                    size = min(_DIP_BATCH, gates_per_point - batch * _DIP_BATCH)
                    partial[w, i] += _simulate_batch(
                        _rng(_Words(words)), size, pair_count_pmf, cums[i], *darks)
            except BaseException as exc:
                errors.append(exc)

        # The calling thread is worker 0, so one worker starts no thread.
        threads = [threading.Thread(target=work, args=(w,)) for w in range(1, n_workers)]
        for t in threads:
            t.start()
        work(0)
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        counts[:] = partial.sum(axis=0)

    return [
        ScanPoint(float(delay), gates_per_point, coincidences=int(c[_P11]),
                  singles_a=int(c[_P10] + c[_P11]),
                  singles_b=int(c[_P01] + c[_P11]))
        for delay, c in zip(delays, counts)
    ]


def _offset_walk(pos: np.ndarray, pat: np.ndarray, n_old: int, k_max: int) -> np.ndarray:
    """Counts of A-then-B click pairs k = 1 .. k_max gates apart.

    `pos` holds sorted, distinct click gates and `pat` their patterns; a
    pair is an A click at g and a B click at g + k not among the first
    `n_old` (carried) clicks. Where the clicks span at most twice their
    number of gates, offset k is one AND of the A and B indicators over
    the span, shifted by k: gates are distinct, so each pair is one gate
    g. Sparser clicks are walked: pass m pairs each click with the m-th
    after it. A pair of pass m + 1 spans one of pass m, so the walk stops
    at the first pass with none within k_max.
    """
    is_a, is_b = pat >= _P10, pat != _P10
    hist = np.zeros(k_max + 1, dtype=np.int64)
    if pos.size and pos[-1] - pos[0] < 2 * pos.size:
        a, b = np.zeros((2, pos[-1] - pos[0] + 1), dtype=bool)
        a[pos[is_a] - pos[0]] = True
        b[pos[n_old:][is_b[n_old:]] - pos[0]] = True
        for k in range(1, min(k_max + 1, a.size)):  # offsets past the span add 0
            hist[k] = np.count_nonzero(a[:-k] & b[k:])
        return hist[1:]
    for m in range(1, pos.size):
        lo, hi = max(n_old - m, 0), pos.size - m
        d = pos[lo + m:] - pos[lo:hi]
        near = d <= k_max
        if not near.any():
            break
        near &= is_a[lo:hi] & is_b[lo + m:]
        hist += np.bincount(d[near], minlength=k_max + 1)
    return hist[1:]


def _cluster_clicks(
    rng: np.random.Generator, last: int, gates: int, k: int, q: float, lam: float
) -> tuple[np.ndarray, int]:
    """Draw one CAR block of `_CAR_SHORT_GAPS` short gaps after gate `last`.

    Returns the sorted gates of the clicks next to a short gap, the last of
    them ending the block, and the number of clicks inside runs of long
    gaps that fall before `gates`. See `run_car` for the decomposition.
    The run across the last gate has a few hundred cut points at the
    reference config. They are sorted as a Python list, because numpy's
    sort kernel would page in about 256 kB of code for them.
    """
    gap = (rng.standard_exponential(_CAR_SHORT_GAPS) / lam).astype(np.int64) + 1
    # gap - 1 = R k + (S - 1): R ~ geometric(s) long gaps precede a short
    # gap S <= k, independent of R. Only a gap > k carries a run.
    run = np.flatnonzero(gap > k)
    if not run.size:  # usual when clicks are dense: skip ~60 us of empty calls
        return last + np.cumsum(gap), 0
    r = (gap[run] - 1) // k
    short = gap[run] - k * r
    excess = rng.negative_binomial(r, q)
    gap[run] += r + excess  # R long gaps sum to R (k + 1) + NegBinomial(R, q)
    end = last + np.cumsum(gap)
    entry = end[run] - short  # the click that ends each run
    # The R - 1 clicks inside a run have long gaps on both sides.
    isolated = int((r[entry < gates] - 1).sum())
    i = int(np.searchsorted(entry, gates))
    if i < run.size and r[i] > 1:
        # The run across the last gate: given their sum, its long gaps'
        # excess failures are a uniform weak composition into R parts.
        r_i, excess_i = int(r[i]), int(excess[i])
        cuts = sorted(rng.choice(excess_i + r_i - 1, r_i - 1,
                                 replace=False, shuffle=False).tolist())
        start = int(entry[i]) - excess_i - r_i * (k + 1)
        # The m-th inner click sits at start + m k + cuts[m - 1] + 1.
        isolated += sum(start + m * k + cut + 1 < gates for m, cut in enumerate(cuts, 1))
    new = np.repeat(end, 1 + (gap > k))  # each run's last click goes before its end
    new[run + np.arange(run.size)] = entry
    return new, isolated


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

    The sampler is exact at any click density and costs per cluster of
    clicks, not per click. Gates click independently with probability q,
    so the gaps between clicks are iid geometric(q) (Devroye 1986, ch. V).
    Only short gaps, of at most K = n_offset_slots gates (probability
    s = 1 - (1 - q)^K), join a pair that can be counted. A block draws
    `_CAR_SHORT_GAPS` short gaps, each from one standard exponential E:
    floor(E / lambda) = R K + (S - 1), lambda = -log(1 - q), gives the
    short gap S and, independent of it, the R ~ geometric(s) long gaps
    before it, whose summed length is R (K + 1) + NegBinomial(R, q) in one
    draw. The clicks next to a short gap take their positions from one
    cumsum and one pattern uniform each. The R - 1 clicks inside a run of
    long gaps pair with nothing, and one multinomial per block picks their
    patterns. The run that crosses the last gate places its clicks
    exactly: given their sum, iid geometric excesses are a uniform weak
    composition, so R - 1 cut points do. Offsets are counted block by
    block, with the clicks of the previous n_offset_slots gates carried
    in, so memory is O(block) however many gates run; dense blocks count
    each offset with one AND of click indicators (`_offset_walk`).

    See `analytics.car_slot_pmf` for the detection geometry and `car_terms`
    for the per-slot darks. `p_estimate` is `invert_car` of the observed
    CAR on the branch its singles pick, or None with the reason in
    `p_estimate_note`.
    """
    validate(config)
    gates, n_offset_slots = _count("gates", gates), _count("n_offset_slots", n_offset_slots)
    if gates <= n_offset_slots:
        raise ValueError("gates must exceed n_offset_slots")
    overlap = indistinguishability(config.delay_ps, config.wavepacket.sigma_ps)
    if overlap >= 1e-6:
        raise ValueError(
            f"delay {config.delay_ps} ps leaves overlap {overlap:.3g}; "
            f"park the delay off the dip (overlap < 1e-6) for CAR runs"
        )

    terms = car_terms(config)
    _, p01, p10, p11 = car_slot_pmf(*terms)
    q_a, q_b = p10 + p11, p01 + p11
    k = n_offset_slots
    pair_slots = k * gates - k * (k + 1) // 2  # gate pairs (g, g + j), j = 1 .. k
    expected_acc = q_a * q_b * pair_slots
    needed = math.ceil(100.0 / max(q_a * q_b * k, 1e-300)) + k
    if expected_acc < 100.0:
        raise InsufficientStatisticsError(
            f"expected {expected_acc:.1f} accidental coincidences over "
            f"{gates} gates; at least 100 are needed (about {needed} gates)",
            gates_needed=needed,
        )

    base = _as_seedseq(seed)
    q = p01 + p10 + p11  # not 1 - P00, which loses digits at low rates
    lam = -math.log1p(-q) if q < 1.0 else math.inf  # q = 1: every gap is 1
    t_b, t_ab = p01 / q, (p01 + p10) / q  # B only, A only
    shares = [p01 / q, p10 / q, p11 / q]
    counts = np.zeros(4, dtype=np.int64)
    hist = np.zeros(k, dtype=np.int64)
    # Cluster clicks within reach of the next block, and their patterns.
    pos, pat = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8)
    last, block = -1, 0
    while last < gates - 1:
        rng = _rng(_child(base, block))
        new, isolated = _cluster_clicks(rng, last, gates, k, q, lam)
        u = rng.random(new.size)
        counts[_P01:] += rng.multinomial(isolated, shares)
        last, n_new, n_old = int(new[-1]), int(np.searchsorted(new, gates)), pos.size
        pos = np.concatenate((pos, new[:n_new]))
        u = u[:n_new]
        pat = np.concatenate((pat, np.add(u >= t_b, u >= t_ab, dtype=np.int8) + _P01))
        counts += np.bincount(pat[n_old:], minlength=4)
        # Each pair is counted in the block that holds its later click.
        hist += _offset_walk(pos, pat, n_old, k)
        keep = np.searchsorted(pos, last - k, side="right")
        pos, pat = pos[keep:], pat[keep:]
        block += 1

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
    accidental_rate = total_unmatched / pair_slots
    car = matched_rate / accidental_rate

    singles_a, singles_b = int(counts[_P10] + counts[_P11]), int(counts[_P01] + counts[_P11])
    try:
        p_estimate = invert_car(car, singles_a * singles_b / gates**2, *terms[1:])
        note = None
    except CalibrationError as exc:
        p_estimate, note = None, str(exc)
    return CarResult(
        matched_coincidences=matched,
        unmatched_coincidences=tuple(unmatched),
        car=car,
        p_estimate=p_estimate,
        gates=gates,
        singles_a=singles_a,
        singles_b=singles_b,
        p_estimate_note=note,
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
    and for overlay the closed-form visibility budget and the exact
    model's visibility.
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
        predicted = visibility_prediction(budget_from_config(cfg)), exact_visibility(cfg)
        points = run_dip_scan(
            cfg, delays, gates_per_point, _child(base, j), sampler=sampler
        )
        try:
            fit = fit_dip(points, cfg.splitter)
            rows.append(SweepRow(float(p), tuple(points), fit, *predicted))
        except ValueError as exc:
            rows.append(SweepRow(float(p), tuple(points), None, *predicted, str(exc)))
    return rows
