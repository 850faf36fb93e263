"""Closed-form predictions for the two-photon interference benchmark.

Everything here is a pure function without random draws: the Gaussian
indistinguishability factor, the coincidence-dip lineshape, the
visibility noise budget and its inverse in the efficiency, and the exact
coincidence-to-accidental ratio (CAR), whose per-slot pmf the CAR
sampler draws, with its peak and inverse, plus the reductions of an
`ExperimentConfig` to their inputs. `_search` (a grid, then Brent's
method) is the package's one scalar minimiser, shared by the CAR peak
and the dip fit. `simulate`'s Monte Carlo must agree with these formulas;
the agreement tests are the core physics check of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import BeamSplitter, ExperimentConfig

# Width in log p at which `invert_car`'s bisection stops.
_RTOL = 1e-12
# `_search` evaluates a grid, then refines between the grid minimum's
# neighbours by Brent's method until its bracket is a few _REFINE_RTOL grid
# steps wide, in at most _MAX_REFINE steps.
_REFINE_RTOL = 1e-8
_MAX_REFINE = 100
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# Mean photons per slot, p min(eta), past which the CAR is 1 to double
# precision: it exceeds 1 by less than exp(-3/4 p max(eta)) / (q_A q_B).
_CAR_SATURATED = 100.0


class NoAccidentalsError(ValueError):
    """The accidental-coincidence probability is exactly zero.

    CAR is then undefined (infinite); callers that want to display the
    condition should catch this instead of receiving a float infinity.
    """


class CalibrationError(ValueError):
    """A requested operating point cannot be reached by any parameter value."""


def indistinguishability(delta_tau_ps: float, sigma_ps: float) -> float:
    """Temporal-mode overlap probability exp(-dt^2 / (2 sigma^2)).

    `sigma_ps` is the 1/e half-width of the photon field. The returned
    value is the squared wavefunction overlap I = kappa^2, i.e. the
    probability weight with which the delayed photon still occupies the
    matched temporal mode.
    """
    if not (sigma_ps > 0.0 and math.isfinite(sigma_ps)):
        raise ValueError(f"sigma_ps must be finite and > 0 (got {sigma_ps!r})")
    x = delta_tau_ps / sigma_ps
    return math.exp(-0.5 * x * x)


def amplitude_overlap(delta_tau_ps: float, sigma_ps: float) -> float:
    """Field-amplitude overlap kappa = exp(-dt^2 / (4 sigma^2)).

    kappa^2 equals `indistinguishability` for the same arguments.
    """
    if not (sigma_ps > 0.0 and math.isfinite(sigma_ps)):
        raise ValueError(f"sigma_ps must be finite and > 0 (got {sigma_ps!r})")
    x = delta_tau_ps / sigma_ps
    return math.exp(-0.25 * x * x)


@dataclass(frozen=True)
class DipModelParams:
    """Parameters of the coincidence-dip lineshape.

    baseline is the coincidence level far from the dip; visibility is the
    normalized dip depth. The nominal visibility range is [0, 1]; values up
    to 1.02 are tolerated so that fits of noisy near-unity data are not
    clipped.
    """

    baseline: float
    visibility: float
    sigma_ps: float

    def __post_init__(self) -> None:
        if not (self.baseline >= 0.0 and math.isfinite(self.baseline)):
            raise ValueError(f"baseline must be finite and >= 0 (got {self.baseline!r})")
        if not (0.0 <= self.visibility <= 1.02):
            raise ValueError(
                f"visibility must be in [0, 1.02] (got {self.visibility!r})"
            )
        if not (self.sigma_ps > 0.0 and math.isfinite(self.sigma_ps)):
            raise ValueError(f"sigma_ps must be finite and > 0 (got {self.sigma_ps!r})")


def splitter_dip_factor(splitter: BeamSplitter) -> float:
    """Imbalance prefactor 2TR / (T^2 + R^2) of the dip depth."""
    t, r = splitter.transmittance, splitter.reflectance
    denom = t * t + r * r
    if denom <= 0.0:
        raise ValueError("splitter with T = R = 0 has no dip lineshape")
    return 2.0 * t * r / denom


def dip_curve(
    delays: np.ndarray,
    baseline: float,
    visibility: float,
    sigma: float,
    factor: float,
    center: float = 0.0,
) -> np.ndarray:
    """Expected coincidence level at each relative delay.

    N(dt) = baseline * (1 - factor * V * exp(-(dt - center)^2 / (2 sigma^2)))

    `factor` is `splitter_dip_factor` of the splitter, 2TR / (T^2 + R^2).
    The minimum sits at the center; the curve rises to the baseline as the
    two wavepackets stop overlapping. `fitting.fit_dip` fits this curve,
    written as (B - C) - C expm1(...) with C = B f V; tests compare with it.
    """
    d = (delays - center) / sigma
    return baseline * (1.0 - factor * visibility * np.exp(-0.5 * d * d))


@dataclass(frozen=True)
class VisibilityBudget:
    """Noise terms that bound the observable dip visibility.

    efficiency is the single end-to-end detection probability used by the
    symmetric-arm reduction; dark_prob is the per-window dark probability
    D*t of one detector; extinction_ratio is the demultiplexer crosstalk
    power ratio (linear).
    """

    pairs_per_pulse: float
    efficiency: float
    dark_prob: float
    extinction_ratio: float


def visibility_prediction(budget: VisibilityBudget) -> float:
    """Visibility after multi-pair, dark-count, and crosstalk penalties.

    V = 1 - (2 p eta + 4 D t + eta / xi) / (eta + 3 p eta + 4 D t + eta / xi)

    The three numerator terms are the spurious-coincidence channels: a
    second pair in the same pulse, two dark counts or a dark count paired
    with a photon, and a photon leaking through the demultiplexer into the
    wrong arm.

    The budget has no term that scales like two dark counts in one gate,
    d_a d_b. At the reference instrument that term is 0.149 of the
    one-pair coincidence rate, and it accounts for most of the gap between
    this budget (0.800) and the exact gate model (0.700).
    """
    p = budget.pairs_per_pulse
    eta = budget.efficiency
    dt = budget.dark_prob
    xi = budget.extinction_ratio
    if p < 0.0 or eta < 0.0 or dt < 0.0 or xi < 1.0:
        raise ValueError("budget terms out of range (p, eta, dark >= 0; xi >= 1)")
    leak = eta / xi
    denom = eta + 3.0 * p * eta + 4.0 * dt + leak
    if denom <= 0.0:
        raise ValueError("visibility budget is 0/0 for an all-zero configuration")
    return 1.0 - (2.0 * p * eta + 4.0 * dt + leak) / denom


# Pattern vector order everywhere in the package: (no click, B only,
# A only, both). Index arithmetic relies on it.
_P00, _P01, _P10, _P11 = 0, 1, 2, 3


def _poisson_pair_pmf(
    p: float, g_a: float, g_b: float, w: float, dark_a: float, dark_b: float
) -> tuple[float, float, float, float]:
    """Click-pattern pmf of Poisson-many independent pairs plus darks.

    One pair clicks A with probability g_a, B with g_b and both with w; the
    result is the four patterns in `_P00` order, as floats. A pulse of mean
    p pairs leaves A silent with exp(-p g_a), the generating function
    sum_n Pois(n; p) x^n = exp(-p (1 - x)) at x = 1 - g_a, and darks veto
    independently. The sum P11 = q_A q_B - P00 expm1(-p w) keeps the
    digits that 1 - P00 - P01 - P10 loses at low rates. It runs on `math`
    scalars, not numpy: `invert_car` calls it about 80 times, and
    `exact._gate_pmfs` maps it over the rows of a scan.
    """
    log_silent_a = math.log1p(-dark_a) - p * g_a
    log_silent_b = math.log1p(-dark_b) - p * g_b
    p00 = math.exp(log_silent_a + log_silent_b + p * w)
    q_a, q_b = -math.expm1(log_silent_a), -math.expm1(log_silent_b)
    p11 = q_a * q_b - p00 * math.expm1(-p * w)
    # P01 and P10 are differences, which can round below a true 0.
    return p00, max(q_b - p11, 0.0), max(q_a - p11, 0.0), p11


def car_slot_pmf(
    p: float, eta_s: float, eta_i: float, dark_a: float, dark_b: float, leak: float
) -> tuple[float, float, float, float]:
    """Per-slot click-pattern pmf of a CAR run: four floats, no click, B only,
    A only and both.

    A CAR run taps the channels straight into the detectors, A on arm s and
    B on arm i, after crosstalk swaps each photon's arm with probability
    `leak`. One pair clicks A with g_A = 1 - (1 - (1 - leak) eta_s)
    (1 - leak eta_s), B with g_B (the same with eta_i), and both with
    w = ((1 - leak)^2 + leak^2) eta_s eta_i; `_poisson_pair_pmf` mixes
    them, as it does the dip's per-pair patterns in `exact`.
    """
    g_a = eta_s * (1.0 - leak * (1.0 - leak) * eta_s)
    g_b = eta_i * (1.0 - leak * (1.0 - leak) * eta_i)
    w = ((1.0 - leak) ** 2 + leak * leak) * eta_s * eta_i
    return _poisson_pair_pmf(p, g_a, g_b, w, dark_a, dark_b)


def car_prediction(
    p: float, eta_s: float, eta_i: float, dark_a: float, dark_b: float, leak: float = 0.0
) -> float:
    """Exact per-slot coincidence-to-accidental ratio P11 / (q_A q_B).

    From `car_slot_pmf`, with singles q_A = P10 + P11 and q_B = P01 + P11:
    1 with the source off, largest at `car_peak_pair_rate`, and falling
    towards 1 beyond it. `leak` is the crosstalk probability 1 / extinction.

    The dark probabilities must describe the same counting window the
    coincidences are resolved in (for gated counting with a fast time
    tagger that is one pulse slot, not one gate).
    """
    if p < 0.0 or not (0.0 <= eta_s <= 1.0 and 0.0 <= eta_i <= 1.0):
        raise ValueError("p must be >= 0 and efficiencies in [0, 1]")
    if not (0.0 <= dark_a < 1.0 and 0.0 <= dark_b < 1.0 and 0.0 <= leak <= 1.0):
        raise ValueError("dark probabilities must be in [0, 1) and leak in [0, 1]")
    _, p01, p10, p11 = car_slot_pmf(p, eta_s, eta_i, dark_a, dark_b, leak)
    accidental = (p10 + p11) * (p01 + p11)
    if accidental == 0.0:
        raise NoAccidentalsError(
            "no accidental channel: both singles probabilities are zero"
        )
    return p11 / accidental


def _search(f: Callable[[float], tuple], grid: list[float]) -> tuple[float, tuple, int, bool]:
    """Minimize f(x)[0] over [grid[0], grid[-1]]: the best grid point, then
    Brent's method (golden-section and parabolic steps) between its
    neighbours. Returns the best x, f(x), the refinement steps taken and
    whether the bracket shrank to tolerance. A minimum at an end of the
    grid reports that end; a grid minimum level with both neighbours is
    not refined. See R. P. Brent, Algorithms for Minimization without
    Derivatives (1973), ch. 5."""
    trials = [f(x) for x in grid]
    j = min(range(len(grid)), key=lambda i: trials[i][0])
    i, k = max(j - 1, 0), min(j + 1, len(grid) - 1)
    if trials[i][0] == trials[j][0] == trials[k][0]:
        return grid[j], trials[j], 0, True  # flat: nothing to refine
    a, b = grid[i], grid[k]
    tol = _REFINE_RTOL * (grid[1] - grid[0])
    x = w = v = grid[j]
    best = trials[j]
    fx = fw = fv = best[0]
    d = e = 0.0
    for steps in range(_MAX_REFINE):
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, best, steps, True
        # A parabola through x, w and v, if its vertex falls well inside
        # the bracket and moves less than half the step before last.
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = (-p, q) if q > 0.0 else (p, -q)
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = b - x if x < m else a - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu[0] <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx, best = w, fw, x, fx, u, fu[0], fu
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu[0] <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu[0]
            elif fu[0] <= fv or v == x or v == w:
                v, fv = u, fu[0]
    return x, best, _MAX_REFINE, False


def car_peak_pair_rate(
    eta_s: float, eta_i: float, dark_a: float, dark_b: float, leak: float
) -> float:
    """Pair rate of the exact CAR's maximum, by `_search` on log p.

    It searches p from 1e-12 / max(eta) to `_CAR_SATURATED` / min(eta), on a
    19-point grid. At low rates the peak is near sqrt(dark_a dark_b /
    (eta_s eta_i)); with a dark-free detector the CAR falls from p -> 0+,
    and the search returns its low end.
    """
    if eta_s <= 0.0 or eta_i <= 0.0:
        raise CalibrationError("efficiencies must be > 0 to locate the CAR peak")
    lo = math.log(1e-12 / max(eta_s, eta_i))
    hi = math.log(_CAR_SATURATED / min(eta_s, eta_i))
    log_p, _, _, _ = _search(
        lambda t: (-car_prediction(math.exp(t), eta_s, eta_i, dark_a, dark_b, leak),),
        [lo + (hi - lo) * j / 18.0 for j in range(19)],
    )
    return math.exp(log_p)


def invert_car(
    car: float, singles: float,
    eta_s: float, eta_i: float, dark_a: float, dark_b: float, leak: float,
) -> float:
    """Pair rate whose exact CAR is `car`, on the branch its singles pick.

    A CAR between 1 and its maximum at `car_peak_pair_rate` is met twice:
    below the peak, where darks make the accidentals, and past it, where
    further pairs do. The singles product q_A q_B rises with p on both, so
    an observed `singles` below its value at the peak picks the rising
    branch. Bisects log p from the peak to that branch's end, 1e-12 /
    max(eta) or `_CAR_SATURATED` / min(eta). Raises CalibrationError when
    `car` is at most 1 or above the maximum.
    """
    if not car > 1.0:
        raise CalibrationError(f"CAR {car:g} is not above 1: no pair rate gives it")
    terms = (eta_s, eta_i, dark_a, dark_b, leak)
    p_peak = car_peak_pair_rate(*terms)
    _, p01, p10, p11 = car_slot_pmf(p_peak, *terms)
    peak_singles = (p10 + p11) * (p01 + p11)
    car_max = p11 / peak_singles
    if car > car_max:
        raise CalibrationError(
            f"CAR {car:g} exceeds the model maximum {car_max:g} at p = {p_peak:g}"
        )
    rising = singles < peak_singles
    near = math.log(p_peak)
    far = math.log(1e-12 / max(eta_s, eta_i) if rising else _CAR_SATURATED / min(eta_s, eta_i))
    while abs(far - near) > _RTOL:
        mid = 0.5 * (near + far)
        if car_prediction(math.exp(mid), *terms) >= car:
            near = mid
        else:
            far = mid
    return math.exp(0.5 * (near + far))


def calibrate_eta(
    target_v: float,
    p: float,
    dark_prob: float,
    extinction_ratio: float,
) -> float:
    """Efficiency that makes the visibility budget hit `target_v`, in closed form.

    With a = 1 + 3p + 1/xi and b = 2p + 1/xi the budget is V = 1 - (b eta +
    4D) / (a eta + 4D), rising in eta when D > 0, so eta = 4DV / ((1 - V) a - b).
    Raises CalibrationError when the target is above the ceiling at full
    efficiency, or when dark_prob is zero (the budget is then scale-invariant
    in the efficiency and has no solution).
    """
    if not (0.0 < target_v < 1.0):
        raise CalibrationError(f"target visibility must be in (0, 1) (got {target_v!r})")
    v_hi = visibility_prediction(VisibilityBudget(p, 1.0, dark_prob, extinction_ratio))
    if target_v > v_hi:
        raise CalibrationError(
            f"target visibility {target_v:g} is above the achievable maximum "
            f"{v_hi:.6g} at full efficiency"
        )
    if dark_prob == 0.0:
        # Without a dark floor the budget does not depend on eta at all
        # (every term scales with eta), so there is nothing to calibrate.
        raise CalibrationError(
            "visibility budget is independent of efficiency when dark_prob = 0"
        )
    a = 1.0 + 3.0 * p + 1.0 / extinction_ratio
    b = 2.0 * p + 1.0 / extinction_ratio
    return 4.0 * dark_prob * target_v / ((1.0 - target_v) * a - b)


def budget_from_config(config: ExperimentConfig) -> VisibilityBudget:
    """Reduce a two-arm, two-detector config to the symmetric budget.

    The budget formula carries a single efficiency and a single dark
    probability, so the two channels and the two detectors are averaged.
    Exact when the config is symmetric; a stated approximation otherwise.
    """
    eta = 0.5 * (config.channel_s.transmittance + config.channel_i.transmittance)
    dark = 0.5 * (
        config.detector_a.dark_prob_per_gate + config.detector_b.dark_prob_per_gate
    )
    return VisibilityBudget(
        pairs_per_pulse=config.source.mean_pairs_per_pulse,
        efficiency=eta,
        dark_prob=dark,
        extinction_ratio=config.source.extinction_ratio,
    )


def car_terms(config: ExperimentConfig) -> tuple[float, ...]:
    """Per-slot CAR inputs (p, eta_s, eta_i, dark_a, dark_b, leak) of a config.

    In `car_prediction`'s argument order. The dark probabilities are per
    pulse slot: the per-gate values divided by the gate divider; the leak
    is 1 / extinction ratio.
    """
    divider = config.timing.gate_divider
    return (
        config.source.mean_pairs_per_pulse,
        config.channel_s.transmittance,
        config.channel_i.transmittance,
        config.detector_a.dark_prob_per_gate / divider,
        config.detector_b.dark_prob_per_gate / divider,
        1.0 / config.source.extinction_ratio,
    )
