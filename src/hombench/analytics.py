"""Closed-form predictions for the two-photon interference benchmark.

Everything here is a pure function without random draws: the Gaussian
indistinguishability factor, the coincidence-dip lineshape (vectorised
over delays, as the fitter evaluates it), the visibility noise budget,
and an analytic coincidence-to-accidental ratio (CAR) model with its
inverse, plus the reductions of an `ExperimentConfig` to their inputs.
The Monte Carlo engine in `simulate` must agree with these formulas; the
agreement tests are the core physics check of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BeamSplitter, ExperimentConfig

# Upper pair rate of `invert_car`'s search, and the relative bracket width
# at which `calibrate_eta`'s bisection stops.
_CAR_P_MAX = 0.5
_ETA_RTOL = 1e-12


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
    two wavepackets stop overlapping. The fitter evaluates this on every
    trial step.
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


def car_prediction(
    p: float,
    eta_s: float,
    eta_i: float,
    dark_a: float,
    dark_b: float,
) -> float:
    """Analytic coincidence-to-accidental ratio for direct pair monitoring.

    Singles probabilities per counting window:

        q_x = 1 - exp(-p eta_x) + dark_x

    Accidental coincidences are uncorrelated singles, q_s * q_i; true
    coincidences keep only the leading single-pair term p eta_s eta_i.
    CAR = (true + accidental) / accidental, which is >= 1 and tends to 1
    when the source is off.

    The dark probabilities must describe the same counting window the
    coincidences are resolved in (for gated counting with a fast time
    tagger that is one pulse slot, not one gate).
    """
    if p < 0.0 or not (0.0 <= eta_s <= 1.0 and 0.0 <= eta_i <= 1.0):
        raise ValueError("p must be >= 0 and efficiencies in [0, 1]")
    if not (0.0 <= dark_a < 1.0 and 0.0 <= dark_b < 1.0):
        raise ValueError("dark probabilities must be in [0, 1)")
    q_s = -math.expm1(-p * eta_s) + dark_a
    q_i = -math.expm1(-p * eta_i) + dark_b
    accidental = q_s * q_i
    if accidental == 0.0:
        raise NoAccidentalsError(
            "no accidental channel: both singles probabilities are zero"
        )
    true = p * eta_s * eta_i
    return (true + accidental) / accidental


def car_peak_pair_rate(eta_s: float, eta_i: float, dark_a: float, dark_b: float) -> float:
    """Pair rate at which the analytic CAR is maximal.

    In the linear regime (p eta << 1) the CAR rises like p / (dark_a dark_b)
    and falls like 1/p once photon singles dominate darks; the crossover is
    at p* = sqrt(dark_a dark_b / (eta_s eta_i)).
    """
    if eta_s <= 0.0 or eta_i <= 0.0:
        raise ValueError("efficiencies must be > 0 to locate the CAR peak")
    return math.sqrt(dark_a * dark_b / (eta_s * eta_i))


def invert_car(
    car: float,
    eta_s: float,
    eta_i: float,
    dark_a: float,
    dark_b: float,
) -> float:
    """Solve car_prediction for the pair rate on the falling branch.

    The analytic CAR is not monotone in p: it peaks near
    p* = sqrt(dark_a dark_b / (eta_s eta_i)) and decreases beyond it. This
    inversion returns the solution with p >= p*, the branch a bright pair
    source operates on. Raises CalibrationError when the requested CAR
    exceeds the achievable maximum or falls below its value at the search
    bound p = 0.5.

    With a dark-free detector p* = 0 and the CAR falls from its p -> 0+
    limit: 1 + eta / dark of the other detector, or +inf when both are
    dark-free.
    """
    if car < 1.0:
        raise ValueError(f"CAR must be >= 1 (got {car!r})")
    p_lo = car_peak_pair_rate(eta_s, eta_i, dark_a, dark_b)
    if p_lo > 0.0:
        car_lo = car_prediction(p_lo, eta_s, eta_i, dark_a, dark_b)
    elif dark_a or dark_b:
        car_lo = 1.0 + (eta_i / dark_b if dark_b else eta_s / dark_a)
    else:
        car_lo = math.inf
    if car > car_lo:
        raise CalibrationError(
            f"CAR {car:g} exceeds the model maximum {car_lo:g} at p = {p_lo:g}"
        )
    car_hi = car_prediction(_CAR_P_MAX, eta_s, eta_i, dark_a, dark_b)
    if car < car_hi:
        raise CalibrationError(
            f"CAR {car:g} is below the value {car_hi:g} at the p = {_CAR_P_MAX:g} "
            f"search bound"
        )
    p_hi = _CAR_P_MAX
    for _ in range(200):
        mid = 0.5 * (p_lo + p_hi)
        if car_prediction(mid, eta_s, eta_i, dark_a, dark_b) >= car:
            p_lo = mid
        else:
            p_hi = mid
    return 0.5 * (p_lo + p_hi)


def calibrate_eta(
    target_v: float,
    p: float,
    dark_prob: float,
    extinction_ratio: float,
) -> float:
    """Efficiency that makes the visibility budget hit `target_v`, by bisection.

    The budget is monotone increasing in the efficiency whenever the dark
    term is nonzero (more signal dilutes a fixed noise floor), so bisection
    over (0, 1] is exact. Raises CalibrationError when the target is above
    the ceiling at full efficiency, or when dark_prob is zero (the budget
    is then scale-invariant in the efficiency and has no solution).
    """
    if not (0.0 < target_v < 1.0):
        raise CalibrationError(f"target visibility must be in (0, 1) (got {target_v!r})")

    def v_at(eta: float) -> float:
        return visibility_prediction(
            VisibilityBudget(p, eta, dark_prob, extinction_ratio)
        )

    lo, hi = 0.0, 1.0
    v_hi = v_at(hi)
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if v_at(mid) < target_v:
            lo = mid
        else:
            hi = mid
        if hi - lo < _ETA_RTOL * max(hi, 1e-6):
            break
    eta = 0.5 * (lo + hi)
    if abs(v_at(eta) - target_v) > 1e-9:
        raise CalibrationError(
            f"bisection failed to reach visibility {target_v:g} (best {v_at(eta):.9g})"
        )
    return eta


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


def car_terms(config: ExperimentConfig) -> tuple[float, float, float, float, float]:
    """Per-slot CAR inputs (p, eta_s, eta_i, dark_a, dark_b) of a config.

    In `car_prediction`'s argument order. The dark probabilities are per
    pulse slot: the per-gate values divided by the gate divider.
    """
    divider = config.timing.gate_divider
    return (
        config.source.mean_pairs_per_pulse,
        config.channel_s.transmittance,
        config.channel_i.transmittance,
        config.detector_a.dark_prob_per_gate / divider,
        config.detector_b.dark_prob_per_gate / divider,
    )
