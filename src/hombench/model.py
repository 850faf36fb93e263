"""Domain types, unit conversions, and config validation.

All quantities carry explicit units in their field names (`_ps`, `_hz`,
`_db`) or are dimensionless probabilities/ratios. Every type is an
immutable value object and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# FWHM = 2 * sqrt(2 ln 2) * sigma for a Gaussian intensity profile.
_FWHM_OVER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


class ConfigError(ValueError):
    """Raised when an ExperimentConfig violates one or more invariants.

    Carries the complete list of violations, not just the first one.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def db_to_linear(value_db: float) -> float:
    """Convert a decibel power ratio to a linear power ratio."""
    if not math.isfinite(value_db):
        raise ValueError(f"dB value must be finite (got {value_db!r})")
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to decibels."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"linear ratio must be finite and > 0 (got {value!r})")
    return 10.0 * math.log10(value)


def fwhm_to_sigma(fwhm: float) -> float:
    """Convert an intensity FWHM to the 1/e half-width of the field.

    For a Gaussian wavepacket the two widths differ by the fixed factor
    2*sqrt(2 ln 2), so a 4 ps FWHM corresponds to sigma = 1.699 ps.
    """
    if not (fwhm > 0.0 and math.isfinite(fwhm)):
        raise ValueError(f"FWHM must be finite and > 0 (got {fwhm!r})")
    return fwhm / _FWHM_OVER_SIGMA


@dataclass(frozen=True)
class SourceParams:
    """Pulsed pair source: Poisson mean pairs per pulse and demux crosstalk."""

    mean_pairs_per_pulse: float
    extinction_ratio: float  # linear power ratio, >= 1


@dataclass(frozen=True)
class WavepacketShape:
    """Gaussian temporal mode; sigma_ps is the 1/e half-width of the field."""

    sigma_ps: float


@dataclass(frozen=True)
class OpticalChannel:
    """One arm's end-to-end per-photon detection probability.

    `transmittance` folds fiber loss, coupling, and detector quantum
    efficiency into a single number; there is no separate QE knob.
    """

    transmittance: float


@dataclass(frozen=True)
class BeamSplitter:
    """Lossy two-port coupler; excess loss 1 - T - R is allowed."""

    transmittance: float
    reflectance: float

    @classmethod
    def from_db(cls, t_db: float, r_db: float) -> "BeamSplitter":
        return cls(db_to_linear(t_db), db_to_linear(r_db))

    @property
    def survival(self) -> float:
        """Per-photon probability of not being lost in the coupler."""
        return self.transmittance + self.reflectance

    @property
    def effective_t(self) -> float:
        """Transmittance of the equivalent lossless splitter."""
        return self.transmittance / self.survival

    @property
    def effective_r(self) -> float:
        return self.reflectance / self.survival


@dataclass(frozen=True)
class DetectorParams:
    """Gated threshold detector; dark_prob_per_gate is D*t for one gate."""

    dark_prob_per_gate: float


@dataclass(frozen=True)
class TimingConfig:
    """Pulse and gate clocks; the gate divider must be a whole number."""

    pulse_rate_hz: float
    gate_rate_hz: float

    @property
    def gate_divider(self) -> int:
        return int(round(self.pulse_rate_hz / self.gate_rate_hz))


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete parameter set of one simulated run."""

    source: SourceParams
    wavepacket: WavepacketShape
    channel_s: OpticalChannel
    channel_i: OpticalChannel
    splitter: BeamSplitter
    detector_a: DetectorParams
    detector_b: DetectorParams
    timing: TimingConfig
    delay_ps: float  # relative arrival delay, applied to the signal arm


@dataclass(frozen=True)
class ScanPoint:
    """Aggregated counts at one delay setting."""

    delay_ps: float
    gates: int
    coincidences: int
    singles_a: int
    singles_b: int


def config_errors(config: ExperimentConfig) -> list[str]:
    """Collect every violated invariant, each tagged with its field path."""
    errors: list[str] = []
    src = config.source
    if not (src.mean_pairs_per_pulse >= 0.0 and math.isfinite(src.mean_pairs_per_pulse)):
        errors.append(
            f"source.mean_pairs_per_pulse: must be finite and >= 0 "
            f"(got {src.mean_pairs_per_pulse!r})"
        )
    if not (src.extinction_ratio >= 1.0 and math.isfinite(src.extinction_ratio)):
        errors.append(
            f"source.extinction_ratio: must be finite and >= 1 "
            f"(got {src.extinction_ratio!r})"
        )

    if not (config.wavepacket.sigma_ps > 0.0 and math.isfinite(config.wavepacket.sigma_ps)):
        errors.append(
            f"wavepacket.sigma_ps: must be finite and > 0 "
            f"(got {config.wavepacket.sigma_ps!r})"
        )

    for name, ch in (("channel_s", config.channel_s), ("channel_i", config.channel_i)):
        if not (0.0 <= ch.transmittance <= 1.0):
            errors.append(
                f"{name}.transmittance: must be in [0, 1] (got {ch.transmittance!r})"
            )

    bs = config.splitter
    if not bs.transmittance >= 0.0:
        errors.append(f"splitter.transmittance: must be >= 0 (got {bs.transmittance!r})")
    if not bs.reflectance >= 0.0:
        errors.append(f"splitter.reflectance: must be >= 0 (got {bs.reflectance!r})")
    if bs.transmittance >= 0.0 and bs.reflectance >= 0.0 and not 0.0 < bs.survival <= 1.0 + 1e-12:
        errors.append(
            f"splitter: T + R must be in (0, 1] (got {bs.transmittance!r} + {bs.reflectance!r})"
        )

    for name, det in (("detector_a", config.detector_a), ("detector_b", config.detector_b)):
        if not (0.0 <= det.dark_prob_per_gate < 1.0):
            errors.append(
                f"{name}.dark_prob_per_gate: must be in [0, 1) "
                f"(got {det.dark_prob_per_gate!r})"
            )

    tm = config.timing
    if not (tm.pulse_rate_hz > 0.0 and math.isfinite(tm.pulse_rate_hz)):
        errors.append(f"timing.pulse_rate_hz: must be finite and > 0 (got {tm.pulse_rate_hz!r})")
    if not (tm.gate_rate_hz > 0.0 and math.isfinite(tm.gate_rate_hz)):
        errors.append(f"timing.gate_rate_hz: must be finite and > 0 (got {tm.gate_rate_hz!r})")
    if tm.pulse_rate_hz > 0.0 and tm.gate_rate_hz > 0.0:
        ratio = tm.pulse_rate_hz / tm.gate_rate_hz
        if not (abs(ratio - round(ratio)) <= 1e-9 * max(ratio, 1.0) and round(ratio) >= 1):
            errors.append(
                f"timing: pulse_rate_hz / gate_rate_hz must be a positive integer "
                f"(got {ratio!r})"
            )

    if not math.isfinite(config.delay_ps):
        errors.append(f"delay_ps: must be finite (got {config.delay_ps!r})")
    return errors


def validate(config: ExperimentConfig) -> ExperimentConfig:
    """Return the config unchanged, or raise ConfigError with every violation."""
    errors = config_errors(config)
    if errors:
        raise ConfigError(errors)
    return config
