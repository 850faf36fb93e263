"""Load and validate the flat JSON experiment-config schema.

The on-disk schema uses dB for the extinction ratio and the splitter arms
(negative dB = loss) and accepts the wavepacket width as either `sigma_ps`
or `fwhm_ps`, exactly one of the two. Everything is converted to linear
units on load; `config_to_schema_dict` converts back, always emitting
`sigma_ps`. `load_config` is the one layered loader: reference defaults,
then a (possibly partial) file, then overrides.

`default_config` builds the calibrated reference instrument: the detection
efficiency is solved at import-call time so the analytic visibility at the
default pair rate lands on the benchmark's 0.80 operating point.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

from .analytics import calibrate_eta
from .model import (
    BeamSplitter,
    ConfigError,
    DetectorParams,
    ExperimentConfig,
    OpticalChannel,
    SourceParams,
    TimingConfig,
    WavepacketShape,
    db_to_linear,
    fwhm_to_sigma,
    linear_to_db,
    validate,
)

# Calibrated reference instrument. Rates in Hz; dark counts are per gate
# (rate x 200 ns gate window); splitter arms and extinction in dB.
DEFAULT_PAIRS_PER_PULSE = 0.03
DEFAULT_EXTINCTION_DB = 30.0
DEFAULT_FWHM_PS = 4.0
DEFAULT_SPLITTER_T_DB = -3.3
DEFAULT_SPLITTER_R_DB = -3.6
DEFAULT_PULSE_RATE_HZ = 100e6
DEFAULT_GATE_RATE_HZ = 5e6
DEFAULT_DARK_PROB_A = 544.0 / DEFAULT_GATE_RATE_HZ
DEFAULT_DARK_PROB_B = 1596.0 / DEFAULT_GATE_RATE_HZ
DEFAULT_VISIBILITY_TARGET = 0.80

_WIDTH_KEYS = ("sigma_ps", "fwhm_ps")
# In the order the CLI lists its override flags.
SCHEMA_KEYS = (
    "pairs_per_pulse",
    "extinction_ratio_db",
    "sigma_ps",
    "fwhm_ps",
    "eta_signal",
    "eta_idler",
    "splitter_t_db",
    "splitter_r_db",
    "dark_prob_a",
    "dark_prob_b",
    "pulse_rate_hz",
    "gate_rate_hz",
    "delay_ps",
)
_REQUIRED_KEYS = set(SCHEMA_KEYS) - set(_WIDTH_KEYS)


def default_eta() -> float:
    """Per-photon detection probability of the calibrated instrument.

    Solved, not hardcoded: the closed-form inverse of the visibility
    budget (`calibrate_eta`) at the 0.80 operating point, for the default
    pair rate, mean dark probability, and extinction ratio.
    """
    mean_dark = 0.5 * (DEFAULT_DARK_PROB_A + DEFAULT_DARK_PROB_B)
    return calibrate_eta(
        DEFAULT_VISIBILITY_TARGET,
        DEFAULT_PAIRS_PER_PULSE,
        mean_dark,
        db_to_linear(DEFAULT_EXTINCTION_DB),
    )


def default_schema_dict(delay_ps: float = 0.0) -> dict[str, float]:
    """The calibrated reference instrument in on-disk schema form."""
    eta = default_eta()
    return {
        "pairs_per_pulse": DEFAULT_PAIRS_PER_PULSE,
        "extinction_ratio_db": DEFAULT_EXTINCTION_DB,
        "fwhm_ps": DEFAULT_FWHM_PS,
        "eta_signal": eta,
        "eta_idler": eta,
        "splitter_t_db": DEFAULT_SPLITTER_T_DB,
        "splitter_r_db": DEFAULT_SPLITTER_R_DB,
        "dark_prob_a": DEFAULT_DARK_PROB_A,
        "dark_prob_b": DEFAULT_DARK_PROB_B,
        "pulse_rate_hz": DEFAULT_PULSE_RATE_HZ,
        "gate_rate_hz": DEFAULT_GATE_RATE_HZ,
        "delay_ps": delay_ps,
    }


def default_config(delay_ps: float = 0.0) -> ExperimentConfig:
    return config_from_dict(default_schema_dict(delay_ps))


def config_from_dict(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a schema dict.

    Unknown keys are rejected (typos must not silently fall back to a
    default), every required key must be present, and exactly one of
    sigma_ps / fwhm_ps is allowed. Collects all schema problems into one
    ConfigError before any unit conversion happens.
    """
    problems: list[str] = []
    unknown = sorted(set(raw).difference(SCHEMA_KEYS))
    if unknown:
        problems.append(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(_REQUIRED_KEYS - set(raw))
    if missing:
        problems.append(f"missing config keys: {', '.join(missing)}")
    width_present = [k for k in _WIDTH_KEYS if k in raw]
    if len(width_present) != 1:
        problems.append(
            "exactly one of sigma_ps / fwhm_ps must be given "
            f"(got {len(width_present)})"
        )
    for key in sorted(set(raw).intersection(SCHEMA_KEYS)):
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{key}: expected a number, got {value!r}")
        elif not math.isfinite(value):
            problems.append(f"{key}: must be finite, got {value!r}")
    if problems:
        raise ConfigError(problems)

    if "sigma_ps" in raw:
        sigma_ps = float(raw["sigma_ps"])
    else:
        sigma_ps = fwhm_to_sigma(float(raw["fwhm_ps"]))

    config = ExperimentConfig(
        source=SourceParams(
            mean_pairs_per_pulse=float(raw["pairs_per_pulse"]),
            extinction_ratio=db_to_linear(float(raw["extinction_ratio_db"])),
        ),
        wavepacket=WavepacketShape(sigma_ps=sigma_ps),
        channel_s=OpticalChannel(float(raw["eta_signal"])),
        channel_i=OpticalChannel(float(raw["eta_idler"])),
        splitter=BeamSplitter.from_db(
            float(raw["splitter_t_db"]), float(raw["splitter_r_db"])
        ),
        detector_a=DetectorParams(float(raw["dark_prob_a"])),
        detector_b=DetectorParams(float(raw["dark_prob_b"])),
        timing=TimingConfig(
            pulse_rate_hz=float(raw["pulse_rate_hz"]),
            gate_rate_hz=float(raw["gate_rate_hz"]),
        ),
        delay_ps=float(raw["delay_ps"]),
    )
    return validate(config)


def config_to_schema_dict(config: ExperimentConfig) -> dict[str, float]:
    """Invert config_from_dict; emits sigma_ps, never fwhm_ps."""
    return {
        "pairs_per_pulse": config.source.mean_pairs_per_pulse,
        "extinction_ratio_db": linear_to_db(config.source.extinction_ratio),
        "sigma_ps": config.wavepacket.sigma_ps,
        "eta_signal": config.channel_s.transmittance,
        "eta_idler": config.channel_i.transmittance,
        "splitter_t_db": linear_to_db(config.splitter.transmittance),
        "splitter_r_db": linear_to_db(config.splitter.reflectance),
        "dark_prob_a": config.detector_a.dark_prob_per_gate,
        "dark_prob_b": config.detector_b.dark_prob_per_gate,
        "pulse_rate_hz": config.timing.pulse_rate_hz,
        "gate_rate_hz": config.timing.gate_rate_hz,
        "delay_ps": config.delay_ps,
    }


def load_config(
    path: str | Path | None = None, overrides: Mapping[str, Any] | None = None
) -> ExperimentConfig:
    """Layer the reference instrument, a schema JSON file, then overrides.

    Later layers win key by key, so the file may be partial; a layer that
    names sigma_ps or fwhm_ps replaces both. Malformed JSON, a non-object
    top level and unknown keys in the file raise ConfigError naming it.
    """
    merged: dict[str, Any] = default_schema_dict()
    layers: list[Mapping[str, Any]] = []
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: not valid JSON: {exc}"]) from exc
        if not isinstance(raw, dict):
            raise ConfigError([f"{path}: top level must be a JSON object"])
        unknown = sorted(set(raw).difference(SCHEMA_KEYS))
        if unknown:
            raise ConfigError([f"{path}: unknown config keys: {', '.join(unknown)}"])
        layers.append(raw)
    layers.append(overrides or {})
    for layer in layers:
        if any(key in layer for key in _WIDTH_KEYS):
            for key in _WIDTH_KEYS:
                merged.pop(key, None)
        merged.update(layer)
    return config_from_dict(merged)
