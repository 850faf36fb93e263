"""Unit conversions, parameter containers, and config validation."""

import math
from dataclasses import replace

import pytest

from hombench import (
    BeamSplitter,
    ConfigError,
    DetectorParams,
    TimingConfig,
    config_errors,
    db_to_linear,
    fwhm_to_sigma,
    validate,
)
from hombench.model import linear_to_db


def test_db_to_linear_known_values():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)
    assert db_to_linear(-3.3) == pytest.approx(0.46773514128719823, rel=1e-15)
    assert db_to_linear(-3.6) == pytest.approx(0.436515832240166, rel=1e-15)


def test_db_round_trip():
    for db in (-30.0, -3.6, -3.3, -0.1, 0.0, 3.0):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_linear_to_db_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        linear_to_db(bad)


def test_fwhm_to_sigma_reference_width():
    # 4 ps intensity FWHM corresponds to a 1.6986 ps field 1/e half-width.
    assert fwhm_to_sigma(4.0) == pytest.approx(1.6986436005760381, rel=1e-12)
    assert fwhm_to_sigma(4.0) * (2.0 * math.sqrt(2.0 * math.log(2.0))) == pytest.approx(4.0)


@pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
def test_fwhm_to_sigma_rejects_invalid(bad):
    with pytest.raises(ValueError):
        fwhm_to_sigma(bad)


def test_beam_splitter_from_db_and_effective_split():
    bs = BeamSplitter.from_db(-3.3, -3.6)
    assert bs.transmittance == pytest.approx(0.46773514128719823, rel=1e-15)
    assert bs.reflectance == pytest.approx(0.436515832240166, rel=1e-15)
    assert bs.survival == pytest.approx(bs.transmittance + bs.reflectance)
    assert bs.survival < 1.0  # excess loss present
    assert bs.effective_t + bs.effective_r == pytest.approx(1.0, abs=1e-15)


def test_gate_divider_is_whole():
    assert TimingConfig(100e6, 5e6).gate_divider == 20
    assert TimingConfig(1e6, 1e6).gate_divider == 1


def test_validate_returns_config_unchanged(default_cfg):
    assert validate(default_cfg) is default_cfg
    assert config_errors(default_cfg) == []


def test_dark_probability_near_one_is_accepted(default_cfg):
    cfg = replace(
        default_cfg, detector_a=DetectorParams(1.0 - 1e-12)
    )
    assert config_errors(cfg) == []


def test_dark_probability_of_one_is_rejected(default_cfg):
    cfg = replace(default_cfg, detector_a=DetectorParams(1.0))
    errors = config_errors(cfg)
    assert len(errors) == 1
    assert "detector_a.dark_prob_per_gate" in errors[0]


def test_config_errors_collects_every_violation(default_cfg):
    bad = replace(
        default_cfg,
        source=replace(default_cfg.source, mean_pairs_per_pulse=-0.5, extinction_ratio=0.5),
        wavepacket=replace(default_cfg.wavepacket, sigma_ps=-1.0),
        channel_s=replace(default_cfg.channel_s, transmittance=2.0),
        detector_b=DetectorParams(1.5),
        timing=TimingConfig(100e6, 7e6),
        delay_ps=math.nan,
    )
    errors = config_errors(bad)
    for path in (
        "source.mean_pairs_per_pulse",
        "source.extinction_ratio",
        "wavepacket.sigma_ps",
        "channel_s.transmittance",
        "detector_b.dark_prob_per_gate",
        "timing:",
        "delay_ps",
    ):
        assert any(path in e for e in errors), f"missing error for {path}"
    assert len(errors) == 7

    with pytest.raises(ConfigError) as exc_info:
        validate(bad)
    assert exc_info.value.errors == errors
    assert isinstance(exc_info.value, ValueError)


def test_splitter_overunity_survival_is_flagged(default_cfg):
    bad = replace(default_cfg, splitter=BeamSplitter(0.6, 0.6))
    assert any("T + R" in e for e in config_errors(bad))


@pytest.mark.parametrize("t, r, field", [
    (0.0, 0.0, "splitter: T + R"),  # would divide by zero in the effective splitter
    (math.nan, 0.5, "splitter.transmittance"),
    (0.5, math.nan, "splitter.reflectance"),
])
def test_degenerate_splitter_is_rejected(default_cfg, t, r, field):
    bad = replace(default_cfg, splitter=BeamSplitter(t, r))
    assert [e for e in config_errors(bad) if e.startswith(field)]
    with pytest.raises(ConfigError, match="splitter"):
        validate(bad)
