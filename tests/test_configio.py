"""The layered config loader, called in-process."""

import json
from dataclasses import replace

import pytest

from hombench import ConfigError, default_config, fwhm_to_sigma, load_config


def write(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_no_layers_is_the_reference_instrument():
    assert load_config() == default_config()


def test_partial_file_fills_from_the_reference(tmp_path):
    cfg = load_config(write(tmp_path / "partial.json", {"pairs_per_pulse": 0.05}))
    reference = default_config()
    assert cfg == replace(
        reference, source=replace(reference.source, mean_pairs_per_pulse=0.05)
    )


def test_overrides_beat_the_file(tmp_path):
    path = write(tmp_path / "cfg.json", {"delay_ps": 1.0, "eta_signal": 0.1})
    cfg = load_config(path, {"delay_ps": 2.5})
    assert cfg.delay_ps == 2.5
    assert cfg.channel_s.transmittance == 0.1


def test_width_key_in_a_later_layer_replaces_the_other(tmp_path):
    path = write(tmp_path / "cfg.json", {"sigma_ps": 1.0})
    assert load_config(path).wavepacket.sigma_ps == 1.0
    cfg = load_config(path, {"fwhm_ps": 3.0})
    assert cfg.wavepacket.sigma_ps == pytest.approx(fwhm_to_sigma(3.0), rel=1e-15)


def test_both_widths_in_one_layer_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="exactly one of sigma_ps / fwhm_ps"):
        load_config(None, {"sigma_ps": 1.0, "fwhm_ps": 3.0})


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"bogus": 1}', "unknown config keys: bogus"),
        ("{not json", "not valid JSON"),
        ("[1, 2]", "top level must be a JSON object"),
    ],
)
def test_file_errors_name_the_file(tmp_path, text, reason):
    path = tmp_path / "named.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    (problem,) = exc_info.value.errors
    assert problem.startswith(f"{path}: ")
    assert reason in problem
