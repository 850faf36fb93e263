"""The public surface: what `import hombench` offers, and where the rest lives."""

import importlib

import pytest

import hombench

PUBLIC = {
    "__version__",
    "BeamSplitter", "CalibrationError", "CapacityError", "CarResult",
    "ConfigError", "DetectorParams", "DipModelParams", "ExperimentConfig",
    "FitResult", "InsufficientStatisticsError", "LMResult",
    "NoAccidentalsError", "OpticalChannel", "ScanPoint", "SourceParams",
    "SweepRow", "TimingConfig", "VisibilityBudget", "WavepacketShape",
    "amplitude_overlap", "budget_from_config", "calibrate_eta",
    "car_prediction", "click_pattern_probs", "coincidence_prob",
    "config_errors", "config_from_dict", "config_to_schema_dict",
    "db_to_linear", "default_config", "default_eta", "dip_model",
    "evolve_fock", "evolve_fock_ladder", "fit_dip", "fwhm_to_sigma",
    "gate_pattern_distribution", "indistinguishability", "invert_car",
    "levenberg_marquardt", "load_config", "run_car", "run_dip_scan",
    "run_visibility_sweep", "simulate_gate", "splitter_dip_factor",
    "splitter_unitary", "validate", "visibility_prediction",
}

# Test oracles and internal helpers: importable only at their module path.
MODULE_ONLY = {
    "visibility_from_counts": "analytics",
    "car_peak_pair_rate": "analytics",
    "dark_prob_per_window": "model",
    "linear_to_db": "model",
    "clicks_from_occupation": "fock",
    "permanent": "fock",
    "temporal_decompose": "fock",
    "finite_difference_jacobian": "fitting",
    "sample_pair_count": "simulate",
    "GateRecord": "simulate",
    "folded_poisson": "simulate",
    "thread_cap": "simulate",
}


def test_all_is_the_public_set():
    assert len(hombench.__all__) == len(set(hombench.__all__))
    assert set(hombench.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(hombench, name) is not None, name


@pytest.mark.parametrize("name, module", sorted(MODULE_ONLY.items()))
def test_module_only_name_stays_at_its_module_path(name, module):
    assert not hasattr(hombench, name)
    assert hasattr(importlib.import_module(f"hombench.{module}"), name)
