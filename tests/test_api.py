"""The public surface: what `import hombench` offers, and where the rest lives."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hombench

PUBLIC = {
    "__version__",
    "BeamSplitter", "CalibrationError", "CapacityError", "CarResult",
    "ConfigError", "DetectorParams", "DipModelParams", "ExperimentConfig",
    "FitResult", "InsufficientStatisticsError", "NoAccidentalsError",
    "OpticalChannel", "ScanPoint", "SourceParams", "SweepRow", "TimingConfig",
    "VisibilityBudget", "WavepacketShape",
    "amplitude_overlap", "budget_from_config", "calibrate_eta",
    "car_prediction", "click_pattern_probs", "coincidence_prob",
    "config_errors", "config_from_dict", "config_to_schema_dict",
    "db_to_linear", "default_config", "default_eta", "evolve_fock",
    "evolve_fock_ladder", "fit_dip", "fwhm_to_sigma",
    "gate_pattern_distribution", "indistinguishability", "invert_car",
    "load_config", "run_car", "run_dip_scan", "run_visibility_sweep",
    "simulate_gate", "splitter_dip_factor", "splitter_unitary", "validate",
    "visibility_prediction",
}

# Test oracles and internal helpers: importable only at their module path.
MODULE_ONLY = {
    "car_peak_pair_rate": "analytics",
    "car_slot_pmf": "analytics",
    "dip_curve": "analytics",
    "exact_visibility": "exact",
    "linear_to_db": "model",
    "clicks_from_occupation": "fock",
    "permanent": "fock",
    "temporal_decompose": "fock",
    "GateRecord": "simulate",
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


# Intra-package imports each module may make; None admits any. A module
# missing here fails the test, so a new one has to declare its layer.
LAYERS = {
    "_version": set(),
    "model": set(),
    "fock": set(),
    "analytics": {"model"},
    "exact": {"model", "fock", "analytics"},
    "fitting": {"model", "analytics"},
    "configio": {"model", "analytics"},
    "simulate": {"model", "fock", "analytics", "exact", "fitting"},
    "reporting": {"model", "configio", "fitting", "_version"},
    "cli": None,
    "__init__": None,
    "__main__": None,
}


def _package_imports(tree: ast.AST) -> set[str]:
    """Sibling modules a parsed module imports, relatively or by full name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:
                module = f"hombench.{module}".rstrip(".")
            names = ([module] if module != "hombench" else
                     [f"hombench.{alias.name}" for alias in node.names])
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("hombench."))
    return found


@pytest.mark.parametrize(
    "path", sorted(Path(hombench.__file__).parent.glob("*.py")), ids=lambda p: p.stem
)
def test_module_imports_only_its_layers(path):
    assert path.stem in LAYERS, f"{path.stem} has no entry in LAYERS"
    allowed = LAYERS[path.stem]
    if allowed is not None:
        assert _package_imports(ast.parse(path.read_text())) <= allowed


def _load_probe(monkeypatch):
    """perfbench/probe.py as a module; its top level imports only stdlib."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
    spec = importlib.util.spec_from_file_location("perfbench_probe", path)
    probe = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, probe)  # its dataclasses look it up
    spec.loader.exec_module(probe)
    return probe


# Names the benchmark's `reference`, `trace` and `layers` modes read,
# besides the wrapped BOUNDARIES.
PROBE_READS = {
    "hombench.configio": ("config_from_dict", "load_config"),
    "hombench.simulate": ("ScanPoint", "gate_pattern_distribution", "simulate_gate"),
    "hombench.fitting": ("fit_dip",),
    "hombench.analytics": ("car_prediction",),
    "hombench.fock": (
        "splitter_unitary", "temporal_decompose", "evolve_fock", "evolve_fock_ladder",
    ),
    "hombench.cli": ("main",),
}


def test_names_the_benchmark_reads_resolve(monkeypatch):
    wanted: dict[str, set[str]] = {}
    for table in (_load_probe(monkeypatch).BOUNDARIES, PROBE_READS):
        for module, names in table.items():
            wanted.setdefault(module, set()).update(names)
    missing = sorted(
        f"{module}.{name}"
        for module, names in wanted.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, (
        f"perfbench/probe.py reads names the package no longer has: {missing}. "
        "Keep them, or rename them in perfbench/ in a benchmark change "
        "(ROADMAP item 6), not in the same change as the program."
    )


def test_fit_attributes_the_benchmark_reads():
    # `probe.py reference` reads fit_dip(points, splitter).params.visibility
    # off a noise-free scan; `probe.py trace` reads .iterations and
    # .converged off every FitResult.
    from dataclasses import replace

    from hombench import default_config, fitting, simulate

    cfg = default_config()
    gates = 1e12
    points = [
        simulate.ScanPoint(
            d, int(gates),
            float(simulate.gate_pattern_distribution(replace(cfg, delay_ps=d))[3])
            * gates, 0, 0,
        )
        for d in (-6.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 6.0)
    ]
    fit = fitting.fit_dip(points, cfg.splitter)
    assert isinstance(fit.params.visibility, float)
    assert 0.0 < fit.params.visibility <= 1.02
    assert isinstance(fit.iterations, int) and fit.iterations >= 1
    assert fit.converged is True


def test_layers_probe_can_clear_the_pmf_cache():
    # `probe.py layers` times a cold pmf by clearing every cache it finds in
    # vars(simulate) and vars(fock).
    from hombench import exact, fock, simulate

    reachable = [*vars(simulate).values(), *vars(fock).values()]
    assert any(value is exact._pair_click_dist for value in reachable), (
        "exact._pair_click_dist is out of reach of probe.py layers; fix it in "
        "a benchmark change (ROADMAP item 6)"
    )


def test_import_and_config_load_leave_sampler_modules_unloaded(tmp_path):
    # A fresh interpreter that imports hombench and loads a config (what the
    # benchmark times as set-up) loads none of these: numpy.random waits for a
    # sampler, and nothing imports concurrent.futures. Nor hashlib: `python -m
    # hombench` imports the package before `__main__` blocks `_hashlib`, so a
    # package-level hashlib import would map libcrypto before the guard.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pairs_per_pulse": 0.05}))
    code = (
        "import sys, hombench\n"
        "from hombench.configio import load_config\n"
        f"load_config({str(path)!r})\n"
        "print(sorted({'numpy.random', 'concurrent.futures', 'hashlib', '_hashlib'}\n"
        "             & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_per_gate_scan_imports_neither_thread_pool_nor_logging():
    # The per-gate sampler runs its batches on plain threads: the pool of
    # concurrent.futures would import logging too, in every scan.
    code = (
        "import sys\n"
        "from hombench import run_dip_scan\n"
        "from hombench.configio import default_config\n"
        "run_dip_scan(default_config(), [0.0, 3.0], 2**20 + 1, 1, sampler='per-gate')\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "HOMBENCH_THREADS": "2"})
    assert out.stdout.strip() == "[]"


def test_fitted_runs_page_in_no_openblas(tmp_path):
    # A fit solves for 3 or 4 unknowns by elimination in Python: only a
    # degenerate fit's pseudo-inverse may call BLAS or LAPACK. A fitted
    # center nests one `_search` in another.
    if not Path("/proc/self/smaps").exists():
        pytest.skip("no /proc/self/smaps")
    code = (
        "import json\n"
        "from hombench import cli\n"
        "def rss():\n"
        "    total, blas = 0, False\n"
        "    for line in open('/proc/self/smaps'):\n"
        "        field = line.split()\n"
        "        if not field[0].endswith(':'):  # a mapping's header line\n"
        "            blas = 'openblas' in line\n"
        "        elif blas and field[0] == 'Rss:':\n"
        "            total += int(field[1])\n"
        "    return total\n"
        f"a, b, c = {str(tmp_path / 'a')!r}, {str(tmp_path / 'b')!r}, {str(tmp_path / 'c')!r}\n"
        "before = rss()\n"
        "codes = [cli.main(['dip-scan', '--eta', '0.2', '--gates', '2e5', '--out', a]),\n"
        "         cli.main(['visibility-sweep', '--pairs', '0.03,0.1', '--gates', '1e9',\n"
        "                   '--out', b]),\n"
        "         cli.main(['dip-scan', '--eta', '0.2', '--gates', '2e5', '--fit-center',\n"
        "                   '--out', c])]\n"
        "print(json.dumps([before, rss(), codes]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    before, after, codes = json.loads(out.stdout.splitlines()[-1])
    if before == 0:
        pytest.skip("numpy maps no OpenBLAS library here")
    assert codes == [0, 0, 0]
    assert json.loads((tmp_path / "a" / "report.json").read_text())["data"]["fit"]
    rows = json.loads((tmp_path / "b" / "report.json").read_text())["data"]["rows"]
    assert all(row["fit"] for row in rows)
    fit = json.loads((tmp_path / "c" / "report.json").read_text())["data"]["fit"]
    assert fit["center_ps"] is not None and not fit["degenerate"]
    assert after == before


def test_cli_process_maps_no_libcrypto(tmp_path):
    # numpy.random imports secrets -> hmac -> _hashlib, which maps OpenSSL's
    # libcrypto; the process entry point blocks `_hashlib`, so hashlib and
    # hmac run on CPython's built-ins.
    code = (
        "import json, os, runpy, sys\n"
        "sys.argv = ['hombench', 'dip-scan', '--sampler', 'multinomial',\n"
        f"            '--gates', '2e5', '--out', {str(tmp_path)!r}]\n"
        "try:\n"
        "    runpy.run_module('hombench', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "maps = None\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    maps = [line for line in open('/proc/self/maps') if 'libcrypto' in line]\n"
        "print(json.dumps([code, 'numpy.random' in sys.modules,\n"
        "                  sys.modules.get('_hashlib', 'absent') is None, maps]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    code, sampled, blocked, maps = json.loads(out.stdout.splitlines()[-1])
    assert code in (0, 3)
    assert sampled and blocked
    assert maps in (None, [])


def test_importing_the_entry_point_runs_nothing():
    # The console script imports `hombench.__main__` and calls its `main`.
    code = ("import hombench.__main__ as entry, hombench.cli as cli\n"
            "print(entry.main is cli.main)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=False)
    assert (out.returncode, out.stdout, out.stderr) == (0, "True\n", "")
