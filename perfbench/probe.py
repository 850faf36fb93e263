"""Child-process side of the benchmark.

run.py starts every mode below in a fresh interpreter whose PYTHONPATH
holds only the checkout's src/, so the program's process-wide caches
start cold, as they do for every CLI user.

    python3 perfbench/probe.py reference SPEC.json OUT.json
    python3 perfbench/probe.py trace OUT.json [--tracemalloc] -- <CLI arguments>
    python3 perfbench/probe.py layers SEED CONFIG.json OUT.json

reference: expected values for the output checks, plus the environment.
trace:     runs hombench.cli.main(argv) with a span recorded around every
           call across a layer boundary, and writes per-layer metrics.
           --tracemalloc also records run_car's peak traced memory; it
           slows run_car by half, so its span times are not used.
layers:    times the layer operations no workload isolates (the Fock
           engines, the scalar gate model, cold and warm gate pmf).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import platform
import statistics
import sys
import threading
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter


def _write(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- reference

def reference(spec_path: str, out_path: str) -> None:
    """Noise-free expectations the benchmark checks each CLI run against."""
    import numpy as np

    import hombench
    from hombench import analytics, configio, fitting, simulate

    spec = json.loads(Path(spec_path).read_text())
    config = configio.config_from_dict(spec["config"])
    options = spec["options"]
    out: dict = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "hombench": hombench.__version__,
            "hombench_path": str(Path(hombench.__file__).resolve().parent),
        }
    }

    def noise_free_visibility(cfg) -> float:
        delays = np.linspace(
            float(options["--delay-min"]), float(options["--delay-max"]),
            int(options["--delay-steps"]),
        )
        gates = 1e12
        points = [
            simulate.ScanPoint(
                float(d), int(gates),
                float(simulate.gate_pattern_distribution(
                    replace(cfg, delay_ps=float(d)))[3]) * gates, 0, 0,
            )
            for d in delays
        ]
        return fitting.fit_dip(points, cfg.splitter).params.visibility

    if spec["subcommand"] == "dip-scan":
        out["visibility"] = noise_free_visibility(config)
    elif spec["subcommand"] == "visibility-sweep":
        out["visibility_by_pairs"] = {
            repr(float(p)): noise_free_visibility(
                replace(config, source=replace(config.source,
                                               mean_pairs_per_pulse=float(p)))
            )
            for p in options["--pairs"].split(",")
        }
    elif spec["subcommand"] == "car":
        divider = config.timing.gate_divider
        out["car"] = analytics.car_prediction(
            config.source.mean_pairs_per_pulse,
            config.channel_s.transmittance,
            config.channel_i.transmittance,
            config.detector_a.dark_prob_per_gate / divider,
            config.detector_b.dark_prob_per_gate / divider,
        )
        out["pairs_per_pulse"] = config.source.mean_pairs_per_pulse
    _write(out_path, out)


# -------------------------------------------------------------------- trace

# Layer boundaries, listed at the names their callers look up: a function
# imported by name is wrapped in the importing module, a function called
# as `module.name` is wrapped on its own module.
BOUNDARIES = {
    "hombench.cli": (
        "run_dip_scan", "run_car", "run_visibility_sweep",
        "gate_pattern_distribution", "fit_dip", "calibrate_eta",
        "budget_from_config", "visibility_prediction", "car_prediction",
        "splitter_dip_factor", "amplitude_overlap", "indistinguishability",
    ),
    "hombench.configio": (
        "default_schema_dict", "config_from_dict", "config_to_schema_dict",
        "load_config", "calibrate_eta",
    ),
    "hombench.simulate": (
        "run_dip_scan", "gate_pattern_distribution", "fit_dip", "invert_car",
        "car_peak_pair_rate", "visibility_prediction", "budget_from_config",
    ),
    "hombench.reporting": (
        "build_report", "write_report", "points_csv", "sweep_csv",
        "car_offsets_csv", "config_to_schema_dict",
    ),
    "hombench.fock": ("click_pattern_probs",),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)


class Tracer:
    """In-memory spans: name, start, end and the index of the parent span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def span(self, name: str, fn, args=(), kwargs=None, *,
             keep_args=False, keep_result=False, key=None):
        kwargs = kwargs or {}
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        stack = self._local.stack
        record = Span(name, perf_counter(), stack[-1] if stack else None)
        if keep_args:
            record.info["args"] = _bound_args(fn, args, kwargs)
        if key is not None:
            record.info["key"] = key(args, kwargs)
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = perf_counter()
            stack.pop()
        if keep_result:
            record.info["result"] = result
        return result

    def wrap(self, module, attr: str, around=None, **keep) -> None:
        """Replace module.attr by a span-recording wrapper.

        `around`, when given, maps the original function to the callable
        the span times; the span keeps the original's name.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
        target = original if around is None else functools.wraps(original)(
            around(original))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.span(name, target, args, kwargs, **keep)

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


def _bound_args(fn, args, kwargs) -> dict:
    try:
        return dict(inspect.signature(fn).bind(*args, **kwargs).arguments)
    except (TypeError, ValueError):
        return {}


def _click_key(args, kwargs):
    """Hashable identity of a click_pattern_probs input."""
    state, unitary = args[0], args[1]
    state = tuple(sorted(state.items())) if isinstance(state, dict) else state
    return (state, unitary.tobytes(), args[2:], tuple(sorted(kwargs.items())))


def _with_tracemalloc(fn, peaks: list[int]):
    def call(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    return call


def trace(out_path: str, argv: list[str], memory: bool) -> int:
    import hombench.cli

    tracer = Tracer()
    car_peaks: list[int] = []
    special = {
        "click_pattern_probs": {"key": _click_key},
        "run_dip_scan": {"keep_args": True},
        "fit_dip": {"keep_result": True},
    }
    if memory:
        special["run_car"] = {"around": lambda fn: _with_tracemalloc(fn, car_peaks)}
    for name, attrs in BOUNDARIES.items():
        module = importlib.import_module(name)
        for attr in attrs:
            tracer.wrap(module, attr, **special.get(attr, {}))

    code = tracer.span("cli.main", hombench.cli.main, (argv,))
    tracer.restore()
    if tracer.missing:
        print(f"trace: boundaries not found: {', '.join(tracer.missing)}",
              file=sys.stderr)
    metrics = span_metrics(tracer)
    if memory:
        metrics["simulate.car.tracemalloc_peak_mb"] = max(car_peaks, default=0) / 2**20
    _write(out_path, {"exit": code, "metrics": metrics})
    return code


def span_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    self_s = tracer.self_times()

    def total(prefix: str, exact: bool = True) -> float:
        return sum(
            (t for s, t in zip(spans, self_s)
             if (s.name == prefix if exact else s.name.startswith(prefix))),
            0.0,
        )

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    clicks = named("fock.click_pattern_probs")
    fits = named("fitting.fit_dip")
    inversions = named("analytics.invert_car")
    gpd = named("simulate.gate_pattern_distribution")

    pergate_gates = 0
    pergate_time = 0.0
    active = 0.0
    for s in named("simulate.run_dip_scan"):
        a = s.info.get("args", {})
        if a.get("sampler") != "per-gate":
            continue
        gates = len(a["delays"]) * int(a["gates_per_point"])
        pergate_gates += gates
        pergate_time += s.end - s.start
        active += gates * -math.expm1(-a["config"].source.mean_pairs_per_pulse)

    fit_results = [s.info.get("result") for s in fits]
    return {
        "cli.self_s": total("cli.main"),
        "configio.self_s": total("configio.", exact=False),
        "analytics.calibrate_eta.self_s": total("analytics.calibrate_eta"),
        "analytics.invert_car.calls": float(len(inversions)),
        "analytics.invert_car.failures": float(
            sum(s.error is not None for s in inversions)),
        "fock.click_pattern_probs.calls": float(len(clicks)),
        "fock.click_pattern_probs.self_s": total("fock.click_pattern_probs"),
        "fock.distinct_ratio": (
            len({s.info["key"] for s in clicks}) / len(clicks) if clicks else 0.0
        ),
        "simulate.gate_pattern_distribution.calls": float(len(gpd)),
        "simulate.gate_pattern_distribution.self_s": total(
            "simulate.gate_pattern_distribution"),
        "simulate.run_dip_scan.self_s": total("simulate.run_dip_scan"),
        "simulate.run_car.self_s": total("simulate.run_car"),
        "simulate.pergate.gates_per_s": (
            pergate_gates / pergate_time if pergate_time else 0.0),
        "simulate.pergate.active_share": (
            active / pergate_gates if pergate_gates else 0.0),
        "fitting.fit_dip.calls": float(len(fits)),
        "fitting.fit_dip.self_s": total("fitting.fit_dip"),
        "fitting.lm_iterations": float(
            sum(r.iterations for r in fit_results if r is not None)),
        "fitting.failures": float(
            sum(r is None or not r.converged for r in fit_results)),
        "reporting.write.self_s": total("reporting.write_report"),
    }


# ------------------------------------------------------------------- layers

def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def layers(seed: int, config_path: str, out_path: str) -> None:
    """The ROADMAP Baseline rows that no CLI workload isolates."""
    import numpy as np

    from hombench import configio, fock, simulate

    u = fock.splitter_unitary(0.5, 0.5)
    two = fock.temporal_decompose(0.6, 2, 2)
    three = fock.temporal_decompose(0.6, 3, 3, max_total=6)
    config = replace(configio.load_config(config_path), delay_ps=1.0)

    def clear_caches() -> None:
        for mod in (simulate, fock):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    def cold_pmf() -> None:
        clear_caches()
        simulate.gate_pattern_distribution(config)

    rng = np.random.default_rng(seed)
    n_gates = 20000
    t0 = perf_counter()
    for i in range(n_gates):
        simulate.simulate_gate(config, rng, i)
    us_per_gate = (perf_counter() - t0) / n_gates * 1e6

    cold = _median_time(cold_pmf, 7)
    simulate.gate_pattern_distribution(config)
    warm = _median_time(lambda: simulate.gate_pattern_distribution(config), 51)
    _write(out_path, {"metrics": {
        "fock.evolve_fock.2x2_s": _median_time(lambda: fock.evolve_fock(two, u), 5),
        "fock.evolve_fock.3x3_s": _median_time(
            lambda: fock.evolve_fock(three, u, max_total=6), 3),
        "fock.evolve_fock_ladder.3x3_s": _median_time(
            lambda: fock.evolve_fock_ladder(three, u, max_total=6), 9),
        "simulate.simulate_gate.us_per_gate": us_per_gate,
        "simulate.gate_pattern_distribution.cold_s": cold,
        "simulate.gate_pattern_distribution.warm_s": warm,
    }})


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "reference":
        reference(argv[1], argv[2])
        return 0
    if mode == "trace":
        memory = argv[2] == "--tracemalloc"
        rest = argv[3:] if memory else argv[2:]
        if rest[:1] != ["--"]:
            raise SystemExit("usage: probe.py trace OUT.json [--tracemalloc] -- ...")
        return trace(argv[1], rest[1:], memory)
    if mode == "layers":
        layers(int(argv[1]), argv[2], argv[3])
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
