"""hombench benchmark: fresh CLI processes per workload, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI run is a new `python3 -m hombench` process, because the program
keeps process-wide caches (the Fock click distributions) that every CLI
user starts cold; an in-process loop would time a warm program nobody
runs. The benchmark writes the workload's config file, passes the program
only that file and CLI flags, and checks each run's outputs.

--trace 0 prints the end-to-end metrics: wall time, CPU time and peak RSS
of each CLI run (taken from that child's own rusage) and the set-up time
of a fresh interpreter that imports hombench and loads the config; a text
line adds gates simulated per second where the sampler goes gate by gate.
--trace 1 runs the same CLI under perfbench/probe.py, which records a span
at every layer boundary, and prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

An operation is one CLI invocation, plus one per visibility-sweep row;
the timing repeats of that invocation are checked against it, not counted
again. It fails on an unexpected exit code or a failed statistical check;
failures are counted, never filtered (fail_ratio = failed / attempted).
`correct` is false when an output is missing or malformed, or when two
runs of the same inputs differ in exit code or in their reports beyond
`wall_seconds`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
PROBE = HERE / "probe.py"

# The calibrated reference instrument, frozen here so that a change to the
# program's defaults cannot silently change a workload.
REFERENCE = {
    "pairs_per_pulse": 0.03,
    "extinction_ratio_db": 30.0,
    "fwhm_ps": 4.0,
    "eta_signal": 0.004356234096691836,
    "eta_idler": 0.004356234096691836,
    "splitter_t_db": -3.3,
    "splitter_r_db": -3.6,
    "dark_prob_a": 0.0001088,
    "dark_prob_b": 0.0003192,
    "pulse_rate_hz": 100000000.0,
    "gate_rate_hz": 5000000.0,
    "delay_ps": 0.0,
}

@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: dict
    options: dict
    smoke: dict  # option overrides for the benchmark's own smoke test

    def gates(self, options: dict) -> float | None:
        """Gates one CLI run simulates gate by gate, or None.

        The multinomial sweep draws any gate count in O(1), so a gate
        rate there would only restate its wall time.
        """
        gates = float(options["--gates"])
        if self.subcommand == "car":
            return gates
        if self.subcommand == "visibility-sweep":
            return None
        return gates * int(options["--delay-steps"])


# Why each workload: see perfbench/README.md.
WORKLOADS = {
    # Per-gate sampler at eta = 0.05 (about 65 coincidences per point, so
    # the fit is identifiable); sampling is over 90% of the run.
    "dip-pergate": Workload(
        "dip-scan",
        {"eta_signal": 0.05, "eta_idler": 0.05},
        {"--sampler": "per-gate", "--gates": "2e6", "--delay-min": "-6",
         "--delay-max": "6", "--delay-steps": "21"},
        {"--gates": "2e5"},
    ),
    # Sparse clicks: the distinct-position sort and the offset
    # intersections dominate, and RSS grows with the click count.
    "car-sparse": Workload("car", {}, {"--gates": "1e10"}, {"--gates": "1e9"}),
    # Dense clicks: the rejection top-up loop dominates.
    "car-bright": Workload(
        "car",
        {"pairs_per_pulse": 2.0, "eta_signal": 1.0, "eta_idler": 1.0},
        {"--gates": "5e5"},
        {"--gates": "2e4"},
    ),
    # Cold gate-pmf builds: 401 delays need more click-distribution cache
    # entries than the cache holds, so every row recomputes them.
    "sweep-fine": Workload(
        "visibility-sweep",
        {},
        {"--sampler": "multinomial", "--pairs": "0.005,0.01,0.03,0.1", "--gates": "1e9",
         "--delay-min": "-12", "--delay-max": "12", "--delay-steps": "401"},
        {"--delay-steps": "21"},
    ),
}

# Per-layer metrics and their units. A layer a workload never reaches
# reads 0 there (run_car on a dip scan, the per-gate sampler on a sweep).
PER_LAYER = {
    "cli.self_s": "s",
    "configio.self_s": "s",
    "analytics.calibrate_eta.self_s": "s",
    "analytics.invert_car.calls": "count",
    "analytics.invert_car.failures": "count",
    "analytics.car_gap": "ratio",
    "fock.click_pattern_probs.calls": "count",
    "fock.click_pattern_probs.self_s": "s",
    "fock.distinct_ratio": "ratio",
    "fock.evolve_fock.2x2_s": "s",
    "fock.evolve_fock.3x3_s": "s",
    "fock.evolve_fock_ladder.3x3_s": "s",
    "simulate.gate_pattern_distribution.calls": "count",
    "simulate.gate_pattern_distribution.self_s": "s",
    "simulate.gate_pattern_distribution.cold_s": "s",
    "simulate.gate_pattern_distribution.warm_s": "s",
    "simulate.simulate_gate.us_per_gate": "us",
    "simulate.run_dip_scan.self_s": "s",
    "simulate.pergate.gates_per_s_1t": "1/s",
    "simulate.pergate.gates_per_s_2t": "1/s",
    "simulate.pergate.thread_efficiency": "ratio",
    "simulate.pergate.active_share": "ratio",
    "simulate.run_car.self_s": "s",
    "simulate.car.clicks": "count",
    "simulate.car.tracemalloc_peak_mb": "MB",
    "fitting.fit_dip.calls": "count",
    "fitting.fit_dip.self_s": "s",
    "fitting.lm_iterations": "count",
    "fitting.failures": "count",
    "reporting.write.self_s": "s",
    "reporting.bytes": "B",
    "trace.overhead_s": "s",
}
ZERO_UNLESS_REACHED = {"analytics.car_gap", "simulate.car.clicks"}

SETUP_STARTS = 7       # fewest fresh interpreters per run for setup_s
REP_TIMEOUT_S = 100.0  # a CLI run killed after this counts as failed
THREADS = min(2, len(os.sched_getaffinity(0)))
WALL_LINE = re.compile(r'^\s*"wall_seconds": .*$', re.MULTILINE)

SETUP_CODE = (
    "import sys, hombench\n"
    "from hombench.configio import load_config\n"
    "load_config(sys.argv[1])\n"
)


@dataclass
class Rep:
    """One child process: exit code, wall and CPU seconds, peak RSS."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    broken: list[str] = field(default_factory=list)
    reports: dict[str, str] = field(default_factory=dict)
    first_code: int | None = None
    first_report: dict | None = None

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def run_child(argv: list[str], env: dict, log: Path, cwd: Path) -> Rep:
    """Start one process, wait for it, and read its own rusage."""
    with log.open("w") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=cwd)
        timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Rep(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def child_env(root: Path, threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONPYCACHEPREFIX=str(root / ".bench_build" / "pycache"),
        HOMBENCH_THREADS=str(threads),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


# ------------------------------------------------------------------ checks

def check_rep(name: str, workload: Workload, rep: Rep, out: Path, ref: dict,
              ledger: Ledger, label: str) -> None:
    """Record the operations of the first CLI run and any broken output.

    Every CLI run of one benchmark run has the same inputs, so the later
    runs repeat the first one's operations for timing: they must give the
    same exit code and the same outputs, or the result is not correct, and
    their operations are not counted again. So `attempted` and `failed`
    depend only on the seed, not on how many runs fit in the time.
    """
    first = ledger.first_code is None
    if first:
        ledger.first_code = rep.code
    elif rep.code != ledger.first_code:
        ledger.broken.append(f"{label}: exit {rep.code}, run 1 exited "
                             f"{ledger.first_code}")
    path = out / "report.json"
    try:
        text = path.read_text()
        report = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        ledger.broken.append(f"{label}: no readable report.json ({exc})")
        if first:
            ledger.op(False, f"{label}: exit {rep.code}, no report")
        return
    if report.get("kind") != workload.subcommand:
        ledger.broken.append(f"{label}: report kind {report.get('kind')!r}")

    # Byte-identical outputs apart from wall_seconds, for the same inputs.
    for out_file in sorted(out.iterdir()):
        if out_file.suffix not in (".json", ".csv"):
            continue
        body = WALL_LINE.sub("", out_file.read_text())
        if body != ledger.reports.setdefault(out_file.name, body):
            ledger.broken.append(f"{label}: {out_file.name} differs from run 1")
    if not first:
        return

    ledger.first_report = report
    data = report.get("data", {})
    if name == "dip-pergate":
        fit = data.get("fit")
        ok = rep.code == 0 and fit is not None
        if ok:
            sigma = fit["std_errors"][1]
            ok = abs(fit["visibility"] - ref["visibility"]) <= 4.0 * sigma
        ledger.op(ok, f"{label}: exit {rep.code}, fit {fit and fit['visibility']}"
                      f" vs noise-free {ref['visibility']:.4f}")
    elif workload.subcommand == "car":
        matched = data["matched_coincidences"]
        accidentals = sum(data["unmatched_coincidences"])
        car = data["car"]
        sigma = car * math.sqrt(1.0 / max(matched, 1) + 1.0 / max(accidentals, 1))
        p = ref["pairs_per_pulse"]
        ok = (rep.code == 0 and abs(car - ref["car"]) <= 5.0 * sigma
              and abs(data["p_estimate"] - p) <= 0.1 * p)
        ledger.op(ok, f"{label}: exit {rep.code}, CAR {car:.4g} vs "
                      f"{ref['car']:.4g} +/- 5x{sigma:.3g}, p_estimate "
                      f"{data['p_estimate']:.4g} vs {p:.4g}")
    else:
        any_row_failed = False
        for row in data["rows"]:
            p = row["pairs_per_pulse"]
            expected = ref["visibility_by_pairs"][repr(float(p))]
            ok = bool(row["converged"]) and abs(
                row["visibility_fit"] - expected) <= 4.0 * row["visibility_err"]
            any_row_failed |= not row["converged"]
            ledger.op(ok, f"{label}: row p={p}: {row['error'] or row['visibility_fit']}"
                          f" vs noise-free {expected:.4f}")
        # The documented contract: exit 3 when any row did not fit.
        want = 3 if any_row_failed else 0
        ledger.op(rep.code == want, f"{label}: exit {rep.code}, expected {want}")


# -------------------------------------------------------------------- runs

def quantiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for perfbench/test_smoke.py")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hombench" / "__init__.py").is_file():
        print(f"no hombench sources under {root / 'src'}; "
              f"run from the repository root", file=sys.stderr)
        return 2
    work = (root / ".bench_build" / "perfbench"
            / f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args, root, work)
        if not bench.prepare():
            return 2
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        bench.print_result(metrics)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Bench:
    """One benchmark run of one workload: its files, checks and child runs."""

    def __init__(self, args: argparse.Namespace, root: Path, work: Path):
        self.args = args
        self.root = root
        self.work = work
        self.name = args.workload
        self.workload = WORKLOADS[self.name]
        self.options = dict(self.workload.options,
                            **(self.workload.smoke if args.smoke else {}))
        self.cli_seed = int.from_bytes(
            hashlib.sha256(f"{self.name}:{args.seed}".encode()).digest()[:4], "big")
        self.config = work / "config.json"
        self.ledger = Ledger()
        self.ref: dict = {}
        self.notes: list[str] = []
        self.runs = 0

    def child(self, argv: list[str], log: str, threads: int = THREADS) -> Rep:
        return run_child(argv, child_env(self.root, threads), self.work / log,
                         self.root)

    def prepare(self) -> bool:
        """Write the config and compute, or reuse, the reference values."""
        config = dict(REFERENCE, **self.workload.config)
        self.config.write_text(json.dumps(config, indent=2))
        spec = json.dumps({"config": config, "options": self.options,
                           "subcommand": self.workload.subcommand}, sort_keys=True)
        # Reference values depend only on the inputs, the program and the
        # interpreter, so they are computed once per checkout and reused.
        key = "\n".join([spec, source_digest(self.root / "src"), sys.version,
                         importlib.metadata.version("numpy")])
        ref_path = (self.work.parent
                    / f"reference-{hashlib.sha256(key.encode()).hexdigest()[:16]}.json")
        if not ref_path.is_file():
            spec_path = self.work / "spec.json"
            spec_path.write_text(spec)
            fresh = self.work / "reference.json"
            rep = self.child([sys.executable, str(PROBE), "reference", str(spec_path),
                              str(fresh)], "reference.log")
            if rep.code != 0:
                print((self.work / "reference.log").read_text(), file=sys.stderr)
                return False
            fresh.replace(ref_path)
        self.ref = json.loads(ref_path.read_text())
        imported = Path(self.ref["env"]["hombench_path"])
        if imported != (self.root / "src" / "hombench").resolve():
            print(f"hombench imported from {imported}, not from this checkout",
                  file=sys.stderr)
            return False
        return True

    def cli_run(self, threads: int, traced: bool,
                memory: bool = False) -> tuple[Rep, dict | None]:
        """One checked CLI run; a traced run also returns its span metrics."""
        self.runs += 1
        i = self.runs
        out = self.work / f"run{i}"
        out.mkdir()
        argv = [self.workload.subcommand, "--config", str(self.config),
                *[item for pair in self.options.items() for item in pair],
                "--seed", str(self.cli_seed), "--out", str(out)]
        trace_path = self.work / f"trace{i}.json"
        if traced:
            argv = [sys.executable, str(PROBE), "trace", str(trace_path),
                    *(["--tracemalloc"] if memory else []), "--", *argv]
        else:
            argv = [sys.executable, "-m", "hombench", *argv]
        rep = self.child(argv, f"run{i}.log", threads)
        kind = ", tracemalloc" if memory else ", traced" if traced else ""
        label = f"run {i} ({threads}t{kind})"
        check_rep(self.name, self.workload, rep, out, self.ref, self.ledger, label)
        if not traced:
            return rep, None
        try:
            trace = json.loads(trace_path.read_text())["metrics"]
        except (OSError, json.JSONDecodeError, KeyError):
            self.ledger.broken.append(f"{label}: no trace output")
            return rep, None
        trace["reporting.bytes"] = float(sum(f.stat().st_size for f in out.iterdir()))
        return rep, trace

    def window(self):
        """Yield once per round while the next round fits in --seconds.

        A round is expected to last as long as the previous one, so a run
        ends close to --seconds instead of overrunning it by a round.
        """
        t0 = perf_counter()
        while True:
            start = perf_counter()
            yield
            last = perf_counter() - start
            if perf_counter() - t0 + last > self.args.seconds:
                return

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        setups: list[Rep] = []

        def setup_probe() -> None:
            setups.append(self.child(
                [sys.executable, "-c", SETUP_CODE, str(self.config)],
                f"setup{len(setups)}.log"))

        if self.name == "dip-pergate":
            self.cli_run(1, traced=False)  # determinism across thread counts
        reps: list[Rep] = []
        for _ in self.window():
            # Set-up probes go between CLI runs, so that both medians
            # sample the same stretch of a machine whose speed drifts.
            setup_probe()
            reps.append(self.cli_run(THREADS, traced=False)[0])
        while len(setups) < (3 if self.args.smoke else SETUP_STARTS):
            setup_probe()
        if any(s.code != 0 for s in setups):
            self.ledger.broken.append("set-up probe failed")
        walls = [r.wall_s for r in reps]
        wall = statistics.median(walls)
        gates = self.workload.gates(self.options)
        if gates is not None:
            # gates / wall_s restates wall_s for a fixed workload, so it is
            # printed for users but not bounded as a metric of its own.
            self.notes.append(f"{'gates_per_s':<44} {gates / wall:.6g} 1/s")
        self.notes.append(f"wall_s {quantiles(walls)}; "
                          f"setup_s {quantiles([s.wall_s for s in setups])}")
        return {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(s.wall_s for s in setups), "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in reps), "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in reps), "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        plain: list[Rep] = []
        traced: list[tuple[Rep, dict]] = []
        for _ in self.window():
            plain.append(self.cli_run(THREADS, traced=False)[0])
            rep, trace = self.cli_run(THREADS, traced=True)
            if trace is not None:
                traced.append((rep, trace))
        values: dict[str, float] = {}
        if traced:
            for key in {k for _, t in traced for k in t}:
                values[key] = statistics.median(t.get(key, 0.0) for _, t in traced)
            values["trace.overhead_s"] = (
                statistics.median(r.wall_s for r, _ in traced)
                - statistics.median(r.wall_s for r in plain))

        two_thread = values.pop("simulate.pergate.gates_per_s", 0.0)
        one_thread = 0.0
        if self.name == "dip-pergate":
            trace = self.cli_run(1, traced=True)[1] or {}
            one_thread = trace.get("simulate.pergate.gates_per_s", 0.0)
        values["simulate.pergate.gates_per_s_1t"] = one_thread
        values["simulate.pergate.gates_per_s_2t"] = two_thread
        values["simulate.pergate.thread_efficiency"] = (
            two_thread / (THREADS * one_thread) if one_thread else 0.0)

        peak = 0.0
        if self.workload.subcommand == "car":
            trace = self.cli_run(THREADS, traced=True, memory=True)[1] or {}
            peak = trace.get("simulate.car.tracemalloc_peak_mb", 0.0)
        values["simulate.car.tracemalloc_peak_mb"] = peak

        reference_config = self.work / "reference_config.json"
        reference_config.write_text(json.dumps(REFERENCE, indent=2))
        layer_path = self.work / "layers.json"
        rep = self.child([sys.executable, str(PROBE), "layers", str(self.args.seed),
                          str(reference_config), str(layer_path)], "layers.log")
        if rep.code == 0:
            values.update(json.loads(layer_path.read_text())["metrics"])

        report = self.ledger.first_report
        if self.workload.subcommand == "car" and report:
            data = report["data"]
            values["analytics.car_gap"] = data["car"] / self.ref["car"]
            values["simulate.car.clicks"] = float(
                data["singles_a"] + data["singles_b"] - data["matched_coincidences"])
        missing = sorted(set(PER_LAYER) - set(values) - ZERO_UNLESS_REACHED)
        if missing:
            self.ledger.broken.append(f"per-layer metrics not measured: {missing}")
        return {k: (values.get(k, 0.0), unit) for k, unit in PER_LAYER.items()}

    def print_result(self, metrics: dict[str, tuple[float, str]]) -> None:
        ledger = self.ledger
        env_record = {
            "workload": self.name, "seed": self.args.seed, "cli_seed": self.cli_seed,
            "python": self.ref["env"]["python"], "numpy": self.ref["env"]["numpy"],
            "hombench": self.ref["env"]["hombench"], "platform": platform.platform(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "HOMBENCH_THREADS": THREADS, "git_commit": git_commit(self.root),
            "src_sha256": source_digest(self.root / "src"), "smoke": self.args.smoke,
        }
        fail_ratio = ledger.failed / max(ledger.attempted, 1)
        print(f"workload {self.name}  seed {self.args.seed}  trace {self.args.trace}")
        for key, (value, unit) in sorted(metrics.items()):
            print(f"  {key:<44} {value:.6g} {unit}")
        print(f"  {'fail_ratio':<44} {fail_ratio:.6g} ratio "
              f"({ledger.failed} of {ledger.attempted} operations)")
        for line in self.notes:
            print(f"  {line}")
        for problem in ledger.problems:
            print(f"  failed: {problem}")
        for problem in ledger.broken:
            print(f"  INCORRECT: {problem}")
        print("env " + json.dumps(env_record, sort_keys=True))
        print(json.dumps({
            "correct": not ledger.broken,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))


if __name__ == "__main__":
    sys.exit(main())
