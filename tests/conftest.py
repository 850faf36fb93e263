"""Shared fixtures, the CLI runner, the finite-difference Jacobian oracle,
and the acceptance-line reporter."""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Callable

import numpy as np
import pytest

from hombench import (
    BeamSplitter,
    DetectorParams,
    ExperimentConfig,
    OpticalChannel,
    SourceParams,
    TimingConfig,
    WavepacketShape,
    default_config,
    fwhm_to_sigma,
)

_ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion() -> Callable[[int, bool, str], bool]:
    """Record one PASS/FAIL line per acceptance criterion.

    The line is printed immediately (visible with -s) and replayed in the
    terminal summary so the plain `pytest -v` output carries it too.
    """

    def report(number: int, ok: bool, detail: str = "") -> bool:
        status = "PASS" if ok else "FAIL"
        line = f"[criterion {number}] {status}"
        if detail:
            line += f": {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        return ok

    return report


@pytest.fixture
def default_cfg() -> ExperimentConfig:
    return default_config()


@pytest.fixture
def symmetric_cfg() -> Callable[..., ExperimentConfig]:
    """Single-efficiency, equal-dark config used by the cross-validation grid."""

    def build(
        p: float,
        eta: float,
        dark: float,
        delay_ps: float = 0.0,
        extinction: float = 1000.0,
    ) -> ExperimentConfig:
        return ExperimentConfig(
            source=SourceParams(p, extinction),
            wavepacket=WavepacketShape(fwhm_to_sigma(4.0)),
            channel_s=OpticalChannel(eta),
            channel_i=OpticalChannel(eta),
            splitter=BeamSplitter.from_db(-3.3, -3.6),
            detector_a=DetectorParams(dark),
            detector_b=DetectorParams(dark),
            timing=TimingConfig(100e6, 5e6),
            delay_ps=delay_ps,
        )

    return build


def run_cli(
    *args: str,
    cwd: str | os.PathLike[str] | None = None,
    threads: int | None = None,
) -> subprocess.CompletedProcess[str]:
    """Run the installed CLI in a subprocess and capture its output."""
    env = dict(os.environ)
    if threads is not None:
        env["HOMBENCH_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "hombench", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        check=False,
    )


def finite_difference_jacobian(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    theta: np.ndarray,
    rel_step: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian with per-parameter step rel_step * scale."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(theta.size):
        h = rel_step * max(abs(theta[j]), 1.0)
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        cols.append((model(x, up) - model(x, dn)) / (2.0 * h))
    return np.column_stack(cols)
