"""Seeded ensembles of dip scans and their fits, for bias, pull and
coverage checks against a reference value.

`ensemble` runs one scan per seed and fits it. A seed whose fit is
rejected (a failed precondition), did not converge or is degenerate is
recorded in `failures` with the reason, the way the CLI exits 3 on it;
it is counted there and never silently dropped. Each summary returns
its value with a standard error, so a test can bound it in units of
that error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hombench import ExperimentConfig, fit_dip, run_dip_scan


@dataclass(frozen=True)
class Ensemble:
    """Per-seed fit results: the seeds that fitted, in the order run, with
    their estimates and reported std errors as (baseline, visibility,
    sigma_ps) rows, and every seed that did not fit, with its reason."""

    seeds: list[int]
    estimates: np.ndarray
    errors: np.ndarray
    failures: dict[int, str]

    @property
    def visibility(self) -> np.ndarray:
        return self.estimates[:, 1]

    @property
    def visibility_error(self) -> np.ndarray:
        return self.errors[:, 1]

    def pulls(self, reference: float) -> np.ndarray:
        """(V - reference) / reported error, one per fitted seed."""
        return (self.visibility - reference) / self.visibility_error


def ensemble(
    config: ExperimentConfig,
    delays: list[float],
    gates: int,
    seeds: list[int],
    sampler: str = "multinomial",
) -> Ensemble:
    fitted, estimates, errors, failures = [], [], [], {}
    for seed in seeds:
        points = run_dip_scan(config, delays, gates, seed, sampler=sampler)
        try:
            fit = fit_dip(points, config.splitter)
        except ValueError as exc:
            failures[seed] = f"rejected: {exc}"
            continue
        if not fit.converged or fit.degenerate:
            failures[seed] = fit.message or "did not converge"
            continue
        fitted.append(seed)
        p = fit.params
        estimates.append((p.baseline, p.visibility, p.sigma_ps))
        errors.append(fit.std_errors[:3])
    return Ensemble(fitted, np.array(estimates, dtype=float).reshape(-1, 3),
                    np.array(errors, dtype=float).reshape(-1, 3), failures)


def mean(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(len(x)))


def spread(x: np.ndarray) -> tuple[float, float]:
    """Sample standard deviation and its standard error, s / sqrt(2 (n - 1))
    (normal samples)."""
    s = float(np.std(x, ddof=1))
    return s, s / math.sqrt(2.0 * (len(x) - 1))


def coverage(pulls: np.ndarray, z: float = 1.0) -> tuple[float, float, float]:
    """Share of |pull| <= z, its binomial standard error at the nominal
    share, and the nominal share erf(z / sqrt 2)."""
    nominal = math.erf(z / math.sqrt(2.0))
    share = float(np.mean(np.abs(pulls) <= z))
    return share, math.sqrt(nominal * (1.0 - nominal) / len(pulls)), nominal
