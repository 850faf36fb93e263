"""Weighted nonlinear least squares for the coincidence-dip lineshape.

A from-scratch Levenberg-Marquardt core (`levenberg_marquardt`) drives the
dip fit (`fit_dip`). The damping schedule is the classic one, fixed in
module constants: multiply the damping by 10 when a step is rejected,
divide by 10 when accepted, with the Marquardt diagonal scaling. Parameter
uncertainties come from the inverse of the weighted normal-equations
matrix at the optimum; the dip fit reports the one the optimizer computed,
mapped from its internal log-sigma coordinate to sigma.

The dip fit estimates (baseline, visibility, sigma); the splitter's T and
R are instrument constants measured separately and are never fitted. An
optional fitted dip-center offset is available but off by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .analytics import DipModelParams, dip_curve, splitter_dip_factor
from .model import BeamSplitter

if TYPE_CHECKING:  # import only for annotations; simulate imports this module
    from .simulate import ScanPoint


# Levenberg-Marquardt schedule. Convergence is declared when an accepted
# step reduces the cost by less than _COST_RTOL of its value, or moves the
# parameters by less than _STEP_RTOL (relative to their norm).
_COST_RTOL = 1e-10
_STEP_RTOL = 1e-12
_INITIAL_DAMPING = 1e-3
_DAMPING_FACTOR = 10.0
_MAX_REJECTS_PER_STEP = 50


@dataclass
class LMResult:
    """Raw optimizer output in whatever parameterization it was run in."""

    theta: np.ndarray
    covariance: np.ndarray
    cost: float
    iterations: int
    converged: bool
    degenerate: bool
    message: str


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


def _covariance_from_normal(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Invert the normal matrix, detecting rank deficiency.

    np.linalg.inv happily returns garbage for numerically singular input,
    so degeneracy is decided by the SVD rank, not by LinAlgError alone.
    """
    if np.linalg.matrix_rank(a) < a.shape[0]:
        return np.linalg.pinv(a), True
    try:
        return np.linalg.inv(a), False
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a), True


def levenberg_marquardt(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    theta0: Sequence[float],
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    max_iterations: int = 200,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> LMResult:
    """Minimize sum(w * (y - model(x, theta))^2) over theta.

    `jacobian` returns the (n_points, n_params) matrix of model partials;
    when omitted, central finite differences stand in. `project`, when
    given, clamps a candidate parameter vector into its feasible box after
    every trial step; the reported step size is the post-projection one.

    Non-finite model output at the starting point aborts with ValueError.
    A trial step that produces non-finite output is treated as rejected,
    so the damping schedule walks the step length down until the model is
    evaluable again.
    """
    x = np.asarray(x)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and > 0")
    theta = np.asarray(theta0, dtype=float).copy()
    if project is not None:
        theta = project(theta)

    def jac(th: np.ndarray) -> np.ndarray:
        if jacobian is not None:
            return np.asarray(jacobian(x, th), dtype=float)
        return finite_difference_jacobian(model, x, th)

    f = np.asarray(model(x, theta), dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("model returned non-finite values at the starting point")
    r = y - f
    cost = float(w @ (r * r))

    lam = _INITIAL_DAMPING
    converged = False
    message = "maximum iterations reached"
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        J = jac(theta)
        A = J.T @ (w[:, None] * J)
        g = J.T @ (w * r)
        diag = np.diag(A).copy()
        floor = diag[diag > 0.0].min() if np.any(diag > 0.0) else 1.0
        diag[diag <= 0.0] = floor

        accepted = False
        for _ in range(_MAX_REJECTS_PER_STEP):
            try:
                step = np.linalg.solve(A + lam * np.diag(diag), g)
            except np.linalg.LinAlgError:
                lam *= _DAMPING_FACTOR
                continue
            cand = theta + step
            if project is not None:
                cand = project(cand)
            f_c = np.asarray(model(x, cand), dtype=float)
            if not np.all(np.isfinite(f_c)):
                lam *= _DAMPING_FACTOR
                continue
            r_c = y - f_c
            cost_c = float(w @ (r_c * r_c))
            if cost_c <= cost:
                accepted = True
                break
            lam *= _DAMPING_FACTOR
        if not accepted:
            message = "damping schedule exhausted without an acceptable step"
            break

        moved = float(np.linalg.norm(cand - theta))
        rel_drop = (cost - cost_c) / cost if cost > 0.0 else 0.0
        theta, r, cost = cand, r_c, cost_c
        lam = max(lam / _DAMPING_FACTOR, 1e-300)
        if rel_drop < _COST_RTOL:
            converged = True
            message = "relative cost decrease below tolerance"
            break
        if moved < _STEP_RTOL * (1.0 + float(np.linalg.norm(theta))):
            converged = True
            message = "step size below tolerance"
            break

    J = jac(theta)
    A = J.T @ (w[:, None] * J)
    covariance, degenerate = _covariance_from_normal(A)
    if degenerate:
        message += "; singular normal matrix, covariance is a pseudo-inverse"
    return LMResult(
        theta=theta,
        covariance=covariance,
        cost=cost,
        iterations=iterations,
        converged=converged,
        degenerate=degenerate,
        message=message,
    )


@dataclass
class FitResult:
    """Dip-fit estimate with uncertainties.

    `parameters` names the order of `std_errors` and `covariance`:
    (baseline, visibility, sigma_ps) plus, when the center was fitted,
    center_ps last. `chi_squared` is the weighted sum of squared residuals
    at the optimum, comparable to `dof` for Poisson-consistent data. A
    degenerate fit has no covariance: every entry and std error is NaN.
    """

    params: DipModelParams
    std_errors: np.ndarray
    covariance: np.ndarray
    chi_squared: float
    dof: int
    converged: bool
    iterations: int
    degenerate: bool = False
    message: str = ""
    center_ps: float | None = None

    @property
    def parameters(self) -> list[tuple[str, float, float]]:
        """(name, estimate, std_error) in covariance order."""
        estimates = [("baseline", self.params.baseline),
                     ("visibility", self.params.visibility),
                     ("sigma_ps", self.params.sigma_ps),
                     ("center_ps", self.center_ps)]  # dropped unless fitted
        return [(name, est, float(err))
                for (name, est), err in zip(estimates, self.std_errors)]

    @property
    def visibility(self) -> float:
        return self.params.visibility

    @property
    def visibility_error(self) -> float:
        return float(self.std_errors[1])

    @property
    def sigma_ps(self) -> float:
        return self.params.sigma_ps

    @property
    def sigma_error(self) -> float:
        return float(self.std_errors[2])


def _dip_jacobian_external(
    delays: np.ndarray,
    baseline: float,
    visibility: float,
    sigma: float,
    factor: float,
    center: float = 0.0,
    with_center: bool = False,
) -> np.ndarray:
    """Partials of the lineshape in (baseline, visibility, sigma[, center])."""
    d = delays - center
    e = np.exp(-0.5 * (d / sigma) ** 2)
    d_base = 1.0 - factor * visibility * e
    d_vis = -baseline * factor * e
    d_sigma = -baseline * factor * visibility * e * (d * d) / sigma**3
    cols = [d_base, d_vis, d_sigma]
    if with_center:
        cols.append(-baseline * factor * visibility * e * d / sigma**2)
    return np.column_stack(cols)


def _self_initialize(
    delays: np.ndarray, counts: np.ndarray, factor: float
) -> tuple[float, float, float]:
    """Starting point from the data alone.

    Baseline from the largest count; visibility from the two-point depth
    estimator, clamped into [0, 1]; sigma from the half-width of the
    delay region whose counts sit below the midpoint between the extremes.
    """
    c_max = float(counts.max())
    c_min = float(counts.min())
    baseline = max(c_max, 1.0)
    vis = 0.0 if c_max <= 0.0 else (1.0 - c_min / c_max) / factor
    vis = min(max(vis, 0.0), 1.0)
    midpoint = 0.5 * (c_max + c_min)
    below = delays[counts < midpoint]
    if below.size >= 1 and float(below.max() - below.min()) > 0.0:
        sigma = 0.5 * float(below.max() - below.min())
    else:
        span = float(delays.max() - delays.min())
        sigma = span / 4.0 if span > 0.0 else 1.0
    return baseline, vis, max(sigma, 1e-6)


def fit_dip(
    points: Sequence["ScanPoint"],
    splitter: BeamSplitter,
    init: DipModelParams | None = None,
    fit_center: bool = False,
) -> FitResult:
    """Fit (baseline, visibility, sigma) to scan counts.

    Weighted least squares with Poisson weights 1 / max(count, 1); the
    splitter imbalance factor is fixed from its measured T and R. The
    visibility is box-constrained to [0, 1.02] (slight overshoot allowed
    so near-unity estimates are not biased by clipping) and sigma is kept
    positive through an internal log parameterization. Sigma is kept
    within 1e-3 to 1e3 times the largest |delay|: a dip that much wider
    than the scan is flat on it, and one that much narrower falls between
    its points, so the bounds only stop a runaway trial step from
    overflowing or collapsing to zero, and a fit that ends on one found
    no width on this scan.

    Preconditions: at least four points (five with a fitted center), and
    at least one point beyond twice the initial sigma so the baseline is
    constrained. Non-convergence is reported in the result, not raised.
    """
    if len(points) < (5 if fit_center else 4):
        raise ValueError(
            f"need at least {'5' if fit_center else '4'} points to fit "
            f"(got {len(points)})"
        )
    delays = np.array([pt.delay_ps for pt in points], dtype=float)
    counts = np.array([pt.coincidences for pt in points], dtype=float)
    factor = splitter_dip_factor(splitter)

    if init is not None:
        theta_ext = [init.baseline, init.visibility, init.sigma_ps]
    else:
        theta_ext = list(_self_initialize(delays, counts, factor))
    if not np.any(np.abs(delays) > 2.0 * theta_ext[2]):
        raise ValueError(
            f"no baseline leverage: every |delay| is within twice the initial "
            f"sigma ({theta_ext[2]:.3g} ps); widen the scan"
        )

    weights = 1.0 / np.maximum(counts, 1.0)
    n_params = 4 if fit_center else 3
    # Positive: the leverage check above found some |delay| > 0.
    log_sigma_max = math.log(1e3 * float(np.abs(delays).max()))
    log_sigma_min = log_sigma_max - math.log(1e6)

    # Internal parameterization: (baseline, visibility, log sigma[, center]).
    def to_external(th: np.ndarray) -> tuple[float, float, float, float]:
        center = th[3] if fit_center else 0.0
        return float(th[0]), float(th[1]), float(math.exp(th[2])), float(center)

    def model(x: np.ndarray, th: np.ndarray) -> np.ndarray:
        b, v, s, c = to_external(th)
        return dip_curve(x, b, v, s, factor, c)

    def jacobian(x: np.ndarray, th: np.ndarray) -> np.ndarray:
        b, v, s, c = to_external(th)
        J = _dip_jacobian_external(x, b, v, s, factor, c, with_center=fit_center)
        J[:, 2] *= s  # chain rule for the log-sigma coordinate
        return J

    def project(th: np.ndarray) -> np.ndarray:
        out = th.copy()
        out[0] = max(out[0], 0.0)
        out[1] = min(max(out[1], 0.0), 1.02)
        out[2] = min(max(out[2], log_sigma_min), log_sigma_max)
        return out

    theta0 = [theta_ext[0], theta_ext[1], math.log(theta_ext[2])]
    if fit_center:
        theta0.append(0.0)
    lm = levenberg_marquardt(
        model, delays, counts, weights, theta0,
        jacobian=jacobian, project=project,
    )

    # lm.covariance is in (baseline, visibility, log sigma[, center]);
    # d sigma = sigma d(log sigma) maps it to the reported coordinates.
    b, v, s, c = to_external(lm.theta)
    scale = np.ones(n_params)
    scale[2] = s
    covariance = lm.covariance * np.outer(scale, scale)
    if lm.degenerate:  # a pseudo-inverse is not a covariance
        covariance[:] = np.nan
    std_errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))

    return FitResult(
        params=DipModelParams(b, v, s, splitter),
        std_errors=std_errors,
        covariance=covariance,
        chi_squared=lm.cost,
        dof=len(points) - n_params,
        converged=lm.converged,
        iterations=lm.iterations,
        degenerate=lm.degenerate,
        message=lm.message,
        center_ps=c if fit_center else None,
    )
