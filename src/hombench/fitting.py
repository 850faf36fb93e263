"""Weighted least squares for the coincidence-dip lineshape.

At a fixed width sigma and center, the lineshape B - C e(delay), with
e = exp(-(delay - center)^2 / (2 sigma^2)) and C = B f V, is linear in the
baseline B and the depth C. So `fit_dip` solves for them in closed form
inside the box (B >= 0, 0 <= V <= 1.02) and searches the width alone with
`analytics._search`: a log grid over its box, then Brent's method between
the grid minimum's neighbours. This is variable projection (Golub &
Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)). A fitted center adds an
outer `_search` over the scan's delay range, each trial a width search.

Parameter uncertainties come from the inverse of the weighted
normal-equations matrix at the optimum, in (baseline, visibility, sigma
[, center]). The inverse comes from Python elimination (`_solve`), sums
from einsum: only a degenerate matrix (a zero pivot, or a Frobenius
condition of 1 / (n eps)) calls LAPACK, for pinv.

The dip fit estimates (baseline, visibility, sigma); the splitter's T and
R are instrument constants measured separately and are never fitted. An
optional fitted dip-center offset is available but off by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytics import DipModelParams, _search, splitter_dip_factor
from .model import BeamSplitter, ScanPoint


# Both searches run `analytics._search`. The width grid has three points a
# decade over its box; the center grid spaces a tenth of the delay range.
_CENTER_GRID = 11


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b (n <= 4; b a vector or a matrix), by Gaussian elimination
    with partial pivoting on Python floats, so that no fit calls BLAS or LAPACK.
    As LAPACK's gesv, it raises LinAlgError only on an exactly zero pivot."""
    n = len(a)
    m = [row + rhs for row, rhs in zip(a.tolist(), np.reshape(b, (n, -1)).tolist())]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[p][k] == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        m[k], m[p] = m[p], m[k]
        for row in m[k + 1:]:
            f = row[k] / m[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], m[k][k:])]
    for k in reversed(range(n)):  # back substitution, column by column
        m[k][n:] = [x / m[k][k] for x in m[k][n:]]
        for row in m[:k]:
            row[n:] = [x - row[k] * y for x, y in zip(row[n:], m[k][n:])]
    return np.array([row[n:] for row in m]).reshape(np.shape(b))


def _covariance_from_normal(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Invert the normal matrix, detecting rank deficiency.

    It is degenerate when elimination meets a zero pivot, or when its
    Frobenius condition |A|_F |A^-1|_F reaches 1 / (n eps). That bounds the
    2-norm condition, so every matrix the SVD rank test (sigma_min <=
    sigma_max n eps) calls singular is flagged; only those take LAPACK's pinv.
    """
    try:
        inv = _solve(a, np.eye(len(a)))
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a), True
    # hypot neither overflows nor raises; an inf or NaN condition fails the test.
    cond = math.hypot(*a.flat) * math.hypot(*inv.flat) * len(a) * np.finfo(float).eps
    return (inv, False) if cond < 1.0 else (np.linalg.pinv(a), True)


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
    def visibility_error(self) -> float:
        return float(self.std_errors[1])

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


def fit_dip(
    points: Sequence[ScanPoint],
    splitter: BeamSplitter,
    fit_center: bool = False,
) -> FitResult:
    """Fit (baseline, visibility, sigma) to scan counts.

    Weighted least squares with Poisson weights 1 / max(count, 1); the
    splitter imbalance factor is fixed from its measured T and R. The
    visibility is box-constrained to [0, 1.02] (slight overshoot allowed
    so near-unity estimates are not biased by clipping). Sigma is searched
    within 1e-3 to 1e3 times the largest |delay|: a dip that much wider
    than the scan is flat on it, and one that much narrower falls between
    its points, so a fit that ends on a bound found no width on this scan.
    A fitted center is searched within the scan's delay range.

    Preconditions: at least four points (five with a fitted center), some
    coincidences, and at least one point beyond twice the fitted sigma so
    the baseline is constrained. Non-convergence is reported in the
    result, not raised.
    """
    if len(points) < (5 if fit_center else 4):
        raise ValueError(
            f"need at least {'5' if fit_center else '4'} points to fit "
            f"(got {len(points)})"
        )
    delays = np.array([pt.delay_ps for pt in points], dtype=float)
    counts = np.array([pt.coincidences for pt in points], dtype=float)
    if not (np.isfinite([delays, counts]).all() and counts.min() >= 0.0):
        raise ValueError("delays and coincidences must be finite, coincidences >= 0")
    if not counts.any():
        raise ValueError("no coincidences to fit")
    d_max = float(np.abs(delays).max())
    if d_max == 0.0:
        raise ValueError("no baseline leverage: every delay is 0; widen the scan")
    x = delays / d_max  # delays, widths and centers in units of d_max: none overflows
    factor = splitter_dip_factor(splitter)
    weights = 1.0 / np.maximum(counts, 1.0)
    sum_weights = np.stack([weights, weights * counts])
    s_w, s_y = np.einsum("ki->k", sum_weights).tolist()
    k = 1.02 * factor  # C / B at V = 1.02

    def profile(log_sigma: float, d2: np.ndarray) -> tuple[float, float, float]:
        """(chi^2, baseline, visibility) with the least chi^2 in the box at
        this width, given the squared offsets d2 from the center.

        The lineshape is a - C q with a = B - C and q = e - 1 from expm1,
        whose columns stay apart however wide the dip: 1 and e would merge.
        The unconstrained optimum is taken if it is inside the box, else the
        better of its faces V = 0 and V = 1.02."""
        q = np.expm1(d2 * (-0.5 * math.exp(-2.0 * log_sigma)))
        s_q, s_yq = np.einsum("ki,i->k", sum_weights, q).tolist()
        s_qq = float(np.einsum("i,i,i->", weights, q, q))
        det = s_w * s_qq - s_q * s_q
        c = (s_q * s_y - s_w * s_yq) / det if det > 0.0 else 0.0
        b = (s_y * s_qq - s_q * s_yq) / det + c if det > 0.0 else 0.0
        v = c / (factor * b) if b > 0.0 else -1.0
        if 0.0 <= v <= 1.02:
            candidates = [(b, v)]
        else:  # the optimum in the box lies on the face V = 0 or V = 1.02
            candidates = [(s_y / s_w, 0.0)]
            # At V = 1.02 the lineshape is B h with h = (1 - k) - k q.
            s_hh = (1.0 - k) ** 2 * s_w - 2.0 * k * (1.0 - k) * s_q + k * k * s_qq
            if s_hh > 0.0:
                candidates.append((max((1.0 - k) * s_y - k * s_yq, 0.0) / s_hh, 1.02))
        fits = []
        for b, v in candidates:
            c = b * factor * v
            r = counts + (c * q + (c - b))
            fits.append((float(np.einsum("i,i,i->", weights, r, r)), b, v))
        return min(fits)

    log_sigmas = [math.log(1e3) * (j / 9.0 - 1.0) for j in range(19)]  # 1e-3 to 1e3

    def width(center: float) -> tuple:
        """(chi^2, baseline, visibility, sigma / d_max, steps, converged) at this center."""
        d2 = (x - center) ** 2
        t, (chi2, b, v), steps, converged = _search(lambda t: profile(t, d2), log_sigmas)
        return chi2, b, v, math.exp(t), steps, converged

    if fit_center:
        lo, hi = float(x.min()), float(x.max())
        centers = [lo + (hi - lo) * j / (_CENTER_GRID - 1) for j in range(_CENTER_GRID)]
        center, found, steps, converged = _search(width, centers)
        converged = converged and found[5]
    else:
        center, found = 0.0, width(0.0)
        steps, converged = found[4:]
    chi2, b, v, s = found[:4]
    if not np.any(np.abs(x) > 2.0 * s):
        raise ValueError(
            f"no baseline leverage: every |delay| is within twice the fitted "
            f"sigma ({d_max * s:.3g} ps); widen the scan"
        )

    J = _dip_jacobian_external(x, b, v, s, factor, center, fit_center)
    covariance, degenerate = _covariance_from_normal(
        np.einsum("ki,k,kj->ij", J, weights, J))
    scale = np.array([1.0, 1.0, d_max, d_max][:len(covariance)])  # back to ps
    covariance *= np.outer(scale, scale)
    message = "refinement " + ("bracket below tolerance" if converged else "step cap reached")
    if degenerate:  # a pseudo-inverse is not a covariance
        covariance[:] = np.nan
        message += "; singular normal matrix, covariance is a pseudo-inverse"
    std_errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))

    return FitResult(
        params=DipModelParams(b, v, d_max * s),
        std_errors=std_errors,
        covariance=covariance,
        chi_squared=chi2,
        dof=len(points) - (4 if fit_center else 3),
        converged=converged,
        iterations=steps,
        degenerate=degenerate,
        message=message,
        center_ps=d_max * center if fit_center else None,
    )
