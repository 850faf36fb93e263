"""Exact per-gate click-pattern model of the interference benchmark.

A generated pair is routed with demultiplexer crosstalk, each photon
survives its channel and the coupler, and whatever survived interferes
exactly (probabilities from the `fock` oracle). Photons from different
pairs of the same pulse are mutually distinguishable, the multimode-source
limit: a gate with n pairs composes n independent per-pair click
distributions, so a Poisson pair number mixes in exactly through its
generating function, and dark counts OR onto each threshold detector;
`analytics._poisson_pair_pmf` does both, for the CAR's slot pmf too.
Because the per-pair distributions are oracle outputs, the comparison
against the closed-form visibility budget is a real cross-check rather
than a restatement. Pairs of one pulse that share one mode per arm give
a deeper dip 1 - P11(kappa=1) / P11(kappa=0) (Ou, Rhee & Wang, PRA 60,
593 (1999)): at eta = 0.05 with darks and crosstalk off, deeper by 0.0270
at p = 0.03 and 0.0800 at p = 0.1 with Poisson pair numbers. A
single-mode source has thermal pair numbers, and its dip is deeper by
only 0.0029 and 0.0227.

The overlap kappa enters as a mixture, not a superposition. A pair with
one photon per arm is, with probability kappa^2, an indistinguishable
("twin") pair and otherwise a distinguishable ("split") one whose idler
rides the orthogonal temporal mode. The splitter never changes a temporal
label, so the two parts land in disjoint output occupations and cannot
interfere: the mixture is exact (Hong, Ou & Mandel, PRL 59, 2044 (1987)).
So the oracle runs on six fixed inputs per splitter, whatever the scan.
A scan mixes the per-pair patterns of all its delays in one numpy pass
over their overlaps, then composes each row on Python floats
(`_gate_pmfs`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import fock
from .analytics import (
    _P00, _P11, _poisson_pair_pmf, amplitude_overlap, splitter_dip_factor,
)
from .model import ExperimentConfig, validate

# Fock input of each oracle evaluation (mode order as in `fock`): every
# arrangement but "cross", plus the two parts of "cross", "twin" (idler in
# the matched temporal mode) and "split" (idler in the orthogonal one).
_FOCK_INPUT = {"same_s": (1, 1, 0, 0), "same_i": (0, 0, 1, 1),
               "single_s": (1, 0, 0, 0), "single_i": (0, 0, 1, 0),
               "twin": (1, 0, 1, 0), "split": (1, 0, 0, 1)}


def _vec(pattern: dict[tuple[bool, bool], float]) -> np.ndarray:
    return np.array(
        [
            pattern[(False, False)],
            pattern[(False, True)],
            pattern[(True, False)],
            pattern[(True, True)],
        ]
    )


@lru_cache(maxsize=1024)
def _pair_click_dist(
    kind: str, t_eff: float, r_eff: float
) -> tuple[float, float, float, float]:
    """Click-pattern distribution of one `_FOCK_INPUT` through a splitter.

    kinds: "same_s" / "same_i" (both photons in one arm after a crosstalk
    event), "single_s" / "single_i" (lone survivor), and the two parts of
    a "cross" pair (one photon per arm), "twin" and "split". A cross pair
    of overlap kappa is the mixture kappa^2 twin + (1 - kappa^2) split:
    the splitter keeps temporal labels, so the parts reach disjoint output
    occupations and never interfere. All probabilities come from the exact
    oracle, evaluated once per (kind, splitter).
    """
    u = fock.splitter_unitary(t_eff, r_eff)
    return tuple(_vec(fock.click_pattern_probs(_FOCK_INPUT[kind], u)))


def _pair_arrangements(
    leak: float, u_s: float, u_i: float
) -> Iterator[tuple[float, str]]:
    """One pair's crosstalk routing x per-photon survival.

    Each photon swaps arms with probability `leak`, then survives with the
    probability of the arm it landed in (u_s for arm s, u_i for arm i).
    Yields (weight, arrangement) over the nonzero branches; arrangements
    are "cross", "same_s", "same_i", "single_s", "single_i" and "none"
    (nothing survived).
    """
    u_by_port = {"s": u_s, "i": u_i}
    for leak_s, leak_i in ((0, 0), (0, 1), (1, 0), (1, 1)):
        w = (leak if leak_s else 1.0 - leak) * (leak if leak_i else 1.0 - leak)
        port_s = "i" if leak_s else "s"  # arm the signal photon lands in
        port_i = "s" if leak_i else "i"
        u_sig, u_idl = u_by_port[port_s], u_by_port[port_i]
        for surv_s in (0, 1):
            for surv_i in (0, 1):
                ws = w * (u_sig if surv_s else 1.0 - u_sig) * (
                    u_idl if surv_i else 1.0 - u_idl
                )
                if ws == 0.0:
                    continue
                if surv_s and surv_i:
                    kind = "cross" if port_s != port_i else f"same_{port_s}"
                elif surv_s or surv_i:
                    kind = f"single_{port_s if surv_s else port_i}"
                else:
                    kind = "none"
                yield ws, kind


def _pair_pattern_probs(config: ExperimentConfig, kappa: float | list[float]) -> np.ndarray:
    """Marginal click-pattern distribution of a single generated pair.

    Routing and survival (channel plus coupler) from `_pair_arrangements`,
    then the exact interference of whatever survived; a "cross" pair is
    the kappa^2 mixture of its twin and split parts. An array of kappa
    gives one row per overlap, each as a lone kappa would.
    """
    surv = config.splitter.survival
    t_eff, r_eff = config.splitter.effective_t, config.splitter.effective_r

    def dist(kind: str) -> np.ndarray:
        return np.array(_pair_click_dist(kind, t_eff, r_eff))

    kappa = np.asarray(kappa, dtype=float)
    twin = (kappa * kappa)[..., None]
    cross = twin * dist("twin") + (1.0 - twin) * dist("split")
    pi = np.zeros(kappa.shape + (4,))
    for weight, kind in _pair_arrangements(
        1.0 / config.source.extinction_ratio,
        config.channel_s.transmittance * surv,
        config.channel_i.transmittance * surv,
    ):
        if kind == "none":
            pi[..., _P00] += weight
        else:
            pi += weight * (cross if kind == "cross" else dist(kind))
    return pi


def _gate_pmfs(config: ExperimentConfig, kappas: list[float]) -> np.ndarray:
    """Exact per-gate click-pattern pmfs of `config`, one float64 row per overlap.

    A dip scan builds all its points here in one pass, and only the overlap
    kappa changes from row to row. Each row of per-pair patterns reduces to
    what one pair clicks, A, B and both, and `_poisson_pair_pmf` composes
    it row by row. The rows stream into the array: a list of 401 float
    tuples would lift a sweep's peak RSS by about 0.08 MB. The config is
    not checked here: every caller (`run_dip_scan`,
    `gate_pattern_distribution`, `exact_visibility`) validates it first.
    """
    p = config.source.mean_pairs_per_pulse
    darks = config.detector_a.dark_prob_per_gate, config.detector_b.dark_prob_per_gate
    return np.fromiter(
        (_poisson_pair_pmf(p, p10 + p11, p01 + p11, p11, *darks)
         for _, p01, p10, p11 in _pair_pattern_probs(config, kappas).tolist()),
        dtype=(float, 4), count=len(kappas))


def gate_pattern_distribution(
    config: ExperimentConfig, kappa: float | None = None
) -> np.ndarray:
    """Exact per-gate click-pattern pmf (no click, B only, A only, both).

    This is the distribution the per-gate sampler draws from implicitly
    and the multinomial sampler draws from directly; unit tests hold the
    empirical gate simulation to it. A given `kappa` overrides the overlap
    implied by the configured delay and must lie in [0, 1]. It is the
    one-row case of `_gate_pmfs`.
    """
    validate(config)
    if kappa is None:
        kappa = amplitude_overlap(config.delay_ps, config.wavepacket.sigma_ps)
    elif not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must be in [0, 1] (got {kappa!r})")
    return _gate_pmfs(config, [kappa])[0]


def exact_visibility(config: ExperimentConfig) -> float:
    """Dip visibility the exact model tends to, whatever the gate count:
    (1 - P11(kappa=1) / P11(kappa=0)) / `splitter_dip_factor`, in the
    normalization `fit_dip` reports; NaN when no gate ever clicks both."""
    validate(config)
    p11_twin, p11_split = _gate_pmfs(config, [1.0, 0.0])[:, _P11]
    if p11_split == 0.0:
        return math.nan  # no coincidences, so no dip
    return float((1.0 - p11_twin / p11_split) / splitter_dip_factor(config.splitter))
