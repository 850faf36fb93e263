"""Seeded-ensemble checks of the dip fit: bias, pull and coverage against
the exact asymptote. Seeds and ensemble sizes are fixed here and never
re-picked; every bound on a summary is 3 of its standard errors, and the
sweep rows bound each seed's pull by 4."""

import dataclasses

import numpy as np
import pytest

from ensemble import coverage, ensemble, mean, spread
from hombench import default_config
from hombench.exact import exact_visibility

DELAYS_21 = [float(d) for d in np.linspace(-6.0, 6.0, 21)]


def test_model_calibrated_scan_is_unbiased_with_honest_errors():
    # The efficiency calibrated on the exact model puts the asymptote at
    # V* = 0.800; at 2.6e8 gates per point every one of 200 multinomial
    # scans fits (mean V 0.8019, spread 0.0195, mean reported error 0.0200).
    base = default_config()
    eta = 7.1265e-3
    cfg = dataclasses.replace(
        base,
        channel_s=dataclasses.replace(base.channel_s, transmittance=eta),
        channel_i=dataclasses.replace(base.channel_i, transmittance=eta),
    )
    truth = exact_visibility(cfg)
    assert abs(truth - 0.800) < 1e-3
    ens = ensemble(cfg, DELAYS_21, 26 * 10**7, list(range(200)))
    assert ens.failures == {}
    assert len(ens.seeds) == 200

    v, v_se = mean(ens.visibility)
    assert abs(v - truth) < 3.0 * v_se

    # The reported errors match the seed-to-seed spread.
    s, s_se = spread(ens.visibility)
    err, err_se = mean(ens.visibility_error)
    assert abs(s - err) < 3.0 * np.hypot(s_se, err_se)

    pulls = ens.pulls(truth)
    pull, pull_se = mean(pulls)
    assert abs(pull) < 3.0 * pull_se
    width, width_se = spread(pulls)
    assert abs(width - 1.0) < 3.0 * width_se
    share, share_se, nominal = coverage(pulls)
    assert abs(share - nominal) < 3.0 * share_se


@pytest.mark.parametrize("pairs", [0.005, 0.01])
def test_sweep_fine_rows_fit_at_every_seed(pairs):
    # The benchmark's fine sweep grid (401 delays on [-12, 12], 1e9 gates)
    # at its two faintest rows. A fit started from the largest and smallest
    # counts rejected 40 and 18 of these 40 scans; the profiled width fits
    # all of them. The 1/count weights still bias V upwards (mean pull
    # about +0.4 and +0.5), so only gross pulls are bounded here.
    cfg = dataclasses.replace(
        default_config(),
        source=dataclasses.replace(default_config().source, mean_pairs_per_pulse=pairs),
    )
    delays = [float(d) for d in np.linspace(-12.0, 12.0, 401)]
    ens = ensemble(cfg, delays, 10**9, list(range(40)))
    assert ens.failures == {}
    assert np.all(np.abs(ens.pulls(exact_visibility(cfg))) <= 4.0)
