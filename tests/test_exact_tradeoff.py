"""Monte Carlo rates against the exact ends of the rate-concavity tradeoff.

N=8 symmetric Rayleigh users at 10 dB with an 8.2 dB gap, 10^5 frames.
As the concavity A -> 0, time sharing gives each user 1/N of every frame;
as A -> infinity, the best user takes the frame.  ``oracles.ts_endpoints``
integrates both ends exactly.  Frames are independent, so a user's mean
rate has standard error rate_std / sqrt(frames).
"""

import numpy as np
import pytest

from oracles import ts_endpoints
from utilsched import ExperimentConfig, run_experiment

N_USERS, MEAN_SNR_DB, SNR_GAP_DB = 8, 10.0, 8.2
(LOW_MEAN, LOW_STD), (HIGH_MEAN, HIGH_STD) = ts_endpoints(N_USERS, MEAN_SNR_DB, SNR_GAP_DB)


def run(policy, concavity):
    return run_experiment(ExperimentConfig(
        users=N_USERS, mean_snr_db=MEAN_SNR_DB, snr_gap_db=SNR_GAP_DB, policy=policy,
        concavity=concavity, frames=100_000, seed=0,
    ))


def test_endpoints():
    # 150 Gauss-Laguerre nodes; adaptive quadrature agrees to 1e-12
    ends = [LOW_MEAN, LOW_STD, HIGH_MEAN, HIGH_STD]
    assert ends == pytest.approx([0.14073, 0.09216, 0.28329, 0.77007], abs=5e-6)


@pytest.mark.parametrize("policy, concavity", [("ts", 1e4), ("gs", 10.0)])
def test_least_concave_runs_sit_on_the_max_rate_end(policy, concavity):
    stats = run(policy, concavity)
    assert np.all(np.abs(stats.mean_rate - HIGH_MEAN) <= 4 * stats.rate_std / np.sqrt(stats.n_frames))


@pytest.mark.parametrize("concavity", [0.1, 10.0])
def test_ts_mean_rate_lies_between_the_ends(concavity):
    # the users' average: one user's standard error, about 0.0022 at A = 10,
    # is as wide as that point's distance below the max-rate end
    mean = run("ts", concavity).mean_rate.mean()
    assert LOW_MEAN < mean < HIGH_MEAN
