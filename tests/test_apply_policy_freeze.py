"""``apply_policy`` freezes converged frames without changing a bit.

A frame leaves the round loop once a round reproduces its shares and
energies exactly.  Both block updates act on each frame alone, so a frozen
frame would only have reproduced itself in every later round.  The sha256
digests in ``data/apply_policy_bits.json`` were recorded by a round loop
that re-solved every frame in every round, at the default ``tol`` and
``max_rounds=300``, and must still match.  The batches mix frames that
freeze after 1 or 2 rounds, after tens of rounds and after 100 to 300
rounds; the N=2 batches also hold a frame still moving at the cap.

To record the digests again, run ``python tests/test_apply_policy_freeze.py``
with ``src`` on ``PYTHONPATH``.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from utilsched import (
    ExperimentConfig, LogUtility, apply_policy, sample_gains, solve_downlink, solve_uplink,
)
from utilsched.simulate import TRAINING_FRAME_OFFSET

DATA = Path(__file__).parent / "data" / "apply_policy_bits.json"
# users -> (training samples, fresh frames).  At 0 dB and seed 0, N=2 frames
# 58, 116, 123 and 162 take 100-300 rounds, and frame 123 (downlink) or 19,
# 116, 123 and 162 (uplink) are still moving at the cap; the N=3 batches
# stop on ``tol`` after 32 to 35 rounds with three or four frames still moving
SETUPS = {
    2: (60, list(range(24)) + [58, 116, 123, 162]),
    3: (40, [0, 1, 3, 4, 7, 11]),
}


def _digest(value: np.ndarray) -> str:
    data = repr(value.shape).encode() + np.ascontiguousarray(value, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


@functools.cache
def _setup(n_users, utility_of=LogUtility):
    n_samples, frames = SETUPS[n_users]
    config = ExperimentConfig(n_users=n_users, mean_snr_db=0.0, policy="jtpc")
    link, model = config.link(), config.channel()
    utility = utility_of(config.per_user("concavity"))

    def draw(indices):
        return np.stack([sample_gains(model, config.seed, t) for t in indices])

    training = draw(range(TRAINING_FRAME_OFFSET, TRAINING_FRAME_OFFSET + n_samples))
    policies = {
        "uplink": solve_uplink(training, utility, config.per_user("power_budget"), link)[0],
        "downlink": solve_downlink(training, utility, float(n_users), link)[0],
    }
    return policies, draw(frames), utility, link


def compute_results(utility_of=LogUtility) -> dict:
    """Every case's arrays, with ``utility_of(concavities)`` as the utility."""
    out = {}
    for n_users in sorted(SETUPS):
        policies, gains, utility, link = _setup(n_users, utility_of)
        for name, policy in policies.items():
            shares, energies = apply_policy(policy, gains, utility, link)
            out[f"{name}_n{n_users}"] = {"shares": shares, "energies": energies}
    return out


def compute_digests() -> dict:
    return {case: {k: _digest(v) for k, v in arrays.items()} for case, arrays in compute_results().items()}


EXPECTED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_bits_match_recorded(digests, case):
    assert digests[case] == EXPECTED[case]


def test_every_case_recorded(digests):
    assert sorted(digests) == sorted(EXPECTED)


@pytest.mark.parametrize("name", ["uplink", "downlink"])
@pytest.mark.parametrize("seed", range(8))
def test_subset_equals_rows_of_full_batch(name, seed):
    # tol=0 stops only once every frame is frozen or at the cap; a positive
    # tol couples the frames through the batch's largest drift
    policies, gains, utility, link = _setup(2)
    rng = np.random.default_rng(seed)
    rows = rng.permutation(len(gains))[: rng.integers(1, 9)]
    max_rounds = int(rng.integers(1, 26))
    full = apply_policy(policies[name], gains, utility, link, tol=0.0, max_rounds=max_rounds)
    part = apply_policy(policies[name], gains[rows], utility, link, tol=0.0, max_rounds=max_rounds)
    for whole, subset in zip(full, part):
        assert np.array_equal(whole[rows], subset)


def test_empty_batch():
    policies, gains, utility, link = _setup(2)
    shares, energies = apply_policy(policies["uplink"], gains[:0], utility, link)
    assert shares.shape == energies.shape == (0, 2)


if __name__ == "__main__":
    DATA.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
