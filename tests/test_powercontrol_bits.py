"""Power-control results pinned bit for bit.

The sha256 of every solve's shares, energies, multipliers and objective
trace is stored in ``data/powercontrol_bits.json``.  The cases cover the
uplink and downlink solves at N=1 (no share solve), N=2 (the one-dimensional
share bisection) and N=3 (the general share step), and ``apply_policy`` on
fresh gains against the trained multipliers.  A refactor of the solvers must
reproduce every hash; ``test_log_newton.py`` compares the same cases with
the generic solvers.

To record the hashes again, run ``python tests/test_powercontrol_bits.py``
with ``src`` on ``PYTHONPATH``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from utilsched import LinkBudget, LogUtility, apply_policy, solve_downlink, solve_uplink

DATA = Path(__file__).parent / "data" / "powercontrol_bits.json"
LINK = LinkBudget(snr_gap_db=3.0)
# samples, budgets (per user or pooled) and concavities per user count
SETUPS = {
    1: (30, [1.3], [0.5]),
    2: (40, [0.7, 1.6], [0.1, 2.0]),
    3: (12, [0.4, 1.0, 2.5], [0.1, 1.0, 5.0]),
}


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        data = repr(value.shape).encode() + np.ascontiguousarray(value, dtype="<f8").tobytes()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def _gains(n_users, n_samples, seed):
    gains = np.random.default_rng(seed).exponential(2.0, size=(n_samples, n_users))
    if n_users == 3:
        gains[0, 1] = 0.0  # a user that cannot transmit in one sample
    return gains


def compute_results(utility_of=LogUtility) -> dict:
    """Every case's arrays, with ``utility_of(concavities)`` as the utility."""
    out = {}
    for n_users, (n_samples, budgets, concavity) in SETUPS.items():
        utility = utility_of(np.array(concavity))
        gains = _gains(n_users, n_samples, seed=n_users)
        fresh = _gains(n_users, 16, seed=100 + n_users)
        for name, solve, budget in (
            ("uplink", solve_uplink, budgets),
            ("downlink", solve_downlink, sum(budgets)),
        ):
            policy, trace = solve(gains, utility, budget, LINK, threshold=1e-3)
            key = f"{name}_n{n_users}"
            out[key] = {
                "shares": policy.shares,
                "energies": policy.energies,
                "multipliers": policy.multipliers,
                "objectives": trace.objectives,
            }
            shares, energies = apply_policy(policy, fresh, utility, LINK, max_rounds=2)
            out[f"apply_{key}"] = {"shares": shares, "energies": energies}
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


if __name__ == "__main__":
    DATA.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
