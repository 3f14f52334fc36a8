"""The log family's Newton solves against the generic bisection solvers.

``powercontrol`` solves a ``LogUtility``'s energies, budget water levels
and N >= 3 share steps by Newton's method: an N >= 3 share step solves each
sample's KKT system, its shares and the log of its simplex multiplier,
as one Newton system.  Any other utility bisects: the log-SNR
t = ln(1 + energy·snr/share) on [0, ln(m_zero/multiplier)] for energies,
the log of each water level for budgets, and for share steps the simplex
multiplier with, for each candidate, every share on [0, 1].
``ScaledLog(a, scale=1)`` is the same function as ``LogUtility(a)``, with
the same float operations, so it reaches the bisection path with the log
family's numbers.

The bisection stops at a bracket 2**-46 of its starting width, so the
results agree to about 1e-14 in absolute terms, not relatively: a share or
energy near 0 keeps only the bisection's absolute resolution.  The stated
tolerances leave about 4x room over the largest difference seen (2.7e-13
in energy, 2.1e-14 in share, 1.2e-14 relative in multiplier, 3.4e-16
relative in objective).

The share step's property test checks the KKT conditions against the
marginal in 100-digit decimals, since in floats its difference form
cancels at small snr/share.
"""

import decimal
from decimal import Decimal

import numpy as np
import pytest
from numpy.testing import assert_allclose

import test_apply_policy_freeze
import test_powercontrol_bits
from test_utility import ScaledLog

VALUE_RTOL = 1e-12


def generic_log(concavity):
    """The log family as a generic utility, solved by bisection."""
    return ScaledLog(np.asarray(concavity, dtype=float), scale=1.0)


@pytest.mark.parametrize("module", [test_powercontrol_bits, test_apply_policy_freeze])
def test_digest_cases_match_generic_bisection(module):
    newton = module.compute_results()
    bisection = module.compute_results(generic_log)
    assert sorted(newton) == sorted(bisection)
    for case, arrays in newton.items():
        for name, value in arrays.items():
            other = bisection[case][name]
            if name in ("multipliers", "objectives"):
                # the same number of Gauss-Seidel iterations, then the same values
                assert len(value) == len(other), (case, name)
                assert_allclose(value, other, rtol=VALUE_RTOL, atol=0, err_msg=f"{case} {name}")
            else:
                assert_allclose(value, other, **ARRAY_TOL, err_msg=f"{case} {name}")


# ---------------------------------------------------------------------------
# property tests; hypothesis ships with the ``test`` extra only

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from utilsched import LinkBudget, LogUtility, update_energies, update_shares  # noqa: E402
from utilsched.powercontrol import _waterfill_energies, update_energies_pooled  # noqa: E402

from test_share_pair import ARRAY_TOL, reference_share_marginal  # noqa: E402

LINK = LinkBudget(snr_gap_db=3.0)


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def grids(draw, n_users, values):
    """An (n, n_users) grid of ``values``, with 0 in some entries."""
    n = draw(st.integers(1, 6))
    cell = st.one_of(st.just(0.0), values, values, values)
    return np.array(draw(st.lists(st.lists(cell, min_size=n_users, max_size=n_users),
                                  min_size=n, max_size=n)))


@st.composite
def energy_problems(draw):
    nu = draw(st.integers(1, 4))
    gains = draw(grids(nu, log_uniform(1e-3, 1e3)))
    shares = draw(st.lists(st.lists(st.one_of(st.just(0.0), log_uniform(1e-6, 1.0)),
                                    min_size=nu, max_size=nu),
                           min_size=len(gains), max_size=len(gains)).map(np.array))
    scalar = draw(st.booleans())
    concavity = draw(log_uniform(1e-3, 1e3)) if scalar else np.array(
        draw(st.lists(log_uniform(1e-3, 1e3), min_size=nu, max_size=nu)))
    multiplier = np.array(draw(st.lists(log_uniform(1e-12, 1e4), min_size=nu, max_size=nu)))
    return gains, shares, concavity, multiplier[None, :]


@pytest.mark.parametrize("family, rtol", [
    (LogUtility, 1e-12),
    # the bisection leaves t within c·2**-47 of its root, where the log of the
    # marginal has slope at most 1 + (1 + r)/c (r = share/(A ln2) <= 1443,
    # c = ln(m_zero/multiplier) <= 42 here): at most 1.1e-11
    (lambda a: ScaledLog(a, scale=2.0), 2e-11),
], ids=["log", "generic"])
@given(problem=energy_problems())
def test_energies_meet_the_energy_condition(family, rtol, problem):
    gains, shares, concavity, lam = problem
    u = family(concavity)
    m_zero = u.marginal_energy(shares, np.zeros_like(gains), gains, LINK)
    energies = _waterfill_energies(u, gains, shares, LINK, lam, m_zero)
    active = (shares > 0) & (gains > 0) & (m_zero > lam)
    assert np.all(energies[~active] == 0.0) and np.all(energies[active] >= 0.0)
    marginals = u.marginal_energy(shares, energies, gains, LINK)
    target = np.broadcast_to(lam, gains.shape)
    assert np.all(np.abs(marginals[active] - target[active]) <= rtol * target[active])


@settings(max_examples=25)
@given(grids(3, log_uniform(1e-3, 1e2)), grids(3, log_uniform(1e-2, 1e2)),
       st.lists(log_uniform(1e-2, 1e2), min_size=3, max_size=3))
def test_n3_share_step_meets_kkt_and_matches_bisection(energies, gains, concavity):
    # the Newton step for LogUtility, the nested bisection for ScaledLog
    n = min(len(energies), len(gains))
    energies, gains, concavity = energies[:n], gains[:n], np.array(concavity)
    u = LogUtility(concavity)
    shares = update_shares(gains, energies, u, LINK)
    bisected = update_shares(gains, energies, generic_log(concavity), LINK)
    assert np.all(shares >= 0) and np.all(np.abs(shares.sum(axis=1) - 1.0) <= 1e-12)
    assert_allclose(shares, bisected, rtol=0, atol=1e-9)
    marginals = reference_share_marginal(u, energies, gains, LINK)(shares)
    for row, share, can in zip(marginals, shares, (energies > 0) & (gains > 0)):
        if not can.any():
            continue  # nobody can transmit: uniform shares
        assert np.all(share[~can] == 0.0)
        inner = row[(share > 1e-6) & (share < 1.0)]
        if inner.size >= 2:
            assert inner.max() - inner.min() <= 1e-9 * inner.max()


def exact_share_marginals(concavity, snr, shares):
    """The log family's share marginal U'(s·full)·(full - x/(ln2 (1+x))),
    with x = snr/s and full = log2(1+x), in 100-digit decimals: the
    difference cancels about 2·log10(1/x) digits, so floats lose it at small
    x, and these keep more than 30 digits down to x = 1e-30."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        ln2 = Decimal(2).ln()
        out = []
        for a, g, s in zip(concavity, snr, shares):
            x = Decimal(g) / Decimal(s)
            full = (1 + x).ln() / ln2
            out.append(float((full - x / ((1 + x) * ln2)) / (Decimal(a) + Decimal(s) * full)))
    return np.array(out)


@st.composite
def share_problems(draw):
    """N = 3 to 8 rows of energies and gains, with zero entries and entries
    whose SNR is near zero (down to about 1e-21), a scalar or per-user
    ``LogUtility`` of concavity 1e-3 to 1e3, and an SNR gap in dB."""
    nu, n = draw(st.integers(3, 8)), draw(st.integers(1, 5))
    energy = st.one_of(st.just(0.0), log_uniform(1e-21, 1e-6), log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e3))
    gain = st.one_of(st.just(0.0), log_uniform(1e-2, 1e2), log_uniform(1e-2, 1e2))

    def grid(cell):
        return np.array(draw(st.lists(st.lists(cell, min_size=nu, max_size=nu), min_size=n, max_size=n)))

    energies, gains = grid(energy), grid(gain)
    concavity = draw(st.one_of(log_uniform(1e-3, 1e3),
                               st.lists(log_uniform(1e-3, 1e3), min_size=nu, max_size=nu).map(np.array)))
    return energies, gains, LogUtility(concavity), draw(st.sampled_from([0.0, 3.0, 8.2]))


# one row of the benchmark's N=3, 0 dB downlink training (seed 0, row 58) in
# Gauss-Seidel iterations 8-10: the second user's SNR falls from 1e-17 to 4e-21
ROW_58 = (
    np.array([[1.5458256434290967, 4.894391185550031e-16, 1.1049438496805055],
              [1.545876617117415, 7.914375069012901e-18, 1.1050080869127783],
              [1.5459094511614857, 1.2889604474344008e-19, 1.1050486311197725]]),
    np.tile([1.6729785547244984, 0.1963006681990851, 0.556954486573034], (3, 1)),
    LogUtility(0.1),
    8.2,
)


@settings(max_examples=60)
@example(problem=ROW_58)
@given(problem=share_problems())
def test_share_step_meets_simplex_and_kkt(problem):
    energies, gains, u, gap_db = problem
    link = LinkBudget(snr_gap_db=gap_db)
    shares = update_shares(gains, energies, u, link)
    can = (energies > 0) & (gains > 0)
    live = can.any(axis=1)
    assert np.all(np.abs(shares[live].sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(shares[live][~can[live]] == 0.0) and np.all(shares[~live] == 1.0 / gains.shape[1])
    snr = energies * gains / link.effective_noise
    concavity = np.broadcast_to(u.concavity, snr.shape)
    for r in np.flatnonzero(can.sum(axis=1) >= 2):
        on, out = can[r] & (shares[r] > 0), can[r] & (shares[r] == 0)
        m = exact_share_marginals(concavity[r, on], snr[r, on], shares[r, on])
        assert m.max() - m.min() <= 1e-9 * m.max(), m
        # a share of 0 where one can transmit: its optimum lies below the
        # least share at which snr/share is a float
        least = np.maximum(snr[r, out] / np.finfo(float).max, np.finfo(float).smallest_subnormal)
        assert np.all(exact_share_marginals(concavity[r, out], snr[r, out], least) <= (1 + 1e-9) * m.max())
    for r in range(len(gains)):
        alone = update_shares(gains[r:r + 1], energies[r:r + 1], u, link)
        assert alone.tobytes() == shares[r:r + 1].tobytes(), r


@st.composite
def budget_problems(draw):
    nu = draw(st.integers(1, 3))
    gains = draw(grids(nu, log_uniform(1e-2, 1e2)))
    assume(np.all(gains.max(axis=0) > 0))  # every user can spend
    shares = draw(st.lists(st.lists(log_uniform(1e-3, 1.0), min_size=nu, max_size=nu),
                           min_size=len(gains), max_size=len(gains)).map(np.array))
    return gains, shares, draw(log_uniform(1e-2, 1e2)), draw(log_uniform(1e-6, 1e80))


@pytest.mark.parametrize("pooled", [False, True], ids=["uplink", "pooled"])
@pytest.mark.parametrize("family", [LogUtility, lambda a: ScaledLog(a, scale=2.0)], ids=["log", "generic"])
@settings(max_examples=40)
@given(problem=budget_problems())
def test_water_levels_meet_budgets(family, pooled, problem):
    # Newton steps in the log of the level for LogUtility, bisection for ScaledLog
    gains, shares, concavity, budget = problem
    u = family(concavity)
    if pooled:
        energies, levels = update_energies_pooled(gains, shares, u, budget, LINK)
        spent = energies.sum(axis=1).mean(keepdims=True)
    else:
        energies, levels = update_energies(gains, shares, u, budget, LINK)
        spent = energies.mean(axis=0)
    assert_allclose(spent, budget, rtol=1e-12)
    assert np.all(energies >= 0.0) and np.all((levels > 0) & np.isfinite(levels))
