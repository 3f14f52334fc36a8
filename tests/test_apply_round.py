"""``apply_policy`` against a copy of its earlier round, bit for bit.

The copy below is the round as it was: it recomputes the zero-energy
marginal on every round, gathers every grid through ``np.broadcast_to``,
and sharpens the two-user replay's guess with the full
``_log_share_marginal``.  The round in ``powercontrol`` computes that
marginal once per batch, indexes the (frames, N) grids directly and
sharpens the guess more cheaply; none of this may move a bit.
"""

import numpy as np
import pytest

from utilsched import LinkBudget, LogUtility, PowerPolicy, apply_policy, update_shares
from utilsched.channel import LN2
from utilsched.powercontrol import (
    APPLY_TOL, ENERGY_NEWTON, EPS, INNER_BISECT, PAIR_NEWTON, REPLAY_CELLS, SHARE_BISECT, _bisect,
    _log_share_marginal,
)
from utilsched.utility import as_utility, interior_share_marginal

from test_utility import ScaledLog

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

LINK = LinkBudget(snr_gap_db=3.0)


def reference_waterfill(u, gains, shares, link, multiplier):
    n, nu = gains.shape
    zeros = np.zeros((n, nu))
    m_zero = u.marginal_energy(shares, zeros, gains, link)
    active = (shares > 0) & (gains > 0) & (m_zero > multiplier)
    if not active.any():
        return zeros

    def at(grid):
        return np.broadcast_to(grid, active.shape)[active]

    snr, share = at(gains) / link.effective_noise, at(shares)
    c = np.log(at(m_zero)) - np.log(at(multiplier))
    if isinstance(u, LogUtility):
        r = share / (LN2 * at(u.concavity))
        t = np.maximum(c / (1.0 + r), c - np.log1p(r * c))
        done = np.zeros(t.size, dtype=bool)
        for _ in range(ENERGY_NEWTON):
            rt = r * t
            step = (c - t - np.log1p(rt)) / (1.0 + r / (1.0 + rt))
            t = np.where(done, t, t + step)
            done |= step <= 4 * EPS * t
            if done.all():
                break
        assert done.all()
    else:
        rate = np.zeros(active.shape)

        def slope(t):
            rate[active] = share * t / LN2
            return u.derivative(rate)[active]

        slope_zero = slope(0.0)
        t = _bisect(lambda t: t - np.log(slope(t) / slope_zero) < c, np.zeros(c.size), c, INNER_BISECT)
    with np.errstate(over="ignore"):
        energies = np.expm1(t) * share / snr
        over = np.isinf(energies)
        energies[over] = np.exp(t[over] + np.log(share[over] / snr[over]))
    assert np.isfinite(energies).all()
    out = np.zeros(active.shape)
    out[active] = energies
    return out


def reference_replay(u, snr, active, guess):
    n = snr.shape[0]
    depth = min(SHARE_BISECT, REPLAY_CELLS // max(n, 1))
    if not depth:
        return 0, np.zeros(n), np.ones(n)
    g = np.where((guess > 0) & (guess < 1), guess, 0.5)
    if isinstance(u, LogUtility):
        for _ in range(PAIR_NEWTON):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                lm, el, _ = _log_share_marginal(u.concavity, snr, np.column_stack([g, 1.0 - g]))
                trial = g - (lm[:, 0] - lm[:, 1]) / (el[:, 0] / g + el[:, 1] / (1.0 - g))
            g = np.where((trial > 0) & (trial < 1), trial, g)
    scale = 2.0 ** np.arange(depth + 1)
    k = np.ceil(g[:, None] * scale) - 1.0
    mid = (2.0 * k[:, :-1] + 1.0) / (2.0 * scale[:-1])
    rho = np.stack([mid, 1.0 - mid], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        m = interior_share_marginal(u, snr[:, None, :] / rho, rho)
    agree = ((m[..., 0] > m[..., 1]) == (mid < g[:, None])) | ~active.all(axis=1)[:, None]
    done = int(np.argmin(agree.all(axis=0))) if not agree.all() else depth
    return done, k[:, done] / scale[done], (k[:, done] + 1.0) / scale[done]


def reference_shares(u, gains, energies, link, guess):
    n, nu = gains.shape
    if nu != 2:
        # the N >= 3 share step takes no guess, and N = 1 is a whole frame
        return update_shares(gains, energies, u, link)
    active = (energies > 0) & (gains > 0)
    snr = np.multiply(energies, gains) / link.effective_noise
    rho = np.empty((n, 2))

    def rises(mid):
        rho[:, 0] = mid
        rho[:, 1] = 1.0 - mid
        m = interior_share_marginal(u, snr / rho, rho)
        return m[:, 0] > m[:, 1]

    done, lo, hi = reference_replay(u, snr, active, guess[:, 0])
    first = _bisect(rises, lo, hi, SHARE_BISECT - done)
    first = np.where(active[:, 0] & ~active[:, 1], 1.0, first)
    first = np.where(active[:, 1] & ~active[:, 0], 0.0, first)
    first = np.where(~active.any(axis=1), 0.5, first)
    return np.column_stack([first, 1.0 - first])


def reference_apply(policy, g, utilities, link, max_rounds):
    n, nu = g.shape
    u = as_utility(utilities, nu)
    lam = policy.multipliers[None, :]
    shares = np.full((n, nu), 1.0 / nu)
    energies = reference_waterfill(u, g, shares, link, lam)
    live = np.arange(n)
    for _ in range(max_rounds):
        if not live.size:
            break
        gains, old_shares, old_energies = g[live], shares[live], energies[live]
        new_shares = reference_shares(u, gains, old_energies, link, old_shares)
        new_energies = reference_waterfill(u, gains, new_shares, link, lam)
        drift = np.abs(new_shares - old_shares).max(axis=1) + np.abs(new_energies - old_energies).max(axis=1)
        shares[live], energies[live] = new_shares, new_energies
        live = live[~(drift <= APPLY_TOL)]
    return shares, energies


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


@st.composite
def apply_cases(draw, nu, kind):
    n = draw(st.integers(1, 6))
    concavity = [draw(log_uniform(0.05, 10.0)) for _ in range(nu)]
    if kind == "scalar":
        utility = LogUtility(concavity[0])
    elif kind == "per-user":
        utility = LogUtility(np.array(concavity))
    else:
        utility = [ScaledLog(a) if j % 2 == 0 else LogUtility(a) for j, a in enumerate(concavity)]
    scale = draw(log_uniform(1e-6, 1e2))
    gains = scale * np.array([[draw(log_uniform(1e-3, 1e1)) for _ in range(nu)] for _ in range(n)])
    gains[np.array(draw(st.lists(st.booleans(), min_size=n * nu, max_size=n * nu))).reshape(n, nu)] = 0.0
    pooled = draw(st.booleans())
    multipliers = np.array([draw(log_uniform(1e-3, 1e1)) for _ in range(1 if pooled else nu)])
    policy = PowerPolicy(gains=gains[:1], shares=np.full((1, nu), 1.0 / nu), energies=np.ones((1, nu)),
                         budgets=np.ones(1 if pooled else nu), multipliers=multipliers, pooled=pooled)
    max_rounds = draw(st.integers(1, 1 if kind == "generic" and nu >= 3 else 12))
    return policy, gains, utility, max_rounds, draw(st.integers(0, n - 1))


def assert_matches_the_earlier_round(case):
    policy, gains, utility, max_rounds, row = case
    shares, energies = apply_policy(policy, gains, utility, LINK, max_rounds=max_rounds)
    ref_shares, ref_energies = reference_apply(policy, gains, utility, LINK, max_rounds)
    assert np.array_equal(shares, ref_shares) and np.array_equal(energies, ref_energies)
    one_shares, one_energies = apply_policy(policy, gains[row:row + 1], utility, LINK, max_rounds=max_rounds)
    assert np.array_equal(one_shares, shares[row:row + 1]) and np.array_equal(one_energies, energies[row:row + 1])


@pytest.mark.parametrize("nu, kind", [
    *((nu, kind) for nu in (1, 2, 3, 4) for kind in ("scalar", "per-user")), (1, "generic"), (2, "generic"),
])
@settings(max_examples=20)
@given(data=st.data())
def test_apply_policy_matches_the_earlier_round(nu, kind, data):
    assert_matches_the_earlier_round(data.draw(apply_cases(nu, kind)))


@pytest.mark.parametrize("nu", [3, 4])
@settings(max_examples=3)
@given(data=st.data())
def test_generic_apply_policy_matches_the_earlier_round(nu, data):
    # its N >= 3 share step nests two bisections, some 0.1 s a call
    assert_matches_the_earlier_round(data.draw(apply_cases(nu, "generic")))
