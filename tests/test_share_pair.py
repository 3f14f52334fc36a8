"""The two-user share step against the bisection it replaced, bit for bit.

``update_shares`` with two users bisects the first user's share on [0, 1]
and evaluates only the interior share marginal at each midpoint.
``reference_pair_shares`` is the earlier form, kept as the reference: each
step evaluated the guarded marginal of ``Utility.share_marginal``, with its
share >= 0 check, its zero-share division guard and its zero-share limit.
Every midpoint and its complement lie strictly inside (0, 1), so none of
those guards changes a value and both forms give the same bits.
"""

import numpy as np
import pytest

from utilsched import LinkBudget, LogUtility, update_shares
from utilsched.channel import LN2
from utilsched.utility import as_utility, per_share

from test_utility import ScaledLog

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference_share_marginal(u, energy, gain, link):
    snr = np.multiply(energy, gain) / link.effective_noise
    edge = np.where(snr > 0, np.inf, 0.0)

    def marginal(share):
        share = np.asarray(share, dtype=float)
        if (share < 0).any():
            raise ValueError("share must be >= 0")
        x = per_share(snr, share)
        full = np.log1p(x) / LN2
        rate = share * full
        out = u.derivative(rate) * (full - x / (LN2 * (1.0 + x)))
        out = np.where(share > 0, out, edge)
        return out if out.ndim else float(out)

    return marginal


def reference_bisect(rises, lo, hi, steps):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        up = rises(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def reference_pair_shares(gains, energies, utilities, link):
    gains = np.asarray(gains, dtype=float)
    energies = np.asarray(energies, dtype=float)
    n = gains.shape[0]
    u = as_utility(utilities, 2)
    active = (energies > 0) & (gains > 0)
    rho = np.empty((n, 2))
    marginal = reference_share_marginal(u, energies, gains, link)

    def rises(mid):
        rho[:, 0] = mid
        rho[:, 1] = 1.0 - mid
        m = marginal(rho)
        return m[:, 0] > m[:, 1]

    first = reference_bisect(rises, np.zeros(n), np.ones(n), 50)
    first = np.where(active[:, 0] & ~active[:, 1], 1.0, first)
    first = np.where(active[:, 1] & ~active[:, 0], 0.0, first)
    first = np.where(~active.any(axis=1), 0.5, first)
    return np.column_stack([first, 1.0 - first])


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


concavities = log_uniform(1e-3, 1e3)
utilities = st.one_of(
    concavities.map(LogUtility),
    st.lists(concavities, min_size=2, max_size=2).map(lambda a: LogUtility(np.array(a))),
    st.tuples(concavities, log_uniform(0.5, 4.0)).map(lambda a: ScaledLog(*a)),
    st.tuples(concavities, concavities).map(lambda a: [LogUtility(a[0]), ScaledLog(a[1])]),
)


@st.composite
def pair_grids(draw):
    """(n, 2) energies and gains; some rows have a zero for one user or both."""
    n = draw(st.integers(1, 12))
    cell = st.one_of(st.just(0.0), log_uniform(1e-4, 1e4), log_uniform(1e-4, 1e4))
    rows = st.lists(st.lists(cell, min_size=2, max_size=2), min_size=n, max_size=n)
    return np.array(draw(rows)), np.array(draw(rows))


@settings(max_examples=100)
@given(grids=pair_grids(), utility=utilities, gap_db=st.sampled_from([0.0, 3.0, 8.2]))
def test_pair_step_matches_the_guarded_bisection_bit_for_bit(grids, utility, gap_db):
    energies, gains = grids
    link = LinkBudget(snr_gap_db=gap_db)
    shares = update_shares(gains, energies, utility, link)
    assert shares.tobytes() == reference_pair_shares(gains, energies, utility, link).tobytes()
    for row in range(len(gains)):
        alone = update_shares(gains[row:row + 1], energies[row:row + 1], utility, link)
        assert alone.tobytes() == shares[row:row + 1].tobytes(), row
