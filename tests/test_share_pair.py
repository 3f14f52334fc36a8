"""The share steps against the guarded forms they replaced.

``update_shares`` evaluates only the interior share marginal, on an SNR
computed once per call.  ``reference_pair_shares`` (two users) and
``reference_general_shares`` (three or more) are the earlier forms, kept as
references: they evaluate the guarded marginal ``reference_share_marginal``,
with its share >= 0 check, its zero-share division guard and its zero-share
limit; the general form also keeps the log family's nested solve as it was,
a bisected multiplier with an rtsafe inverse inside.  Every share they
evaluate the marginal at (1/N, 1 and bisection midpoints) lies in (0, 1],
so none of those guards changes a value: the two-user step and the
bisections of any other utility give the same bits.  At N >= 3 the log
family solves each row's KKT system by Newton steps instead, and matches
the nested solve within ``ARRAY_TOL``; a row with one
transmitter or none takes no solve and keeps its bits.
"""

from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from utilsched import LinkBudget, LogUtility, powercontrol, update_shares
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


EPS = np.finfo(float).eps
# how closely the log family's Newton share step matches the nested solve
ARRAY_TOL = {"rtol": 1e-12, "atol": 1e-12}


def reference_log_share_inverse(u, energies, gains, link):
    """The log family's rtsafe inverse of the share marginal, as it was."""
    snr = (energies * gains / link.effective_noise).ravel()
    concavity = np.broadcast_to(u.concavity, gains.shape).ravel()
    nu = gains.shape[1]
    rho = np.full(snr.size, 0.5)

    def invert(lam, solve):
        idx = np.flatnonzero(solve)
        s, a, target = rho[idx], concavity[idx], lam[idx // nu]
        s = np.where((s > 0) & (s < 1), s, 0.5)
        lo, hi = np.zeros(idx.size), np.ones(idx.size)
        live = np.arange(idx.size)
        for _ in range(100):
            if not live.size:
                break
            sl = s[live]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                x = snr[idx[live]] / sl
                q = x / (1.0 + x)
                full = np.log1p(x) / LN2
                slope = 1.0 / (a[live] + sl * full)
                h = full - q / LN2
                f = slope * h - target[live]
                trial = sl + f / (slope * (slope * h * h + q * q / (sl * LN2)))
            too_small = ~(f <= 0)
            lo[live] = np.where(too_small, sl, lo[live])
            hi[live] = np.where(too_small, hi[live], sl)
            inside = (trial > lo[live]) & (trial < hi[live])
            trial = np.where(inside, trial, 0.5 * (lo[live] + hi[live]))
            met = np.abs(f) <= 8 * EPS * (target[live] + slope * full)
            s[live] = np.where(met, sl, trial)
            settled = (np.abs(trial - sl) <= 4 * EPS * trial) | (hi[live] - lo[live] <= 4 * EPS)
            live = live[~(met | settled)]
        assert not live.size
        rho[idx] = s
        return rho.reshape(gains.shape).copy()

    return invert


def reference_general_shares(gains, energies, utilities, link):
    gains = np.asarray(gains, dtype=float)
    energies = np.asarray(energies, dtype=float)
    n, nu = gains.shape
    u = as_utility(utilities, nu)
    active = (energies > 0) & (gains > 0)
    live = active.any(axis=1)

    marginal = reference_share_marginal(u, energies, gains, link)
    ones = np.ones((n, nu))
    m_low = marginal(ones / nu)
    m_one = marginal(ones)

    hi = np.where(active, m_low, 0.0).max(axis=1)
    lo = np.where(active, m_one, np.inf).min(axis=1)
    lo = np.where(live, lo, 1.0)
    hi = np.maximum(hi, lo)

    if isinstance(u, LogUtility):
        invert = reference_log_share_inverse(u, energies, gains, link)
    else:
        def invert(lam, solve):
            return reference_bisect(
                lambda mid: marginal(mid) > lam[:, None],
                np.zeros((n, nu)), np.ones((n, nu)), 46,
            )

    def shares_at(lam):
        full = active & (m_one >= lam[:, None])
        rho = np.where(full, 1.0, invert(lam, active & ~full))
        return np.where(active, rho, 0.0)

    lam = reference_bisect(lambda lam: shares_at(lam).sum(axis=1) > 1.0, lo, hi, 50)
    shares = shares_at(lam)
    total = shares.sum(axis=1)
    shares[live] /= total[live, None]
    shares[~live] = 1.0 / nu
    return shares


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


concavities = log_uniform(1e-3, 1e3)
utilities = st.one_of(
    concavities.map(LogUtility),
    st.lists(concavities, min_size=2, max_size=2).map(lambda a: LogUtility(np.array(a))),
    st.tuples(concavities, log_uniform(0.5, 4.0)).map(lambda a: ScaledLog(*a)),
    st.tuples(concavities, concavities).map(lambda a: [LogUtility(a[0]), ScaledLog(a[1])]),
)


def grids(draw, nu, max_rows, min_rows=1):
    """(n, nu) energies and gains; some rows have a zero for one user or more."""
    n = draw(st.integers(min_rows, max_rows))
    cell = st.one_of(st.just(0.0), log_uniform(1e-4, 1e4), log_uniform(1e-4, 1e4))
    rows = st.lists(st.lists(cell, min_size=nu, max_size=nu), min_size=n, max_size=n)
    return np.array(draw(rows)).reshape(n, nu), np.array(draw(rows)).reshape(n, nu)


@st.composite
def pair_grids(draw):
    return grids(draw, 2, 12, min_rows=0)


def pair_guesses(shares):
    """No guess, or (n, 2) shares whose first column is ``shares``' own, moved
    by a few ulps or by 2^-j per row, or 0, 1 or a uniform draw."""
    first, n = shares[:, 0], len(shares)

    def row_ints(lo, hi):
        return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(np.array)

    column = st.one_of(
        st.just(first),
        row_ints(-4, 4).map(lambda k: first + k * np.spacing(first)),
        st.tuples(row_ints(1, 52), row_ints(0, 1)).map(lambda a: first + (2 * a[1] - 1) * 2.0 ** -a[0]),
        st.sampled_from([0.0, 1.0]).map(lambda v: np.full(n, v)),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(lambda g: np.array(g, dtype=float)),
    )
    return st.one_of(st.none(), column.map(lambda g: np.column_stack([g, 1.0 - g])))


@st.composite
def general_problems(draw):
    """An N = 3 or 4 problem: energies, gains and a utility of one of four kinds."""
    nu = draw(st.integers(3, 4))
    energies, gains = grids(draw, nu, 5)
    utility = draw(st.one_of(
        concavities.map(LogUtility),
        st.lists(concavities, min_size=nu, max_size=nu).map(lambda a: LogUtility(np.array(a))),
        st.tuples(concavities, log_uniform(0.5, 4.0)).map(lambda a: ScaledLog(*a)),
        st.lists(concavities, min_size=nu, max_size=nu).map(
            lambda a: [LogUtility(a[0]), ScaledLog(a[1])] + [LogUtility(c) for c in a[2:]]),
    ))
    return energies, gains, utility


@settings(max_examples=100)
@given(grids=pair_grids(), utility=utilities, gap_db=st.sampled_from([0.0, 3.0, 8.2]),
       cells=st.sampled_from([powercontrol.REPLAY_CELLS, 24, 1]), data=st.data())
def test_pair_step_matches_the_guarded_bisection_bit_for_bit(grids, utility, gap_db, cells, data):
    energies, gains = grids
    link = LinkBudget(snr_gap_db=gap_db)
    reference = reference_pair_shares(gains, energies, utility, link)
    shares = update_shares(gains, energies, utility, link)
    assert shares.tobytes() == reference.tobytes()
    # a guess changes no bit, however far off, and however few rows a replay checks
    guess = data.draw(pair_guesses(reference), label="guess")
    with mock.patch.object(powercontrol, "REPLAY_CELLS", cells):
        guided = update_shares(gains, energies, utility, link, guess=guess)
        assert guided.tobytes() == reference.tobytes()
        for row in range(len(gains)):
            cut = slice(row, row + 1)
            alone = update_shares(gains[cut], energies[cut], utility, link)
            assert alone.tobytes() == shares[cut].tobytes(), row
            if guess is not None:
                alone = update_shares(gains[cut], energies[cut], utility, link, guess=guess[cut])
                assert alone.tobytes() == shares[cut].tobytes(), row


@settings(max_examples=40)
@given(problem=general_problems(), gap_db=st.sampled_from([0.0, 3.0, 8.2]))
def test_general_step_matches_the_guarded_step_bit_for_bit(problem, gap_db):
    energies, gains, utility = problem
    link = LinkBudget(snr_gap_db=gap_db)
    shares = update_shares(gains, energies, utility, link)
    reference = reference_general_shares(gains, energies, utility, link)
    # a row with one transmitter or none takes no solve
    unsolved = ((energies > 0) & (gains > 0)).sum(axis=1) <= 1
    assert shares[unsolved].tobytes() == reference[unsolved].tobytes()
    if isinstance(as_utility(utility, gains.shape[1]), LogUtility):
        assert_allclose(shares, reference, **ARRAY_TOL)
    else:
        assert shares.tobytes() == reference.tobytes()
    for row in range(len(gains)):
        alone = update_shares(gains[row:row + 1], energies[row:row + 1], utility, link)
        assert alone.tobytes() == shares[row:row + 1].tobytes(), row


@pytest.mark.parametrize("nu", [2, 3])
@pytest.mark.parametrize("bad", ["nan", "inf", "short", "one column", "flat"])
def test_bad_guess_raises(nu, bad):
    gains = np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 4.0]])[:, :nu]
    guess = np.full(gains.shape, 1.0 / nu)
    guess = {
        "nan": np.where(np.arange(nu) == 0, np.nan, guess),
        "inf": np.where(np.arange(nu) == 0, np.inf, guess),
        "short": guess[:1],
        "one column": guess[:, :1],
        "flat": guess.ravel(),
    }[bad]
    with pytest.raises(ValueError, match="guess"):
        update_shares(gains, np.ones_like(gains), LogUtility(0.1), LinkBudget(), guess=guess)


@pytest.mark.parametrize("utility", [LogUtility(0.1), ScaledLog(0.1)], ids=["log", "generic"])
def test_far_guess_at_huge_snr_warns_of_nothing(utility):
    # the path toward 1e-10 overflows snr/share, which the bisection never evaluates
    gains, energies = np.ones((1, 2)), np.full((1, 2), 1e300)
    shares = update_shares(gains, energies, utility, LinkBudget())
    guided = update_shares(gains, energies, utility, LinkBudget(), guess=[[1e-10, 1.0 - 1e-10]])
    assert guided.tobytes() == shares.tobytes()


def test_empty_batch_with_a_guess():
    empty = np.empty((0, 2))
    shares = update_shares(empty, empty, LogUtility(0.1), LinkBudget(), guess=empty)
    assert shares.shape == (0, 2)
