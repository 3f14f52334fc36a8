"""Per-frame optimal time sharing over the unit simplex.

Given each user's full-frame rate and utility, ``allocate_ts`` returns the
share vector maximizing the frame's aggregate utility subject to the shares
summing to 1.  The solution has water-filling structure: all users with a
positive share sit at a common marginal utility (the multiplier), and users
whose marginal at zero share falls below it are shut off.

Each frame's problem stands alone, so a batch of frames (one row per frame)
is solved in one array pass, row by row in lockstep; a row's answer is the
same, bit for bit, as solving that frame on its own.

Two solve paths produce the same answer: an active-set closed form when all
utilities are logarithmic, and monotone bisection on the multiplier for any
strictly concave utility.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .utility import LogUtility, as_utility

SIMPLEX_TOL = 1e-12
# a 1e300 rate opens a bracket that takes ~log2(1e300 / 1e-12) = 1,035 halvings
MAX_BISECT = 1100


@dataclass
class MultiplierSolve:
    """Certificate of a simplex water-filling solve.

    ``multiplier`` is the common marginal on each frame's active set and
    ``iterations`` the bisection steps each frame took (0 for the closed
    form); both have one entry per frame, and are scalars for a single
    frame.  ``active_set`` is ``np.flatnonzero(shares > 0)``: user indices
    for one frame, flat indices into the (frames, users) share array for a
    batch.  ``degenerate`` counts the frames where every user's marginal was
    zero (all rates or weights zero); such a frame gets uniform shares and a
    meaningless multiplier of 0.
    """

    multiplier: object
    active_set: np.ndarray
    iterations: object
    degenerate: int = 0


def allocate_ts(peak_rates, utilities, weights=None):
    """Maximize sum_i w_i U_i(share_i * peak_rate_i) over the unit simplex,
    frame by frame.

    Parameters
    ----------
    peak_rates : array_like, shape (N,) or (T, N)
        Full-frame rate of each user, >= 0 and not NaN: one frame, or one row per frame.
        A frame where users with positive weight have an infinite rate is
        split among them by weight, with multiplier inf.
    utilities : Utility or sequence of Utility
        One utility for all users (shared, or array-valued such as a
        ``LogUtility`` with one concavity per user), or one per user.
    weights : array_like, optional
        Nonnegative, non-NaN objective weights, shape (N,), the same in
        every frame; uniform weighting when omitted.  Scaling all weights by
        a common factor does not change the shares.

    Returns
    -------
    (shares, solve) : (ndarray, MultiplierSolve)
        ``shares`` has the shape of ``peak_rates`` and each row sums to 1;
        a row's active users share a common weighted marginal equal to its
        ``solve.multiplier`` and its inactive users' marginals at zero share
        do not exceed it.  Each row equals the 1-D call on that row.
    """
    c = np.asarray(peak_rates, dtype=float)
    if c.ndim > 2:
        raise ValueError("peak rates must have shape (N,) or (T, N)")
    single = c.ndim < 2
    rows = np.atleast_2d(c)
    n = rows.shape[1]
    if n < 1:
        raise ValueError("need at least one user")
    if not np.all(rows >= 0):  # NaN fails too
        raise ValueError("peak rates must be >= 0")
    u = as_utility(utilities, n)
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,) or not np.all(w >= 0):
            raise ValueError("weights must be a nonnegative length-N vector")

    # an infinite rate with positive weight makes the objective infinite at
    # any positive share: such a frame goes to those users, split by weight
    infinite = np.isinf(rows)
    hot = (infinite & (w > 0)).any(axis=1)
    rows = np.where(infinite, 0.0, rows)
    zero_marginals = w * u.marginal_share(rows, 0.0)
    # every weighted rate is zero: any share vector is optimal
    degenerate = np.all(zero_marginals == 0.0, axis=1) & ~hot
    solve = _logfamily_closed_form if isinstance(u, LogUtility) else _bisect_multiplier
    shares, lam, iterations = solve(rows, u, w, zero_marginals, degenerate | hot)
    shares[degenerate] = 1.0 / n
    lam[degenerate] = 0.0
    split = np.where(infinite[hot], w, 0.0)
    shares[hot] = split / split.sum(axis=1, keepdims=True)
    lam[hot] = np.inf

    if single:
        shares, lam, iterations = shares[0], lam[0], int(iterations[0])
    return shares, MultiplierSolve(
        lam, np.flatnonzero(shares > 0), iterations, int(np.count_nonzero(degenerate))
    )


def _logfamily_closed_form(c, u, w, zero_marginals, skip):
    """Active-set water filling for U_i = ln(1 + r/A_i), all rows at once.

    On the active set S the stationarity w_i c_i / (A_i + rho_i c_i) = lam
    gives rho_i = w_i/lam - A_i/c_i, and the simplex constraint pins
    lam = sum_S w_i / (1 + sum_S A_i/c_i).  Users enter S in decreasing
    order of their marginal at zero share until the water level exceeds the
    next user's zero marginal.  The ``skip`` rows (degenerate, or with an
    infinite rate) come out as garbage and are overwritten by the caller.
    """
    t, n = c.shape
    rows = np.arange(t)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        a_over_c = u.concavity / c  # inf for a zero-rate user
        order = np.argsort(-zero_marginals, axis=1, kind="stable")
        sorted_zm = zero_marginals[rows, order]
        # users with a positive zero marginal (the candidates) lead each row
        n_candidates = np.count_nonzero(sorted_zm > 0, axis=1)
        levels = np.cumsum(w[order], axis=1) / (1.0 + np.cumsum(a_over_c[rows, order], axis=1))
        # the water level with the first k+1 candidates sits above the next
        # user's zero-share marginal exactly when that user belongs outside
        position = np.arange(n)
        stop = position >= n_candidates[:, None] - 1
        stop[:, :-1] |= levels[:, :-1] > sorted_zm[:, 1:]
        last_active = np.argmax(stop, axis=1)
        lam = levels[rows[:, 0], last_active]

        rank = np.empty_like(order)
        rank[rows, order] = position
        active = rank <= last_active[:, None]
        shares = np.maximum(np.where(active, w / lam[:, None] - a_over_c, 0.0), 0.0)
        total = shares.sum(axis=1, keepdims=True)
        # rates so small against A that w/lam and A/c agree in every digit
        # leave no share at all; any split of the active set then meets the
        # KKT conditions to working precision, so split the frame by weight
        cancelled = total[:, 0] == 0.0
        if np.any(cancelled):
            shares[cancelled] = np.where(active[cancelled], w, 0.0)
            total[cancelled] = shares[cancelled].sum(axis=1, keepdims=True)
        shares /= total
    return shares, lam, np.zeros(t, dtype=int)


def _bisect_multiplier(c, u, w, zero_marginals, skip):
    """Monotone bisection on the multiplier for generic concave utilities.

    All rows bisect in lockstep; a row is frozen once its shares meet the
    simplex tolerance, so it takes exactly the steps a solve of that frame
    alone would take.
    """
    t, n = c.shape
    live = (w > 0) & (c > 0)
    w_live = np.where(live, w, 1.0)

    def shares_at(lam, rows):
        return np.where(
            live[rows], u.inverse_marginal_share(c[rows], lam[:, None] / w_live[rows]), 0.0
        )

    hi = np.max(zero_marginals, axis=1)
    lo = np.min(np.where(zero_marginals > 0, w * u.marginal_share(c, 1.0), np.inf), axis=1)
    lam = np.zeros(t)
    iterations = np.zeros(t, dtype=int)
    pending = np.flatnonzero(~skip)
    for it in range(1, MAX_BISECT + 1):
        if pending.size == 0:
            break
        lam[pending] = mid = 0.5 * (lo[pending] + hi[pending])
        total = shares_at(mid, pending).sum(axis=1)
        above = total > 1.0
        lo[pending] = np.where(above, mid, lo[pending])
        hi[pending] = np.where(above, hi[pending], mid)
        met = np.abs(total - 1.0) <= SIMPLEX_TOL
        iterations[pending[met]] = it
        pending = pending[~met]
    if pending.size:
        worst = pending[0]
        raise ConvergenceError(
            f"multiplier bisection did not meet simplex tolerance in {MAX_BISECT} steps "
            f"on {pending.size} frame(s), first frame {worst}",
            diagnostics={
                "frame": int(worst),
                "lo": float(lo[worst]),
                "hi": float(hi[worst]),
                "residual": float(shares_at(0.5 * (lo[[worst]] + hi[[worst]]), [worst]).sum() - 1.0),
            },
        )
    rows = np.flatnonzero(~skip)
    shares = np.zeros((t, n))
    shares[rows] = shares_at(lam[rows], rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        shares /= shares.sum(axis=1, keepdims=True)
    return shares, lam, iterations


def aggregate_utility(shares, peak_rates, utilities, weights=None) -> float:
    """Frame objective sum_i w_i U_i(share_i * peak_rate_i)."""
    shares = np.asarray(shares, dtype=float)
    c = np.atleast_1d(np.asarray(peak_rates, dtype=float))
    u = as_utility(utilities, c.size)
    w = np.ones(c.size) if weights is None else np.asarray(weights, dtype=float)
    # Python's sum adds the users in order (np.sum pairs them from N=8 on)
    return float(sum(w * u.value(shares * c)))
