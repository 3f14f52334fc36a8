"""Per-frame optimal time sharing over the unit simplex.

Given each user's full-frame rate and utility, ``allocate_ts`` returns the
share vector maximizing the frame's aggregate utility subject to the shares
summing to 1.  The solution has water-filling structure: all users with a
positive share sit at a common marginal utility (the multiplier), and users
whose marginal at zero share falls below it are shut off.

Two solve paths produce the same answer: an active-set closed form when all
utilities are logarithmic, and monotone bisection on the multiplier for any
strictly concave utility.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .utility import LogUtility, as_utility

__all__ = ["MultiplierSolve", "allocate_ts", "aggregate_utility"]

SIMPLEX_TOL = 1e-12
MAX_BISECT = 200


@dataclass
class MultiplierSolve:
    """Certificate of a simplex water-filling solve.

    ``multiplier`` is the common marginal on the active set; ``degenerate``
    flags frames where every user's marginal was zero (all rates or weights
    zero), in which case uniform shares are returned and the multiplier is
    meaningless.
    """

    multiplier: float
    active_set: np.ndarray
    iterations: int
    degenerate: bool = False


def allocate_ts(peak_rates, utilities, weights=None):
    """Maximize sum_i w_i U_i(share_i * peak_rate_i) over the unit simplex.

    Parameters
    ----------
    peak_rates : array_like, shape (N,)
        Full-frame rate of each user this frame, >= 0.
    utilities : Utility or sequence of Utility
        One utility for all users (shared, or array-valued such as a
        ``LogUtility`` with one concavity per user), or one per user.
    weights : array_like, optional
        Nonnegative objective weights; uniform weighting when omitted.
        Scaling all weights by a common factor does not change the shares.

    Returns
    -------
    (shares, solve) : (ndarray, MultiplierSolve)
        ``shares`` sums to 1; active users share a common weighted marginal
        equal to ``solve.multiplier`` and inactive users' marginals at zero
        share do not exceed it.
    """
    c = np.atleast_1d(np.asarray(peak_rates, dtype=float))
    n = c.size
    if n < 1:
        raise ValueError("need at least one user")
    if np.any(c < 0):
        raise ValueError("peak rates must be >= 0")
    u = as_utility(utilities, n)
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,) or np.any(w < 0):
            raise ValueError("weights must be a nonnegative length-N vector")

    zero_marginals = w * u.marginal_share(c, 0.0)
    if np.all(zero_marginals == 0.0):
        # every weighted rate is zero: any share vector is optimal
        return np.full(n, 1.0 / n), MultiplierSolve(0.0, np.arange(n), 0, degenerate=True)

    solve = _logfamily_closed_form if isinstance(u, LogUtility) else _bisect_multiplier
    shares, lam, iterations = solve(c, u, w, zero_marginals)
    return shares, MultiplierSolve(lam, np.flatnonzero(shares > 0), iterations)


def _logfamily_closed_form(c, u, w, zero_marginals):
    """Active-set water filling for U_i = ln(1 + r/A_i).

    On the active set S the stationarity w_i c_i / (A_i + rho_i c_i) = lam
    gives rho_i = w_i/lam - A_i/c_i, and the simplex constraint pins
    lam = sum_S w_i / (1 + sum_S A_i/c_i).  Users enter S in decreasing
    order of their marginal at zero share until the water level exceeds the
    next user's zero marginal.
    """
    n = c.size
    with np.errstate(divide="ignore"):
        a_over_c = u.concavity / c  # inf for a zero-rate user
    order = np.argsort(-zero_marginals, kind="stable")
    candidates = order[zero_marginals[order] > 0]
    w_cum = np.cumsum(w[candidates])
    aoc_cum = np.cumsum(a_over_c[candidates])
    shares = np.zeros(n)
    for k in range(candidates.size):
        lam = w_cum[k] / (1.0 + aoc_cum[k])
        last = k + 1 == candidates.size
        # the water level sits above the next user's zero-share marginal
        # exactly when that user belongs outside the active set
        if last or lam > zero_marginals[candidates[k + 1]]:
            active = candidates[: k + 1]
            shares[active] = w[active] / lam - a_over_c[active]
            break
    shares = np.maximum(shares, 0.0)
    shares /= shares.sum()
    return shares, lam, 0


def _bisect_multiplier(c, u, w, zero_marginals):
    """Monotone bisection on the multiplier for generic concave utilities."""
    live = (w > 0) & (c > 0)
    w_live = np.where(live, w, 1.0)

    def shares_at(lam):
        return np.where(live, u.inverse_marginal_share(c, lam / w_live), 0.0)

    hi = float(np.max(zero_marginals))
    lo = float(np.min((w * u.marginal_share(c, 1.0))[zero_marginals > 0]))
    for it in range(1, MAX_BISECT + 1):
        lam = 0.5 * (lo + hi)
        total = shares_at(lam).sum()
        if abs(total - 1.0) <= SIMPLEX_TOL:
            break
        if total > 1.0:
            lo = lam
        else:
            hi = lam
    else:
        raise ConvergenceError(
            f"multiplier bisection did not meet simplex tolerance in {MAX_BISECT} steps",
            diagnostics={"lo": lo, "hi": hi, "residual": shares_at(0.5 * (lo + hi)).sum() - 1.0},
        )
    shares = shares_at(lam)
    shares /= shares.sum()
    return shares, lam, it


def aggregate_utility(shares, peak_rates, utilities, weights=None) -> float:
    """Frame objective sum_i w_i U_i(share_i * peak_rate_i)."""
    shares = np.asarray(shares, dtype=float)
    c = np.atleast_1d(np.asarray(peak_rates, dtype=float))
    u = as_utility(utilities, c.size)
    w = np.ones(c.size) if weights is None else np.asarray(weights, dtype=float)
    # Python's sum adds the users in order (np.sum pairs them from N=8 on)
    return float(sum(w * u.value(shares * c)))
