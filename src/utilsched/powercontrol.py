"""Joint time-sharing and power control under average-power budgets.

The continuous-state problem (maximize expected aggregate utility over share
and energy policies) is discretized by sample-average approximation: a fixed
set of channel draws stands in for the gain distribution, expectations become
sample means, and the solve is fully deterministic.

The solver is nonlinear Gauss-Seidel block coordinate ascent on the jointly
concave objective in (shares, energies), where energy = share * power:

1. initialize with uniform shares and per-frame energies equal to the budgets
2. per sample, re-optimize shares given energies (simplex water filling)
3. record the sample-average objective
4. per user, re-optimize energies given shares: a water-filling multiplier is
   bisected until the sample-average energy meets the power budget
5. repeat 2-4 until the objective increment drops below the threshold

The uplink constrains each user's average energy separately; the downlink
variant pools everything under one total-power multiplier.  Because every
block update is an exact maximization, the recorded objective sequence is
nondecreasing, which the tests assert directly.

All inner solves are one bisection (``_bisect``) vectorized across the
whole sample grid; each step evaluates a marginal that the users' utility
built once for the solve (``energy_marginal``, ``share_marginal``).

``apply_policy`` re-solves fresh frames against the fixed multipliers by
the same alternation and freezes a frame once a round reproduces its
shares and energies bit for bit, re-solving only the frames still moving.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import LinkBudget, achievable_rate
from .errors import ConvergenceError, DegenerateBudgetError
from .timeshare import allocate_ts
from .utility import as_utility

__all__ = [
    "PowerPolicy",
    "IterationTrace",
    "solve_uplink",
    "solve_downlink",
    "update_shares",
    "update_energies",
    "sample_objective",
    "apply_policy",
    "constant_power_objective",
]

SHARE_BISECT = 50
INNER_BISECT = 46
ENERGY_BISECT = 56


@dataclass
class IterationTrace:
    """Objective values per Gauss-Seidel iteration."""

    objectives: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.objectives)


@dataclass
class PowerPolicy:
    """Converged per-sample shares and energies plus the fixed multipliers.

    ``multipliers`` are the energy water levels: one per user for the uplink,
    a length-1 array for the downlink.  They define the policy on gains
    outside the sample set (see ``apply_policy``).
    """

    gains: np.ndarray
    shares: np.ndarray
    energies: np.ndarray
    budgets: np.ndarray
    multipliers: np.ndarray
    pooled: bool = False


def _bisect(rises, lo, hi, steps):
    """Halve [lo, hi] ``steps`` times, keeping the upper half wherever
    ``rises(mid)`` holds; return the final midpoint."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        up = rises(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def _widen(short, x, factor, steps, error):
    """Scale the entries of ``x`` where ``short(x)`` holds by ``factor`` until
    none is short; raise ``error`` if one still is after ``steps`` scalings."""
    for _ in range(steps + 1):
        need = short(x)
        if not need.any():
            return x
        x = np.where(need, factor * x, x)
    raise error


def update_shares(gains, energies, utilities, link: LinkBudget) -> np.ndarray:
    """Optimal per-sample shares given fixed per-sample energies.

    For each sample the simplex multiplier is bisected; each candidate
    multiplier is inverted through the (strictly decreasing) share marginal
    by an inner bisection on [0, 1].  With two users the simplex collapses
    to one dimension and the marginals are equalized directly.  Users with
    zero energy or zero gain in a sample get zero share there; samples where
    nobody can transmit fall back to uniform shares.
    """
    gains = np.asarray(gains, dtype=float)
    energies = np.asarray(energies, dtype=float)
    n, nu = gains.shape
    u = as_utility(utilities, nu)
    active = (energies > 0) & (gains > 0)

    if nu == 1:
        return np.ones((n, 1))
    if nu == 2:
        # kept beside the general path: one bisection per sample, not a nested one, is far faster
        return _update_shares_pair(u, gains, energies, link, active)
    return _update_shares_general(u, gains, energies, link, active)


def _update_shares_pair(u, gains, energies, link, active):
    """Equalize the two marginals by bisection on the first user's share."""
    n = gains.shape[0]
    rho = np.empty((n, 2))
    marginal = u.share_marginal(energies, gains, link)

    def rises(mid):
        rho[:, 0] = mid
        rho[:, 1] = 1.0 - mid
        m = marginal(rho)
        return m[:, 0] > m[:, 1]

    first = _bisect(rises, np.zeros(n), np.ones(n), SHARE_BISECT)
    # single-transmitter and dead samples override the interior solution
    first = np.where(active[:, 0] & ~active[:, 1], 1.0, first)
    first = np.where(active[:, 1] & ~active[:, 0], 0.0, first)
    first = np.where(~active.any(axis=1), 0.5, first)
    return np.column_stack([first, 1.0 - first])


def _update_shares_general(u, gains, energies, link, active):
    n, nu = gains.shape
    live = active.any(axis=1)

    marginal = u.share_marginal(energies, gains, link)
    ones = np.ones((n, nu))
    m_low = marginal(ones / nu)
    m_one = marginal(ones)

    hi = np.where(active, m_low, 0.0).max(axis=1)
    lo = np.where(active, m_one, np.inf).min(axis=1)
    lo = np.where(live, lo, 1.0)
    hi = np.maximum(hi, lo)

    def shares_at(lam):
        rho = _bisect(
            lambda mid: marginal(mid) > lam[:, None],
            np.zeros((n, nu)), np.ones((n, nu)), INNER_BISECT,
        )
        rho = np.where(active & (m_one >= lam[:, None]), 1.0, rho)
        return np.where(active, rho, 0.0)

    lam = _bisect(lambda lam: shares_at(lam).sum(axis=1) > 1.0, lo, hi, SHARE_BISECT)
    shares = shares_at(lam)
    total = shares.sum(axis=1)
    shares[live] /= total[live, None]
    shares[~live] = 1.0 / nu
    return shares


def _waterfill_energies(u, gains, shares, link, multiplier, m_zero=None):
    """Per-entry energies solving marginal_energy == multiplier, clamped at 0.

    ``multiplier`` broadcasts over the (n_samples, n_users) grid.  Raises
    ``ConvergenceError`` if 120 doublings cannot bracket an energy.
    """
    n, nu = gains.shape
    zeros = np.zeros((n, nu))
    energy_marginal = u.energy_marginal(shares, gains, link)
    if m_zero is None:
        m_zero = energy_marginal(zeros)
    active = (shares > 0) & (gains > 0) & (m_zero > multiplier)
    if not active.any():
        return zeros

    def marginal(energy):
        return energy_marginal(np.where(active, energy, 0.0))

    s_hi = _widen(lambda s: active & (marginal(s) >= multiplier), np.ones((n, nu)), 2.0, 120,
                  ConvergenceError("energy bracket not found in 120 doublings"))
    energies = _bisect(lambda s: active & (marginal(s) > multiplier), zeros, s_hi, INNER_BISECT)
    return np.where(active, energies, 0.0)


def update_energies(gains, shares, utilities, budgets, link: LinkBudget):
    """Optimal per-sample energies given fixed shares, meeting each budget.

    For each user a positive multiplier is bisected until the sample-average
    energy equals the budget; per-sample energies are the water-filling
    inverse of the energy marginal at that multiplier.

    Returns
    -------
    (energies, multipliers) : (ndarray (n, N), ndarray (N,))

    Raises
    ------
    DegenerateBudgetError
        If a user's budget cannot be met (all gains or shares zero).
    """
    return _meet_budgets(gains, shares, utilities, budgets, link, pooled=False)


def update_energies_pooled(gains, shares, utilities, total_budget, link: LinkBudget):
    """Downlink variant: one multiplier, sample-average total energy budget.

    Returns ``(energies, multipliers)`` with a length-1 multiplier array.
    """
    return _meet_budgets(gains, shares, utilities, total_budget, link, pooled=True)


def _meet_budgets(gains, shares, utilities, budgets, link, pooled):
    """Bisect one water level per budget until the energy it governs meets it.

    The uplink's N levels each govern one user's sample-average energy; the
    pooled level governs the sample-average total over all users.
    """
    gains = np.asarray(gains, dtype=float)
    shares = np.asarray(shares, dtype=float)
    n, nu = gains.shape
    u = as_utility(utilities, nu)
    budgets = np.broadcast_to(np.asarray(budgets, dtype=float), (1 if pooled else nu,))
    if np.any(budgets <= 0):
        raise ValueError("power budgets must be > 0")

    def spent(energies):
        return energies.sum(axis=1).mean(keepdims=True) if pooled else energies.mean(axis=0)

    m_zero = u.marginal_energy(shares, np.zeros((n, nu)), gains, link)
    peak = np.array([m_zero.max()]) if pooled else m_zero.max(axis=0)
    if np.any(peak <= 0):
        who = "no user can" if pooled else f"users {np.flatnonzero(peak <= 0).tolist()} cannot"
        raise DegenerateBudgetError(f"{who} spend any energy (zero gains or shares)")

    def spent_at(lam):
        return spent(_waterfill_energies(u, gains, shares, link, lam[None, :], m_zero))

    lo = _widen(lambda lam: spent_at(lam) < budgets, peak, 0.5, 200,
                DegenerateBudgetError("budget unreachable while lowering the water level"))
    # spending too much means the multiplier is too low
    lam = _bisect(lambda lam: spent_at(lam) > budgets, lo, peak, ENERGY_BISECT)
    energies = _waterfill_energies(u, gains, shares, link, lam[None, :], m_zero)
    # absorb the last bisection gap so the budgets are met exactly
    return energies * (budgets / spent(energies)), lam


def sample_objective(gains, shares, energies, utilities, link: LinkBudget) -> float:
    """Sample-average aggregate utility of a (shares, energies) policy."""
    gains = np.asarray(gains, dtype=float)
    u = as_utility(utilities, gains.shape[1])
    values = u.value_with_energy(np.asarray(shares, float), np.asarray(energies, float), gains, link)
    return float(values.sum(axis=1).mean())


def _solve(gains, utilities, budgets, link, threshold, max_iterations, pooled):
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2 or gains.shape[0] < 1:
        raise ValueError("need a nonempty (n_samples, n_users) gain matrix")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    n, nu = gains.shape
    u = as_utility(utilities, nu)

    if pooled:
        budgets = np.array([float(budgets)])
        per_user = np.full(nu, budgets[0] / nu)
        update = update_energies_pooled
    else:
        budgets = per_user = np.broadcast_to(np.asarray(budgets, dtype=float), (nu,)).copy()
        update = update_energies

    shares = np.full((n, nu), 1.0 / nu)
    energies = np.tile(per_user, (n, 1))
    multipliers = None
    trace = IterationTrace()

    for _ in range(max_iterations):
        shares = update_shares(gains, energies, u, link)
        trace.objectives.append(sample_objective(gains, shares, energies, u, link))
        if len(trace.objectives) >= 2 and trace.objectives[-1] - trace.objectives[-2] < threshold:
            break
        energies, multipliers = update(gains, shares, u, budgets, link)
    else:
        raise ConvergenceError(
            f"objective still improving after {max_iterations} iterations", diagnostics=trace
        )

    policy = PowerPolicy(
        gains=gains,
        shares=shares,
        energies=energies,
        budgets=budgets,
        multipliers=np.asarray(multipliers),
        pooled=pooled,
    )
    return policy, trace


def solve_uplink(gains, utilities, budgets, link: LinkBudget, threshold=1e-6, max_iterations=100):
    """Jointly optimize shares and energies under per-user average budgets.

    Parameters
    ----------
    gains : ndarray (n_samples, n_users)
        Fixed channel sample set standing in for the gain distribution.
    budgets : array_like (n_users,) or scalar
        Average power budget per user.
    threshold : float
        Stop once the objective improves by less than this per iteration.

    Returns
    -------
    (PowerPolicy, IterationTrace)

    Raises
    ------
    ConvergenceError
        If the increment never drops below ``threshold``; the partial trace
        rides along in ``diagnostics``.
    """
    return _solve(gains, utilities, budgets, link, threshold, max_iterations, pooled=False)


def solve_downlink(gains, utilities, total_budget, link: LinkBudget, threshold=1e-6, max_iterations=100):
    """Same iteration with a single sample-average total-power constraint."""
    return _solve(gains, utilities, total_budget, link, threshold, max_iterations, pooled=True)


def apply_policy(policy: PowerPolicy, frame_gains, utilities, link: LinkBudget,
                 tol=1e-11, max_rounds=300):
    """Evaluate the converged policy on fresh gain vectors.

    The training multipliers stay fixed; per-frame shares and energies are
    re-solved against them by alternating the two block updates, which is
    coordinate ascent on each frame's multiplier-penalized utility, for at
    most ``max_rounds`` rounds, stopping once no frame's shares and energies
    move by more than ``tol``.  Training stops on its own objective
    threshold, so a training sample's result can differ from its stored one.

    Both block updates act on each frame alone, so a frame whose round
    reproduces its shares and energies bit for bit is at a fixed point:
    it is frozen and later rounds re-solve only the frames still moving.
    The result equals re-solving every frame in every round.

    ``frame_gains`` may be one frame (N,) or a batch (n_frames, N); the
    result matches the input's shape.
    """
    g = np.asarray(frame_gains, dtype=float)
    single = g.ndim == 1
    if single:
        g = g[None, :]
    n, nu = g.shape
    u = as_utility(utilities, nu)
    lam = policy.multipliers[None, :]

    shares = np.full((n, nu), 1.0 / nu)
    energies = _waterfill_energies(u, g, shares, link, lam)
    live = np.arange(n)
    for _ in range(max_rounds):
        if not live.size:
            break
        gains, old_shares, old_energies = g[live], shares[live], energies[live]
        new_shares = update_shares(gains, old_energies, u, link)
        new_energies = _waterfill_energies(u, gains, new_shares, link, lam)
        # frozen frames would add exactly 0 to each term
        drift = np.abs(new_shares - old_shares).max() + np.abs(new_energies - old_energies).max()
        shares[live], energies[live] = new_shares, new_energies
        if drift <= tol:
            break
        moved = (new_shares != old_shares).any(axis=1) | (new_energies != old_energies).any(axis=1)
        live = live[moved]
    if single:
        return shares[0], energies[0]
    return shares, energies


def constant_power_objective(gains, utilities, budgets, link: LinkBudget) -> float:
    """Sample-average utility of share-only allocation at constant power.

    Each user transmits at its budget power whenever scheduled, so its
    average consumed power never exceeds the budget; shares are per-sample
    optimal.  This is the feasible share-only baseline any joint solve must
    dominate.
    """
    gains = np.asarray(gains, dtype=float)
    n, nu = gains.shape
    u = as_utility(utilities, nu)
    budgets = np.broadcast_to(np.asarray(budgets, dtype=float), (nu,))
    rates = achievable_rate(gains, budgets, link)
    shares, _ = allocate_ts(rates, u)
    # sum users, then samples, each in order, as aggregate_utility per sample would
    per_sample = np.cumsum(u.value(shares * rates), axis=1)[:, -1]
    return float(np.cumsum(per_sample)[-1]) / n
