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
   solved until the sample-average energy meets the power budget
5. repeat 2-4 until the objective increment drops below the threshold

The uplink constrains each user's average energy separately; the downlink
variant pools everything under one total-power multiplier.  Because every
block update is an exact maximization, the recorded objective sequence is
nondecreasing, which the tests assert directly.

Every inner solve is vectorized across the whole sample grid.  Each budget
water level is solved in its logarithm, by safeguarded Newton steps for the
log family and by bisection for any other utility (``_level_step``); a
level whose energies pass the float range counts as overspent, and one
that settles on its peak gives its budget to the entries at the peak.  The
simplex multiplier and the two-user share split are bisected (``_bisect``);
``apply_policy`` first replays the split toward a guess (``_replay_pair_path``).
Each energy is the root of one equation in its log-SNR, bracketed in closed
form for every utility: the log family solves it by Newton's method from
below (its Lambert-W form), any other utility by bisection.  At N >= 3 the
log family's share step is a Newton step kept inside the bisection bracket;
any other utility bisects it.  A share step computes the SNR once per
call, and its bisections evaluate ``interior_share_marginal`` in (0, 1].

``apply_policy`` re-solves fresh frames against the fixed multipliers by
the same alternation, each frame until its own round drift is at most
``APPLY_TOL``, so a frame's result does not depend on its batch.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import LN2, LinkBudget, achievable_rate
from .errors import ConvergenceError, DegenerateBudgetError
from .timeshare import allocate_ts
from .utility import LogUtility, as_utility, interior_share_marginal

SHARE_BISECT = 50
INNER_BISECT = 46
# the most (row, step) cells one replay of the two-user bisection evaluates,
# and the log family's Newton steps that sharpen its predicted share
REPLAY_CELLS = 2**13
PAIR_NEWTON = 3
# caps of the log family's Newton solves and of the water-level solve, far
# above the steps they take
ENERGY_NEWTON = 100
SHARE_NEWTON = 100
LEVEL_STEPS = 100
# apply_policy drops a frame once its round drift is at most this
APPLY_TOL = 1e-11
EPS = np.finfo(float).eps
# the log of the smallest positive water level, the bottom of every level's bracket
LOG_FLOOR = np.log(np.finfo(float).smallest_subnormal)
# a budget water level settles once |ln(spent/budget)| is at most this
LEVEL_TOL = 64 * EPS


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


def update_shares(gains, energies, utilities, link: LinkBudget, guess=None) -> np.ndarray:
    """Optimal per-sample shares given fixed per-sample energies.

    For each sample the simplex multiplier is bisected; each candidate
    multiplier is inverted through the (strictly decreasing) share marginal
    on [0, 1], by Newton steps for the log family and by an inner bisection
    for any other utility.  With two users the simplex collapses to one
    dimension and the marginals are equalized directly.
    Users with zero energy or zero gain in a sample get zero share there;
    samples where nobody can transmit fall back to uniform shares.

    A ``guess``, finite shares shaped like ``gains`` (else ``ValueError``)
    such as the previous ones, lets the two-user step replay its path toward
    it first; without one the step only bisects.  It moves no bit.
    """
    gains = np.asarray(gains, dtype=float)
    energies = np.asarray(energies, dtype=float)
    n, nu = gains.shape
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != gains.shape or not np.isfinite(guess).all():
            raise ValueError(f"guess must be finite shares of shape {gains.shape}, got shape {guess.shape}")
    u = as_utility(utilities, nu)
    active = (energies > 0) & (gains > 0)

    if nu == 1:
        return np.ones((n, 1))
    snr = np.multiply(energies, gains) / link.effective_noise
    if nu == 2:
        # kept beside the general path: one bisection per sample, not a nested one, is far faster
        return _update_shares_pair(u, snr, active, None if guess is None else guess[:, 0])
    return _update_shares_general(u, snr, active)


def _update_shares_pair(u, snr, active, guess):
    """Equalize the two marginals by bisection on the first user's share.

    Each midpoint and its complement are dyadic numbers strictly inside
    (0, 1), so each step evaluates the interior marginal alone.  Only a
    ``guess`` replays the first steps in one batch (``_replay_pair_path``).
    """
    n = snr.shape[0]
    rho = np.empty((n, 2))

    def rises(mid):
        rho[:, 0] = mid
        rho[:, 1] = 1.0 - mid
        m = interior_share_marginal(u, snr / rho, rho)
        return m[:, 0] > m[:, 1]

    done, lo, hi = _replay_pair_path(u, snr, active, guess)
    first = _bisect(rises, lo, hi, SHARE_BISECT - done)
    # single-transmitter and dead samples override the interior solution
    first = np.where(active[:, 0] & ~active[:, 1], 1.0, first)
    first = np.where(active[:, 1] & ~active[:, 0], 0.0, first)
    first = np.where(~active.any(axis=1), 0.5, first)
    return np.column_stack([first, 1.0 - first])


def _replay_pair_path(u, snr, active, guess):
    """The pair bisection's first steps toward a guess, checked in one batch.

    The bisection halves [0, 1] at dyadic midpoints, so its path toward a
    share g is known: at step d the bracket is [k_d, k_d + 1]/2^d with
    k_d = ceil(g 2^d) - 1, and the step rises iff its midpoint lies below g.
    g is the guess (1/2 outside (0, 1)), sharpened for the log family by
    ``PAIR_NEWTON`` Newton steps on m0(g) - m1(1 - g).  Up to the first step
    on which some row with two transmitters rises otherwise, each such row's
    path is its bisection's own, so the bits are those of the bisection from
    [0, 1].  Returns ``(done, lo, hi)``: the steps taken and each row's
    bracket.  No guess, or more than ``REPLAY_CELLS`` rows, takes none.
    """
    n = snr.shape[0]
    depth = min(SHARE_BISECT, REPLAY_CELLS // max(n, 1))
    if guess is None or not depth:
        return 0, np.zeros(n), np.ones(n)
    g = np.where((guess > 0) & (guess < 1), guess, 0.5)
    if isinstance(u, LogUtility):
        for _ in range(PAIR_NEWTON):
            # a user that cannot transmit has slope 0: its NaN trials keep g
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                m, dm, _ = _log_share_marginal(u.concavity, snr, np.column_stack([g, 1.0 - g]))
                trial = g - (m[:, 0] - m[:, 1]) / dm.sum(axis=1)
            g = np.where((trial > 0) & (trial < 1), trial, g)
    scale = 2.0 ** np.arange(depth + 1)
    k = np.ceil(g[:, None] * scale) - 1.0
    mid = (2.0 * k[:, :-1] + 1.0) / (2.0 * scale[:-1])
    rho = np.stack([mid, 1.0 - mid], axis=-1)
    # a midpoint off the bisection's path can overflow x: its NaN only ends the replay
    with np.errstate(over="ignore", invalid="ignore"):
        m = interior_share_marginal(u, snr[:, None, :] / rho, rho)
    agree = ((m[..., 0] > m[..., 1]) == (mid < g[:, None])) | ~active.all(axis=1)[:, None]
    done = int(np.argmin(agree.all(axis=0))) if not agree.all() else depth
    return done, k[:, done] / scale[done], (k[:, done] + 1.0) / scale[done]


def _update_shares_general(u, snr, active):
    n, nu = snr.shape
    live = active.any(axis=1)

    def marginal(share):
        return interior_share_marginal(u, snr / share, share)

    ones = np.ones((n, nu))
    m_low = marginal(ones / nu)
    m_one = marginal(ones)

    hi = np.where(active, m_low, 0.0).max(axis=1)
    lo = np.where(active, m_one, np.inf).min(axis=1)
    lo = np.where(live, lo, 1.0)
    hi = np.maximum(hi, lo)

    if isinstance(u, LogUtility):
        invert = _log_share_inverse(u, snr)
    else:
        def invert(lam, solve):
            return _bisect(
                lambda mid: marginal(mid) > lam[:, None],
                np.zeros((n, nu)), np.ones((n, nu)), INNER_BISECT,
            )

    def shares_at(lam):
        full = active & (m_one >= lam[:, None])
        rho = np.where(full, 1.0, invert(lam, active & ~full))
        return np.where(active, rho, 0.0)

    lam = _bisect(lambda lam: shares_at(lam).sum(axis=1) > 1.0, lo, hi, SHARE_BISECT)
    shares = shares_at(lam)
    total = shares.sum(axis=1)
    shares[live] /= total[live, None]
    shares[~live] = 1.0 / nu
    return shares


def _log_share_inverse(u, snr):
    """Log-family inverse of the share marginal, ``(lam, solve) -> shares``.

    Each entry in the mask ``solve`` gets the share where its marginal
    equals its row's ``lam``, by Newton's method kept inside the bisection
    bracket [0, 1] ("rtsafe", Press et al., Numerical Recipes, 9.4), on
    ``_log_share_marginal``.  Each call starts from the shares of the
    previous call, which the outer multiplier bisection makes close.
    Entries outside ``solve`` are left undefined.
    """
    shape, nu = snr.shape, snr.shape[1]
    concavity = np.broadcast_to(u.concavity, shape).ravel()
    snr = snr.ravel()
    rho = np.full(snr.size, 0.5)

    def invert(lam, solve):
        idx = np.flatnonzero(solve)
        s, a, target = rho[idx], concavity[idx], lam[idx // nu]
        s = np.where((s > 0) & (s < 1), s, 0.5)
        lo, hi = np.zeros(idx.size), np.ones(idx.size)
        live = np.arange(idx.size)
        for _ in range(SHARE_NEWTON):
            if not live.size:
                break
            sl = s[live]
            # x overflows only where the share is far too small: the NaNs
            # that follow count as a marginal above the target
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                m, dm, scale = _log_share_marginal(a[live], snr[idx[live]], sl)
                f = m - target[live]
                trial = sl - f / dm
            too_small = ~(f <= 0)
            lo[live] = np.where(too_small, sl, lo[live])
            hi[live] = np.where(too_small, hi[live], sl)
            inside = (trial > lo[live]) & (trial < hi[live])
            trial = np.where(inside, trial, 0.5 * (lo[live] + hi[live]))
            # h = full - q/ln2 cancels at small x: f is known to a few eps of
            # its terms, not of the target
            met = np.abs(f) <= 8 * EPS * (target[live] + scale)
            s[live] = np.where(met, sl, trial)
            # shares sum to 1, so a bracket 4 eps wide pins a root near 0 well enough
            settled = (np.abs(trial - sl) <= 4 * EPS * trial) | (hi[live] - lo[live] <= 4 * EPS)
            live = live[~(met | settled)]
        if live.size:
            raise ConvergenceError(
                f"share Newton solve unconverged after {SHARE_NEWTON} steps on {live.size} entries",
                diagnostics={"entries": idx[live].tolist(), "lo": lo[live].tolist(),
                             "hi": hi[live].tolist()},
            )
        rho[idx] = s
        return rho.reshape(shape).copy()

    return invert


def _log_share_marginal(concavity, snr, share):
    """The log family's share marginal m = U'·h, its slope in the share
    -U'(U'h^2 + q^2/(share ln2)) and the scale U'·full of its terms, where
    x = snr/share, q = x/(1+x), full = log2(1+x) and h = full - q/ln2.  It
    rounds unlike ``interior_share_marginal``."""
    x = snr / share
    q = x / (1.0 + x)
    full = np.log1p(x) / LN2
    slope = 1.0 / (concavity + share * full)
    h = full - q / LN2
    return slope * h, -slope * (slope * h * h + q * q / (share * LN2)), slope * full


def _waterfill_energies(u, gains, shares, link, multiplier, m_zero=None):
    """Per-entry energies solving marginal_energy == multiplier, clamped at 0.

    ``multiplier`` broadcasts over the (n_samples, n_users) grid.  In
    t = ln(1 + energy·snr/share) the condition reads g(t) = 0 with
    g(t) = t - ln(U'(share·t/ln2)/U'(0)) - c and c = ln(m_zero/multiplier);
    g(0) = -c and U' decreases, so the root lies in [0, c] for every utility.
    The log family's g is t + log1p(r t) - c with r = share/(A ln2), an
    exact form of its Lambert-W solution (Corless et al., On the Lambert W
    function, 1996): concave with g' >= 1, so Newton's method from the lower
    bound max(c/(1+r), c - log1p(r c)) rises monotonically to the root.  Any
    other utility bisects g on [0, c].  Raises ``ConvergenceError`` if a
    Newton solve hits its cap or an energy is not a finite float; the
    latter's diagnostics hold the energies, inf past the float range.
    """
    n, nu = gains.shape
    zeros = np.zeros((n, nu))
    if m_zero is None:
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
        if not done.all():
            raise ConvergenceError(
                f"energy Newton solve unconverged after {ENERGY_NEWTON} steps on {(~done).sum()} entries",
                diagnostics={"t": t[~done].tolist(), "c": c[~done].tolist(), "r": r[~done].tolist()},
            )
    else:
        rate = np.zeros(active.shape)

        def slope(t):
            rate[active] = share * t / LN2
            return u.derivative(rate)[active]

        slope_zero = slope(0.0)
        t = _bisect(lambda t: t - np.log(slope(t) / slope_zero) < c, np.zeros(c.size), c, INNER_BISECT)
    with np.errstate(over="ignore"):
        energies = np.expm1(t) * share / snr
        # expm1 overflows before the energy does
        over = np.isinf(energies)
        energies[over] = np.exp(t[over] + np.log(share[over] / snr[over]))
    out = np.zeros(active.shape)
    out[active] = energies
    bad = ~np.isfinite(energies)
    if bad.any():
        # a level search reads these energies, inf past the float range, as overspent
        raise ConvergenceError("energy is not a finite float", diagnostics={"t": t[bad].tolist(), "energies": out})
    return out


def update_energies(gains, shares, utilities, budgets, link: LinkBudget):
    """Optimal per-sample energies given fixed shares, meeting each budget.

    For each user a positive multiplier (water level) is solved until the
    sample-average energy meets the budget; per-sample energies are the
    water-filling inverse of the energy marginal at that multiplier.

    Each level solves ln(spent/budget) = 0 in the log of the level, between
    ``LOG_FLOOR`` and the log of the largest zero-energy marginal, where
    nothing is spent (``_level_step``).  It stops on its own residual, or
    once its bracket closes to a few ulps, as it does below a budget of about
    1e-6; a final rescale absorbs what is left.  A level whose energies pass
    the float range counts as overspent.  A budget too small for any level
    below the peak settles on the peak, and goes to the entries whose
    zero-energy marginal is the peak, split evenly.

    Returns
    -------
    (energies, multipliers) : (ndarray (n, N), ndarray (N,))

    Raises
    ------
    DegenerateBudgetError
        If a user's budget cannot be met (all gains or shares zero).
    ConvergenceError
        If the energies that meet the budgets are not all finite floats.
    """
    return _meet_budgets(gains, shares, utilities, budgets, link, pooled=False)


def update_energies_pooled(gains, shares, utilities, total_budget, link: LinkBudget):
    """Downlink variant: one multiplier, sample-average total energy budget.

    Returns ``(energies, multipliers)`` with a length-1 multiplier array.
    """
    return _meet_budgets(gains, shares, utilities, total_budget, link, pooled=True)


def _meet_budgets(gains, shares, utilities, budgets, link, pooled):
    """Solve one water level per budget as ``update_energies`` describes: the
    uplink's N levels each govern one user's sample-average energy, the pooled
    level the sample-average total over all users."""
    gains = np.asarray(gains, dtype=float)
    shares = np.asarray(shares, dtype=float)
    n, nu = gains.shape
    u = as_utility(utilities, nu)
    budgets = np.broadcast_to(np.asarray(budgets, dtype=float), (1 if pooled else nu,))
    if np.any(budgets <= 0):
        raise ValueError("power budgets must be > 0")

    def mean(energies):
        return energies.sum(axis=1).mean(keepdims=True) if pooled else energies.mean(axis=0)

    def spent(energies):
        with np.errstate(over="ignore"):
            total = mean(energies)
            over = np.isinf(total)
            if over.any():
                # a sum of finite energies can overflow where their mean does
                # not: sum those again at an exact power-of-two scale
                scale = 2.0 ** np.ceil(np.log2(energies.size))
                total[over] = (mean(energies / scale) * scale)[over]
        return total

    m_zero = u.marginal_energy(shares, np.zeros((n, nu)), gains, link)
    peak = np.array([m_zero.max()]) if pooled else m_zero.max(axis=0)
    if np.any(peak <= 0):
        who = "no user can" if pooled else f"users {np.flatnonzero(peak <= 0).tolist()} cannot"
        raise DegenerateBudgetError(f"{who} spend any energy (zero gains or shares)")

    top = np.log(peak)  # nothing is spent at the top
    y, lo, hi = top - 1.0, np.full(top.shape, LOG_FLOOR), top
    for _ in range(LEVEL_STEPS):
        lam = np.exp(y)
        try:
            energies = _waterfill_energies(u, gains, shares, link, lam[None, :], m_zero)
        except ConvergenceError as err:
            if "energies" not in err.diagnostics:
                raise
            energies = err.diagnostics["energies"]
        total = spent(energies)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = np.log(total / budgets)
            slope = (spent(_log_energy_slope(energies, shares, gains, link, lam)) / total
                     if isinstance(u, LogUtility) else None)
            y, lo, hi, settled = _level_step(y, f, slope, lo, hi)
        if settled.all():
            break
    else:
        raise ConvergenceError(f"water levels unsettled after {LEVEL_STEPS} steps", diagnostics={"f": f.tolist()})
    unmet = total <= 0
    if unmet.any():
        # a level that settles on its peak spends nothing: the water-filling
        # solution at float resolution gives that budget to the entries whose
        # zero-energy marginal is the peak, split evenly by the rescale below
        energies = np.where((m_zero == peak) & unmet, 1.0, energies)
        total = spent(energies)
    # absorb the last residual so the budgets are met exactly
    with np.errstate(over="ignore"):
        energies = energies * (budgets / total)
    if not np.all(np.isfinite(energies)):
        raise ConvergenceError("energy is not a finite float", diagnostics={"spent": total.tolist()})
    return energies, lam


def _log_energy_slope(energies, shares, gains, link, lam):
    """d energy/d ln(lam) of the log family's water filling, per entry.

    With w = energy + share/snr = e^t share/snr, the slope
    -(e^t share/snr)/(1 + r/(1 + r t)) of the equation that
    ``_waterfill_energies`` solves is -w/(1 + lam w), since its energy
    condition makes r/(1 + r t) equal to lam w.
    """
    on = energies > 0
    w = energies + np.divide(shares * link.effective_noise, gains, out=np.zeros(gains.shape), where=on)
    return np.where(on, -w / (1.0 + lam * w), 0.0)


def _level_step(y, f, slope, lo, hi):
    """One rtsafe step (Press et al., Numerical Recipes, 9.4) of the level
    solve at log-levels ``y`` with residuals ``f``: ``(y, lo, hi, settled)``.

    A level settles once |f| <= ``LEVEL_TOL``, or on the top of its bracket,
    the end that does not overspend, once that closes to a few ulps.  Else
    it takes the Newton step where ``slope`` (df/dy) is known and the step
    stays in the bracket, or bisects.  Where the step on ln spent leaves the
    bracket it steps on spent itself: ln spent is concave near the top, so
    its step from an overspent level can pass the top, but spent is convex
    in y, so its step from there stops short of the root.  A step moves y by
    at least one ulp, so a root between two floats closes the bracket.
    """
    lo, hi = np.where(f > 0, y, lo), np.where(f > 0, hi, y)
    met = np.abs(f) <= LEVEL_TOL
    closed = hi - lo <= 4 * EPS * np.maximum(np.abs(y), 1.0)
    trial = 0.5 * (lo + hi)
    if slope is not None:
        newton = y - f / slope
        newton = np.where((newton > lo) & (newton < hi), newton, y + np.expm1(-f) / slope)
        newton = np.where(newton == y, np.nextafter(y, np.where(f > 0, hi, lo)), newton)
        trial = np.where((newton > lo) & (newton < hi), newton, trial)
    return np.where(met, y, np.where(closed, hi, trial)), lo, hi, met | closed & (y == hi)


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


def apply_policy(policy: PowerPolicy, frame_gains, utilities, link: LinkBudget, max_rounds=300):
    """Evaluate the converged policy on a batch of fresh gain vectors.

    The training multipliers stay fixed; per-frame shares and energies are
    re-solved against them by alternating the two block updates, which is
    coordinate ascent on each frame's multiplier-penalized utility, for at
    most ``max_rounds`` rounds.  Training stops on its own objective
    threshold, so a training sample's result can differ from its stored one.

    Both block updates act on each frame alone, and so does the stop rule: a
    frame leaves the loop once its largest share change plus its largest
    energy change in a round is at most ``APPLY_TOL``.  A frame's result is
    therefore the same in any batch.  Each round's share step takes the
    frame's previous shares as its ``guess``, which saves most of its
    bisection steps and moves no bit.

    ``frame_gains`` is (n_frames, N); so are the returned shares and energies.
    """
    g = np.asarray(frame_gains, dtype=float)
    if g.ndim != 2 or max_rounds < 1:
        raise ValueError(
            f"apply_policy needs (n_frames, N) gains and max_rounds >= 1, got shape {g.shape}, {max_rounds}"
        )
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
        new_shares = update_shares(gains, old_energies, u, link, guess=old_shares)
        new_energies = _waterfill_energies(u, gains, new_shares, link, lam)
        drift = np.abs(new_shares - old_shares).max(axis=1) + np.abs(new_energies - old_energies).max(axis=1)
        shares[live], energies[live] = new_shares, new_energies
        live = live[~(drift <= APPLY_TOL)]  # a NaN drift is still moving
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
