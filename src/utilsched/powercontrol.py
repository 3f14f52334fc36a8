"""Joint time-sharing and power control under average-power budgets.

The continuous-state problem (maximize expected aggregate utility over share
and energy policies) is discretized by sample-average approximation: a fixed
set of channel draws stands in for the gain distribution, expectations become
sample means, and the solve is fully deterministic.

The solver is nonlinear Gauss-Seidel block coordinate ascent on the jointly
concave objective in (shares, energies), where energy = share * power.  From
uniform shares and energies at the budgets it alternates two exact block
updates until the objective rises by less than the threshold: per sample,
shares given energies (simplex water filling); per user, energies given
shares, with a water level solved until the sample-average energy meets the
budget.  The uplink has one level per user, the downlink one pooled level;
from the second iteration on, each level's search starts at the last
iteration's multiplier.
The recorded objective sequence is nondecreasing, as the tests assert.

Every inner solve is vectorized across the whole sample grid: each water
level in its logarithm (``_level_step``), each energy in its log-SNR
(``_waterfill_energies``), the two-user share split by bisection
(``_bisect``), and at N >= 3 the log family's shares by a Newton solve per
sample (``_newton_shares``); any other utility bisects.

``apply_policy`` re-solves fresh frames against the fixed multipliers by the
same alternation, each frame until its own round drift is at most
``APPLY_TOL``, so a frame's result does not depend on its batch.  Each round
replays the two-user bisection toward the frame's previous shares
(``_replay_pair_path``) and reads the zero-energy marginals off one
computation per batch.
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
DYADIC = 2.0 ** np.arange(SHARE_BISECT + 1)  # 2^d at step d of the two-user bisection
# caps of the log family's Newton solves and of the water-level solve, far
# above the steps they take
ENERGY_NEWTON = 100
SHARE_NEWTON = 100
LEVEL_STEPS = 100
# apply_policy drops a frame once its round drift is at most this
APPLY_TOL = 1e-11
EPS = np.finfo(float).eps
# the smallest normal float: a Newton share step drops a share below it to 0
TINY = np.finfo(float).tiny
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
    """Converged per-sample shares and energies plus the fixed multipliers,
    the energy water levels (one per user for the uplink, a length-1 array
    for the downlink) that define the policy on new gains (``apply_policy``)."""

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

    Each sample's share marginals are equalized on the simplex: at N = 2 by
    bisection, at N >= 3 by Newton steps for the log family and a nested
    bisection for any other utility.  Users with zero energy or zero gain in
    a sample get zero share there, a lone user that can transmit the whole
    frame, and samples where nobody can transmit uniform shares.  A share
    whose optimum lies below the smallest normal float is returned as 0: it
    has too few significant bits to equalize its marginal.  A
    ``guess``, finite shares shaped like ``gains`` (else ``ValueError``) such
    as the previous ones, lets the two-user step replay its path toward it
    first; without one the step only bisects.  It moves no bit.
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
        # kept apart: its bits are pinned, and apply_policy replays it toward a guess
        return _update_shares_pair(u, snr, active, None if guess is None else guess[:, 0])
    return _update_shares_general(u, snr, active)


def _update_shares_pair(u, snr, active, guess):
    """Equalize the two marginals by bisection on the first user's share,
    whose midpoints and their complements lie strictly inside (0, 1), so each
    step evaluates the interior marginal alone; a ``guess`` replays the first steps."""
    n = snr.shape[0]
    rho = np.empty((n, 2))

    def rises(mid):
        rho[:, 0] = mid
        rho[:, 1] = 1.0 - mid
        m = interior_share_marginal(u, snr / rho, rho)
        return m[:, 0] > m[:, 1]

    done, lo, hi = _replay_pair_path(u, snr, active, guess)
    first = _bisect(rises, lo, hi, SHARE_BISECT - done)
    # a lone transmitter takes the frame, and dead samples split it evenly
    one, two = active[:, 0], active[:, 1]
    rho[:, 0] = np.where(one == two, np.where(one, first, 0.5), one)
    rho[:, 1] = 1.0 - rho[:, 0]
    return rho


def _replay_pair_path(u, snr, active, guess):
    """The pair bisection's first steps toward a guess, checked in one batch.

    The bisection halves [0, 1] at dyadic midpoints, so its path toward a
    share g is known: at step d the bracket is [k_d, k_d + 1]/2^d with
    k_d = ceil(g 2^d) - 1, and the step rises iff its midpoint lies below g.
    g is the guess (1/2 outside (0, 1)), sharpened for the log family by
    ``PAIR_NEWTON`` Newton steps on ln m0(g) - ln m1(1 - g), h in its series
    below x = 1e-3 only (see ``_log_share_marginal``).  Up to the first step
    on which some row with two transmitters rises otherwise, each such row's
    path is its bisection's own, so the bits are those of the bisection from
    [0, 1], and so is that step's midpoint, whose outcome is kept.  Returns
    ``(done, lo, hi)``: the steps taken and each row's bracket.  No guess,
    or more than ``REPLAY_CELLS`` rows, takes none.
    """
    n = snr.shape[0]
    depth = min(SHARE_BISECT, REPLAY_CELLS // max(n, 1))
    if guess is None or not depth:
        return 0, np.zeros(n), np.ones(n)
    g = np.where((guess > 0) & (guess < 1), guess, 0.5)
    # a user that cannot transmit has m = 0: its trials keep g; a midpoint off
    # the bisection's path can overflow x: its NaN only ends the replay
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(u, LogUtility):
            rho = np.empty((n, 2))
            for _ in range(PAIR_NEWTON):
                # m = h/(A + share·full), and d ln m/d share = -(m + q^2/(share·h·ln2))
                rho[:, 0], rho[:, 1] = g, 1.0 - g
                x = snr / rho
                full = np.log1p(x) / LN2
                q = x / (1.0 + x)
                h = full - q / LN2
                small = x < 1e-3
                if small.any():
                    h = np.where(small, x * x * _h_series(x), h)
                m = h / (u.concavity + rho * full)
                trial = g + np.log(m[:, 0] / m[:, 1]) / (m + q * q / (rho * h * LN2)).sum(axis=1)
                g = np.where((trial > 0) & (trial < 1), trial, g)
        scale = DYADIC[: depth + 1]
        k = np.ceil(g[:, None] * scale) - 1.0
        mid = (2.0 * k[:, :-1] + 1.0) / (2.0 * scale[:-1])
        rho = np.empty(mid.shape + (2,))
        rho[..., 0], rho[..., 1] = mid, 1.0 - mid
        m = interior_share_marginal(u, snr[:, None, :] / rho, rho)
    up = m[..., 0] > m[..., 1]
    agree = (up == (mid < g[:, None])) | ~active.all(axis=1)[:, None]
    done = int(np.argmin(agree.all(axis=0))) if not agree.all() else depth
    # a rising step keeps the upper half: k_(d+1) = 2 k_d + 1
    k, done = (2.0 * k[:, done] + up[:, done], done + 1) if done < depth else (k[:, done], done)
    return done, k / scale[done], (k + 1.0) / scale[done]


def _update_shares_general(u, snr, active):
    nu = snr.shape[1]
    count = active.sum(axis=1, keepdims=True)
    shares = np.where(count == 0, 1.0 / nu, active / np.maximum(count, 1))
    rows = np.flatnonzero(count[:, 0] >= 2)
    if isinstance(u, LogUtility):
        return _newton_shares(u.concavity, snr, shares, rows)
    snr, active = snr[rows], active[rows]

    def marginal(share):
        return interior_share_marginal(u, snr / share, share)

    ones = np.ones((rows.size, nu))
    m_one = marginal(ones)
    hi = np.where(active, marginal(ones / nu), 0.0).max(axis=1)
    lo = np.where(active, m_one, np.inf).min(axis=1)
    hi = np.maximum(hi, lo)

    def shares_at(lam):
        full = active & (m_one >= lam[:, None])
        rho = _bisect(lambda mid: marginal(mid) > lam[:, None], np.zeros_like(ones), ones, INNER_BISECT)
        return np.where(active, np.where(full, 1.0, rho), 0.0)

    lam = _bisect(lambda lam: shares_at(lam).sum(axis=1) > 1.0, lo, hi, SHARE_BISECT)
    solved = shares_at(lam)
    shares[rows] = solved / solved.sum(axis=1, keepdims=True)
    return shares


def _newton_shares(concavity, snr, shares, rows):
    """Newton steps on each of ``rows``' KKT system ln m_i(s_i) = L, sum s_i = 1,
    from and into ``shares``; a 0 stays 0.  A step sets L = (1 - sum s_i +
    sum w_i ln m_i)/sum w_i, w_i = s_i/e_i, scales s_i by exp((L - ln m_i)/e_i)
    and renormalizes.  As in ``_level_step``'s rtsafe, L keeps to a bracket,
    else bisects it: above each m_i(1), and within the marginals of each
    point on the simplex.  A share below the smallest normal float, or too
    small for snr/share to be a float, drops to 0."""
    a = np.broadcast_to(concavity, snr.shape)
    # entries at share 0 give NaN or -inf, which the masks drop
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lm, _, tol = _log_share_marginal(a[rows], snr[rows], 1.0)
        lo = np.where(shares[rows] > 0, lm - tol, -np.inf).max(axis=1)
        hi = np.full(rows.size, np.inf)
        for _ in range(SHARE_NEWTON):
            if not rows.size:
                break
            s, row_snr = shares[rows], snr[rows]
            on = s > 0
            lm, el, tol = _log_share_marginal(a[rows], row_snr, np.where(on, s, 1.0))
            below, above = lm - tol, lm + tol
            met = np.where(on, below, -np.inf).max(axis=1) <= np.where(on, above, np.inf).min(axis=1)
            lo = np.fmax(lo, np.where(on, below, np.inf).min(axis=1))
            hi = np.fmin(hi, np.where(on, above, -np.inf).max(axis=1))
            w = np.where(on, s / el, 0.0)
            level = (1.0 - s.sum(axis=1) + np.where(on, w * lm, 0.0).sum(axis=1)) / w.sum(axis=1)
            level = np.where((level > lo) & (level < hi), level, 0.5 * (lo + hi))
            step = np.where(on, s * np.exp((level[:, None] - lm) / el), 0.0)
            step = np.where((step >= TINY) & (row_snr / step < np.inf), step, 0.0)
            step /= step.sum(axis=1, keepdims=True)
            settled = met | np.all(np.abs(step - s) <= 4 * EPS * s, axis=1)
            shares[rows[~settled]] = step[~settled]
            rows, lo, hi = rows[~settled], lo[~settled], hi[~settled]
    if rows.size:
        raise ConvergenceError(
            f"share Newton solve unconverged after {SHARE_NEWTON} steps on {rows.size} rows",
            diagnostics={"rows": rows.tolist(), "lo": lo.tolist(), "hi": hi.tolist()},
        )
    return shares


def _log_share_marginal(concavity, snr, share):
    """``(ln m, e, r)`` of the log family's share marginal m = U'·h: its
    elasticity e = -(share·U'·h + q^2/(h ln2)) and r, the rounding of ln m,
    with x = snr/share, q = x/(1+x), full = log2(1+x), h = full - q/ln2.
    h cancels to eps·full/h; below x = 1e-3 it is x^2 p(x) by its series
    to x^7 instead, and ln h = 2 ln x + ln p(x)."""
    x = snr / share
    q = x / (1.0 + x)
    full = np.log1p(x) / LN2
    slope = 1.0 / (concavity + share * full)
    small = x < 1e-3
    poly = _h_series(x)
    h = np.where(small, x * x * poly, full - q / LN2)
    log_h = np.where(small, 2.0 * np.log(x) + np.log(poly), np.log(h))
    q2_h = np.where(small, 1.0 / ((1.0 + x) ** 2 * poly), q * q / h)
    lm = np.log(slope) + log_h
    return lm, -(share * slope * h + q2_h / LN2), 8 * EPS * (1.0 + np.abs(lm) + np.where(small, 1.0, full / h))


def _h_series(x):
    """h/x^2 by the series of h = log2(1 + x) - x/((1 + x) ln2) to x^7, for small x."""
    return (0.5 - x * (2 / 3 - x * (0.75 - x * (0.8 - x * (5 / 6 - x * (6 / 7)))))) / LN2


def _waterfill_energies(u, gains, shares, link, multiplier, m_zero):
    """Per-entry energies solving marginal_energy == multiplier, clamped at 0.

    ``multiplier`` broadcasts over the (n_samples, n_users) grid, and
    ``m_zero`` holds the zero-energy marginals on it.
    In t = ln(1 + energy·snr/share) the condition reads g(t) = 0 with
    g(t) = t - ln(U'(share·t/ln2)/U'(0)) - c and c = ln(m_zero/multiplier);
    g(0) = -c and U' decreases, so the root lies in [0, c] for every utility.
    The log family's g is t + log1p(r t) - c with r = share/(A ln2), an
    exact form of its Lambert-W solution (Corless et al., 1996): concave with
    g' >= 1, so Newton's method from the lower bound max(c/(1+r),
    c - log1p(r c)) rises monotonically to the root.  Any other utility
    bisects g on [0, c].  Raises ``ConvergenceError`` if a Newton solve hits
    its cap or an energy is not a finite float; the latter's diagnostics hold
    the energies, inf past the float range.
    """
    n, nu = gains.shape
    zeros = np.zeros((n, nu))
    active = (shares > 0) & (gains > 0) & (m_zero > multiplier)
    if not active.any():
        return zeros

    def at(grid):  # np.broadcast_to takes longer on a few rows
        return np.where(active, grid, 0.0)[active]

    snr, share = gains[active] / link.effective_noise, shares[active]
    c = np.log(m_zero[active]) - np.log(at(multiplier))
    if isinstance(u, LogUtility):
        r = share / (LN2 * at(u.concavity))
        t = np.maximum(c / (1.0 + r), c - np.log1p(r * c))
        done = np.zeros(t.size, dtype=bool)
        for _ in range(ENERGY_NEWTON):
            rt = r * t
            step = (c - t - np.log1p(rt)) / (1.0 + r / (1.0 + rt))
            t = np.where(done, t, t + step)
            done |= step <= 4 * EPS * t
            if np.count_nonzero(done) == t.size:  # ndarray.all takes longer on a few entries
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


def update_energies(gains, shares, utilities, budgets, link: LinkBudget, *, start=None):
    """Optimal per-sample energies given fixed shares, meeting each budget.

    For each user a positive multiplier (water level) is solved until the
    sample-average energy meets the budget; per-sample energies are the
    water-filling inverse of the energy marginal at that multiplier.  Each
    level solves ln(spent/budget) = 0 in the log of the level, between
    ``LOG_FLOOR`` and the log of the largest zero-energy marginal
    (``_level_step``); a final rescale absorbs what is left.  A budget too
    small for any level below the peak goes to the entries whose zero-energy
    marginal is the peak, split evenly.  Returns ``(energies, multipliers)``,
    of shapes (n, N) and (N,).

    The search starts one below the log of the peak, or, given ``start``
    (positive multipliers such as the last update's), at their logs, kept
    strictly inside the bracket.  Where the levels move little, as between
    Gauss-Seidel iterations, that takes about half the water-filling
    passes; the bracket, the steps and the tolerance stay the same.

    Raises
    ------
    DegenerateBudgetError
        If a user's budget cannot be met (all gains or shares zero).
    ConvergenceError
        If the energies that meet the budgets are not all finite floats.
    """
    return _meet_budgets(gains, shares, utilities, budgets, link, pooled=False, start=start)


def update_energies_pooled(gains, shares, utilities, total_budget, link: LinkBudget, *, start=None):
    """Downlink variant: one multiplier, sample-average total energy budget,
    the same ``start``; returns ``(energies, multipliers)`` with a length-1
    multiplier array."""
    return _meet_budgets(gains, shares, utilities, total_budget, link, pooled=True, start=start)


def _meet_budgets(gains, shares, utilities, budgets, link, pooled, start):
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
    if start is None:
        y = top - 1.0
    else:
        start = np.broadcast_to(np.asarray(start, dtype=float), top.shape)
        if not np.all(start > 0):
            raise ValueError(f"start must be positive multipliers, got {start.tolist()}")
        y = np.clip(np.log(start), LOG_FLOOR + 1.0, top - 1e-12)
    lo, hi = np.full(top.shape, LOG_FLOOR), top
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


def _check_gains(gains):
    """Raise ``ValueError`` naming the first gain that is negative or not finite."""
    bad = np.argwhere(~((gains >= 0) & (gains < np.inf)))
    if bad.size:
        raise ValueError(f"gains must be finite and >= 0, got {gains[tuple(bad[0])]} at {bad[0].tolist()}")


def _solve(gains, utilities, budgets, link, threshold, max_iterations, pooled):
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2 or gains.shape[0] < 1:
        raise ValueError("need a nonempty (n_samples, n_users) gain matrix")
    _check_gains(gains)
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
        energies, multipliers = update(gains, shares, u, budgets, link, start=multipliers)
    else:
        raise ConvergenceError(
            f"objective still improving after {max_iterations} iterations", diagnostics=trace
        )

    policy = PowerPolicy(gains=gains, shares=shares, energies=energies, budgets=budgets,
                         multipliers=np.asarray(multipliers), pooled=pooled)
    return policy, trace


def solve_uplink(gains, utilities, budgets, link: LinkBudget, threshold=1e-6, max_iterations=100):
    """Jointly optimize shares and energies under per-user average budgets.

    ``gains`` (n_samples, n_users) is the fixed sample set standing in for
    the gain distribution, and ``budgets`` one average power budget per user
    or a scalar.  Iterates until the objective improves by less than
    ``threshold``; returns ``(PowerPolicy, IterationTrace)``.

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
    re-solved against them by alternating the two block updates (coordinate
    ascent on each frame's multiplier-penalized utility) for at most
    ``max_rounds`` rounds, so a training sample's result can differ from its
    stored one.  Both updates and the stop rule act on each frame alone: a
    frame leaves the loop once its largest share change plus its largest
    energy change in a round is at most ``APPLY_TOL``, so its result is the
    same in any batch.  Each share step takes the frame's previous shares as
    its ``guess``, and the zero-energy marginals are computed once per batch:
    at zero energy the rate is 0, so the share matters only through share > 0.
    Neither moves a bit.

    ``frame_gains`` is (n_frames, N), finite and >= 0, with the policy's N
    (else ``ValueError``); so are the returned shares and energies.
    """
    g = np.asarray(frame_gains, dtype=float)
    if g.ndim != 2 or max_rounds < 1:
        raise ValueError(
            f"apply_policy needs (n_frames, N) gains and max_rounds >= 1, got shape {g.shape}, {max_rounds}"
        )
    n, nu = g.shape
    if nu != policy.gains.shape[1]:
        raise ValueError(f"the policy is for {policy.gains.shape[1]} users, the frames have {nu}")
    _check_gains(g)
    u = as_utility(utilities, nu)
    lam = policy.multipliers[None, :]
    m_full = u.marginal_energy(1.0, 0.0, g, link)

    shares = np.full((n, nu), 1.0 / nu)
    energies = _waterfill_energies(u, g, shares, link, lam, m_full)
    live = np.arange(n)
    for _ in range(max_rounds):
        if not live.size:
            break
        gains, old_shares, old_energies = g[live], shares[live], energies[live]
        new_shares = update_shares(gains, old_energies, u, link, guess=old_shares)
        new_energies = _waterfill_energies(u, gains, new_shares, link, lam, np.where(new_shares > 0, m_full[live], 0.0))
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
