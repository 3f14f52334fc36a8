"""Brute-force references that the tests and acceptance criteria compare against.

These deliberately avoid the solvers' machinery: the grid search evaluates
the raw objective on a dense simplex grid, the derivative checks use
centered finite differences, the slot enumerator scores every split
through the scheduler's public ``objective``, the time-sharing endpoints
are one-dimensional integrals by Gauss-Laguerre quadrature, and the
gradient-scheduling recursion runs as numpy calls on each frame's arrays.
Agreement between a solver and its reference is the project's main
correctness evidence.
"""

import numpy as np
from numpy.polynomial.laguerre import laggauss

from utilsched.utility import as_utility

# the slot enumerator's cap: C(9, 3) = 84 splits at 4 users and 6 slots
EXHAUSTIVE_MAX_USERS = 4
EXHAUSTIVE_MAX_SLOTS = 6


def grid_search_shares(peak_rates, utilities, step=1e-3, weights=None):
    """Best share vector on the simplex grid with the given step (N <= 3),
    and its objective value."""
    c = np.atleast_1d(np.asarray(peak_rates, dtype=float))
    n = c.size
    u = as_utility(utilities, n)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)

    m = int(round(1.0 / step))
    ticks = np.arange(m + 1) / m
    if n == 1:
        grid = np.ones((1, 1))
    elif n == 2:
        grid = np.column_stack([ticks, 1.0 - ticks])
    elif n == 3:
        r1, r2 = np.meshgrid(ticks, ticks, indexing="ij")
        keep = r1 + r2 <= 1.0 + 1e-12
        r1, r2 = r1[keep], r2[keep]
        grid = np.column_stack([r1, r2, np.maximum(1.0 - r1 - r2, 0.0)])
    else:
        raise ValueError("grid search supports at most 3 users")

    total = (w * u.value(grid * c)).sum(axis=1)
    best = int(np.argmax(total))
    return grid[best], float(total[best])


def central_difference(f, x: float, h: float = 1e-6) -> float:
    """Centered finite-difference estimate of f'(x)."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def slot_compositions(n_slots: int, n_users: int):
    """Yield every way to split ``n_slots`` among ``n_users``, lexicographically."""
    if n_users == 1:
        yield (n_slots,)
        return
    for first in range(n_slots + 1):
        for rest in slot_compositions(n_slots - first, n_users - 1):
            yield (first,) + rest


def exhaustive_allocate(scheduler, states) -> np.ndarray:
    """Enumerate every slot split of a ``QuantizedScheduler`` and return the
    best by its ``objective`` (ties: first in lexicographic order).  Refuses
    instances above the enumeration cap."""
    if scheduler.n_users > EXHAUSTIVE_MAX_USERS or scheduler.n_slots > EXHAUSTIVE_MAX_SLOTS:
        raise ValueError(
            f"instance ({scheduler.n_users} users, {scheduler.n_slots} slots) exceeds "
            f"enumeration cap ({EXHAUSTIVE_MAX_USERS}, {EXHAUSTIVE_MAX_SLOTS})"
        )
    best_counts = None
    best_value = -np.inf
    for counts in slot_compositions(scheduler.n_slots, scheduler.n_users):
        value = scheduler.objective(states, counts)
        if value > best_value:
            best_value = value
            best_counts = counts
    return np.array(best_counts, dtype=int)


def schedule_frames_numpy(avg_rates, smoothing: float, rates, utilities):
    """The gradient-scheduling recursion of ``select_user`` and
    ``update_state`` as numpy calls on each frame's arrays, without their
    input checks: infinite rates pass, and ``0 * inf`` makes a NaN score,
    which ``argmax`` picks first.  Returns the chosen users and the final
    averages."""
    derivative = as_utility(utilities, rates.shape[1]).derivative
    keep = 1.0 - smoothing
    steps = smoothing * rates
    avg = avg_rates
    chosen = np.empty(len(rates), dtype=np.intp)
    # 0 * inf is invalid, and a tiny concavity times a large rate overflows
    with np.errstate(invalid="ignore", over="ignore"):
        for i, c in enumerate(rates):
            k = (derivative(avg) * c).argmax()
            avg = keep * avg
            avg[k] += steps[i, k]
            chosen[i] = k
    return chosen, avg


def ts_endpoints(n_users: int, mean_snr_db: float, snr_gap_db: float, nodes: int = 150):
    """Exact per-user (mean rate, rate std) of log-family time sharing among
    ``n_users`` symmetric Rayleigh users, as A -> 0 and as A -> infinity.

    A user's peak rate is c = log2(1 + rho X), with X ~ Exp(1) and rho the
    mean SNR over the gap.  As A -> 0 every user gets 1/N of each frame, so
    the mean rate is E[c]/N and the std sd(c)/N.  As A -> infinity the best
    user takes the frame, so the mean rate is E[max c]/N and the std
    sqrt(E[max c^2]/N - (E[max c]/N)^2); max X has density
    N (1 - e^-x)^(N-1) e^-x.  A Gauss-Laguerre rule integrates against e^-x.
    """
    n = n_users
    x, w = laggauss(nodes)
    c = np.log2(1.0 + 10.0 ** ((mean_snr_db - snr_gap_db) / 10.0) * x)
    mean_c, mean_c2 = w @ c, w @ c**2
    w_max = w * n * (-np.expm1(-x)) ** (n - 1)
    max_c, max_c2 = w_max @ c, w_max @ c**2
    return (mean_c / n, np.sqrt(mean_c2 - mean_c**2) / n), (max_c / n, np.sqrt(max_c2 / n - (max_c / n) ** 2))
