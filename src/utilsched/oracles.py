"""Brute-force references that the tests and acceptance criteria compare against.

These deliberately avoid the solvers' machinery: the grid search evaluates
the raw objective on a dense simplex grid, and the derivative checks use
centered finite differences.  Agreement between a solver and its oracle is
the project's main correctness evidence.
"""

import numpy as np

from .utility import as_utility


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
