"""Max-min fairness of time-averaged utilities via adaptive weights.

Aggregate-utility scheduling starves users with weak channel statistics, so
fairness is restored by maximizing a *weighted* aggregate utility and tuning
the weights until every user's average utility is equal.  Each weight vector
yields the exact weighted-sum maximizer per frame (hence a Pareto-optimal
operating point on the fixed sample set); the multiplicative update then
walks along the frontier toward the equal-utility point.

Averages are estimated on one fixed set of ``frames`` frames drawn from
``seed`` (common random numbers), so the average-utility map is a
deterministic function of the weights and the adaptation is reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, LinkBudget, _index, achievable_rate
from .errors import ConfigError, ConvergenceError
from .simulate import MAX_JTPC_ENTRIES, _block_gains
from .timeshare import allocate_ts
from .utility import as_utility


@dataclass
class FairnessReport:
    """Per-user average utilities, their common level and max-min spread."""

    average_utilities: np.ndarray
    common_value: float
    spread: float
    iterations: int


def average_utilities(peak_rate_samples, utilities, weights) -> np.ndarray:
    """Mean per-user utility under weighted allocation over a sample set.

    The weights shape the allocation only, and only up to a common scale;
    the reported utilities are unweighted.
    """
    samples = np.asarray(peak_rate_samples, dtype=float)
    n, nu = samples.shape
    u = as_utility(utilities, nu)
    shares, _ = allocate_ts(samples, u, weights=weights)
    # add the samples in order, as a per-sample loop would
    return np.cumsum(u.value(shares * samples), axis=0)[-1] / n


def adapt_weights(
    model: ChannelModel,
    utilities,
    link: LinkBudget,
    tolerance: float = 1e-3,
    frames: int = 2000,
    seed: int = 0,
    step: float = 0.5,
    max_iterations: int = 50,
):
    """Tune weights until all users' average utilities agree within tolerance.

    Iterates: estimate each user's average utility under the current
    weighted allocation, then push weights multiplicatively toward the
    underperforming users, w_i <- w_i * exp(step * (mean - avg_i)), and
    renormalize.  Returns the weights and a ``FairnessReport``.

    Raises
    ------
    ConfigError
        If a setting is out of range, or ``frames`` or ``max_iterations``
        is not an integer.
    ConvergenceError
        If the spread never falls below ``tolerance``; the best-so-far
        report rides along in ``diagnostics``.
    """
    try:
        frames, max_iterations = _index(frames, "frames"), _index(max_iterations, "max_iterations")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not (tolerance > 0 and 0 < step < np.inf and frames >= 1 and max_iterations >= 0):
        raise ConfigError(
            f"adapt_weights needs tolerance > 0, finite step > 0, frames >= 1 and "
            f"max_iterations >= 0, got {tolerance}, {step}, {frames} and {max_iterations}"
        )
    nu = model.n_users
    # gains, rates and shares of every sample are held at once
    if frames * nu > MAX_JTPC_ENTRIES:
        raise ConfigError(
            f"adapt_weights needs frames * users <= {MAX_JTPC_ENTRIES}, got {frames} * {nu}"
        )
    u = as_utility(utilities, nu)
    gains = _block_gains(model, seed, range(frames))
    rates = achievable_rate(gains, link.transmit_power, link)

    weights = np.full(nu, 1.0 / nu)
    best = None
    for it in range(max_iterations + 1):
        avg = average_utilities(rates, u, weights)
        spread = float(avg.max() - avg.min())
        report = FairnessReport(avg, float(avg.mean()), spread, it)
        if best is None or spread < best.spread:
            best = report
        if spread <= tolerance:
            return weights, report
        with np.errstate(over="ignore", invalid="ignore"):
            weights = weights * np.exp(step * (avg.mean() - avg))
            weights /= weights.sum()
        if not np.all(np.isfinite(weights)):
            raise ConvergenceError(
                f"weight update {it + 1} with step {step:.3g} overflowed", diagnostics=best
            )
    raise ConvergenceError(
        f"utility spread {best.spread:.3g} > tolerance {tolerance:.3g} "
        f"after {max_iterations} weight updates",
        diagnostics=best,
    )
