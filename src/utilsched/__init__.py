"""Utility-based time-sharing and power allocation for fading channels.

A numpy library for scheduling N users on a shared frame: per-frame optimal
time sharing under concave rate utilities, a gradient-scheduling baseline,
joint time-and-power allocation under average power budgets, quantized time
sharing from limited channel feedback, max-min fair weight adaptation, and a
seeded Monte Carlo harness tying it together.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelModel,
    LinkBudget,
    Quantizer,
    achievable_rate,
    equal_prob_thresholds,
    quantize,
    sample_gains,
)
from .errors import ConvergenceError, DegenerateBudgetError, InvariantError
from .fairness import FairnessReport, adapt_weights, average_utilities
from .gradsched import GradientSchedulerState, select_user, update_state
from .powercontrol import (
    IterationTrace,
    PowerPolicy,
    apply_policy,
    constant_power_objective,
    sample_objective,
    solve_downlink,
    solve_uplink,
    update_energies,
    update_shares,
)
from .quantized import QuantizedScheduler, bin_expected_utility, slot_compositions
from .simulate import ExperimentConfig, SimStats, SweepEntry, run_experiment, sweep
from .timeshare import MultiplierSolve, aggregate_utility, allocate_ts
from .utility import LogUtility, Utility
