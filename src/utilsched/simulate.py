"""Monte Carlo harness: run any policy over seeded frames and collect stats.

One experiment = a channel model, a link budget, a policy and a frame count.
Each frame draws gains (counter-based, so results are independent of
evaluation order), applies the policy to get shares (and, for the joint
power-control policy, energies), and accumulates per-user rates r_i =
share_i * rate_i.  Reported statistics are the time-averaged aggregate
utility (`taur`), per-user mean rate and rate standard deviation, and mean
occupancy.

Frames run in blocks of ``BLOCK_FRAMES`` (fewer for quantized sharing when
users x slots is large, so that a block holds at most ``MAX_SLOT_ENTRIES``
slot increments; ``MAX_JTPC_ENTRIES // users`` for joint power control):
gains are drawn frame by frame, then a block is allocated in one batched
call (only gradient scheduling, whose state carries from one frame to the
next, decides frame by frame) and reduced with array operations that add its
frames onto the running sums in frame order, so the statistics match a
frame-by-frame loop bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    MAX_FEEDBACK_BITS,
    ChannelModel,
    LinkBudget,
    Quantizer,
    _index,
    achievable_rate,
    quantize,
    sample_gains,
)
from .errors import NUMERIC_ERRORS, InvariantError
from .gradsched import _schedule_frames
from .powercontrol import apply_policy, solve_uplink
from .quantized import MAX_SLOTS, QuantizedScheduler
from .timeshare import allocate_ts
from .utility import LogUtility, per_share

POLICIES = ("ts", "gs", "jtpc", "qtsl")

# frame indices at and above this offset are reserved for training draws
TRAINING_FRAME_OFFSET = 2**32
# frames allocated and reduced per array pass.  A block pays about 100 numpy
# calls whatever its size, and its temporaries grow with it.  Measured at N=8
# on a 2-core VM: the frames_n8 benchmark runs 15% faster than with 256 and
# 6.5% faster than with 512; 2048 and 10^4 were no faster.  A 10^4-frame ts
# run's traced peak is 1.3 MB, against 0.3 MB with 256 and 6.8 MB with 10^4
BLOCK_FRAMES = 1024
# gains held at once (jtpc training or one jtpc block; the fairness sample set)
MAX_JTPC_ENTRIES = 10**6
# qtsl slot increments (users x slots) per frame, and the most a block holds
MAX_SLOT_ENTRIES = 2**16


def _key(default, sweep=False, column=True):
    """A field whose name is also its CLI key: ``sweep`` lets a list be a
    sweep axis, ``column`` puts it in the CSV."""
    return field(default=default, metadata={"sweep": sweep, "column": column})


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit for bit.

    ``mean_snr_db``, ``concavity`` and ``power_budget`` accept a scalar
    (symmetric users) or one value per user.  Policy-specific knobs are
    ignored by the other policies.  Each field's name is also its CLI key,
    with the field's default and type, and the fields come in the order of
    the sweep CSV's columns.  Construction raises ``ValueError``, naming the
    key, for an out-of-range or non-finite value, before any work.
    """

    users: int = _key(2, sweep=True)
    mean_snr_db: object = _key(10.0, sweep=True)
    snr_gap_db: float = _key(8.2)
    concavity: object = _key(0.1, sweep=True)
    policy: str = _key("ts")
    # gradient scheduler
    alpha: float = _key(0.01)
    # joint power control
    delta: float = _key(1e-6)
    power_budget: object = _key(1.0)
    # quantized time sharing; 0 slots means one slot per user
    slots: int = _key(0, sweep=True)
    feedback_bits: int = _key(3, sweep=True)
    frames: int = _key(10_000)
    seed: int = _key(0)
    training_samples: int = _key(10_000)
    max_iterations: int = _key(100, column=False)

    def __post_init__(self):
        if _index(self.users, "users") < 1:
            raise ValueError("users must be >= 1")
        if _index(self.frames, "frames") < 1:
            raise ValueError("frames must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {POLICIES}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        # an index, not range membership, which a float would scan element by element
        if not 0 <= _index(self.seed, "seed") < 2**128:  # the Philox key's range
            raise ValueError(f"seed must lie in 0..2**128 - 1, got {self.seed}")
        # building these rejects a negative or non-finite snr_gap_db, mean_snr_db
        # or concavity, and a per-user list of the wrong length
        self.channel()
        self.utilities()
        if self.feedback_bits not in range(MAX_FEEDBACK_BITS + 1):  # as Quantizer: a fraction fails too
            raise ValueError(f"feedback_bits must lie in 0..{MAX_FEEDBACK_BITS}, got {self.feedback_bits}")
        if self.slots not in range(MAX_SLOTS + 1):  # 0 slots means one per user
            raise ValueError(f"slots must lie in 0..{MAX_SLOTS}, got {self.slots}")
        if self.policy == "qtsl" and self.users * (self.slots or self.users) > MAX_SLOT_ENTRIES:
            raise ValueError(
                f"qtsl needs users * slots <= {MAX_SLOT_ENTRIES} (0 slots means users), "
                f"got {self.users} * {self.slots or self.users}"
            )
        if self.policy == "jtpc":
            samples = _index(self.training_samples, "training_samples")
            if not (1 <= samples and samples * self.users <= MAX_JTPC_ENTRIES):
                raise ValueError(
                    f"jtpc needs 1 <= training_samples and training_samples * users <= "
                    f"{MAX_JTPC_ENTRIES}, got {self.training_samples} * {self.users}"
                )
            if _index(self.max_iterations, "max_iterations") < 1:
                raise ValueError(f"jtpc needs max_iterations >= 1, got {self.max_iterations}")
            budgets = self.per_user("power_budget")
            if not np.all((0 < budgets) & (budgets < np.inf)):
                raise ValueError(f"jtpc needs every power_budget finite and > 0, got {self.power_budget}")
            if not self.delta >= 0:
                raise ValueError(f"jtpc needs delta >= 0, got {self.delta}")

    def per_user(self, name: str) -> np.ndarray:
        """Field ``name`` as one float per user; a scalar is shared by all."""
        value = np.asarray(getattr(self, name), dtype=float)
        if value.ndim > 1 or value.size not in (1, self.users):
            raise ValueError(f"{name} needs 1 or {self.users} values, got shape {value.shape}")
        return np.broadcast_to(value, (self.users,))

    def link(self) -> LinkBudget:
        return LinkBudget(noise_power=1.0, snr_gap_db=self.snr_gap_db, transmit_power=1.0)

    def channel(self) -> ChannelModel:
        return ChannelModel.from_snr_db(self.per_user("mean_snr_db"), self.link())

    def utilities(self) -> LogUtility:
        return LogUtility(self.per_user("concavity"))


@dataclass
class SimStats:
    """Summary statistics of one experiment."""

    taur: float
    mean_rate: np.ndarray
    rate_std: np.ndarray
    occupancy: np.ndarray
    mean_utility: np.ndarray
    n_frames: int
    degenerate_frames: int = 0


def _frame_blocks(n_frames: int, size: int):
    for start in range(0, n_frames, size):
        yield range(start, min(start + size, n_frames))


def _block_gains(model, seed: int, frames: range) -> np.ndarray:
    # one concatenate: about 4x cheaper than np.stack over a block's short rows
    return np.concatenate([sample_gains(model, seed, t) for t in frames]).reshape(len(frames), -1)


def _policy_shares(config: ExperimentConfig, model, link, utility):
    """Yield (shares, rates) blocks, one (frames, users) row per frame, in frame order."""
    n = config.users

    if config.policy == "gs":
        avg = np.zeros(n)
        for frames in _frame_blocks(config.frames, BLOCK_FRAMES):
            rates = achievable_rate(_block_gains(model, config.seed, frames), link.transmit_power, link)
            chosen, avg = _schedule_frames(avg, config.alpha, rates, utility)
            shares = np.zeros_like(rates)
            shares[np.arange(len(rates)), chosen] = 1.0
            yield shares, rates
        return

    if config.policy == "jtpc":
        budgets = config.per_user("power_budget")
        training = _block_gains(
            model, config.seed, range(TRAINING_FRAME_OFFSET, TRAINING_FRAME_OFFSET + config.training_samples)
        )
        policy, _ = solve_uplink(
            training, utility, budgets, link,
            threshold=config.delta, max_iterations=config.max_iterations,
        )
        for frames in _frame_blocks(config.frames, MAX_JTPC_ENTRIES // n):
            gains = _block_gains(model, config.seed, frames)
            shares, energies = apply_policy(policy, gains, utility, link)
            yield shares, achievable_rate(gains, per_share(energies, shares), link)
        return

    if config.policy == "qtsl":
        slots = config.slots or n
        quantizer = Quantizer(model.mean_gains, config.feedback_bits)
        scheduler = QuantizedScheduler(utility, quantizer, link, slots)
        # the pick holds a few (frames, users, slots) arrays: cap their entries;
        # the config's users x slots bound leaves at least one frame per block
        block = min(BLOCK_FRAMES, MAX_SLOT_ENTRIES // (n * slots))
        for frames in _frame_blocks(config.frames, block):
            gains = _block_gains(model, config.seed, frames)
            shares = scheduler.shares(scheduler.greedy_allocate(quantize(gains, quantizer)))
            yield shares, achievable_rate(gains, link.transmit_power, link)
        return

    for frames in _frame_blocks(config.frames, BLOCK_FRAMES):
        rates = achievable_rate(_block_gains(model, config.seed, frames), link.transmit_power, link)
        shares, _ = allocate_ts(rates, utility)
        yield shares, rates


def run_experiment(config: ExperimentConfig) -> SimStats:
    """Run one experiment; fully deterministic given the config's seed.

    Raises
    ------
    InvariantError
        If a policy returns a frame whose shares do not sum to 1.
    FloatingPointError
        If a statistic is not finite (for example when gains overflow); the
        message names those statistics only, as the row holds the config.
    """
    link = config.link()
    model = config.channel()
    utility = config.utilities()
    n = config.users

    # running sums of rate, squared rate, share and utility, one row each
    totals = np.zeros((1, 4, n))
    degenerate = 0
    start = 0
    for shares, rates in _policy_shares(config, model, link, utility):
        share_sums = shares.sum(axis=1)
        bad = np.flatnonzero(~(np.abs(share_sums - 1.0) <= 1e-9))  # NaN counts as bad
        if bad.size:
            raise InvariantError(
                f"frame {start + bad[0]}: shares sum to {share_sums[bad[0]]}, not 1"
            )
        degenerate += int(np.count_nonzero(~np.any(rates > 0, axis=1)))
        r = shares * rates
        block = np.stack([r, r * r, shares, utility.value(r)], axis=1)
        # add the frames one after another onto the totals, as a per-frame
        # loop would: a plain sum over the frame axis may pair them up; the
        # sum runs in place, and the copy lets the block go
        block[0] += totals[0]
        totals = np.cumsum(block, axis=0, out=block)[-1:].copy()
        start += len(shares)

    rate_sum, rate_sq_sum, share_sum, util_sum = totals[0]
    frames = config.frames
    mean_rate = rate_sum / frames
    variance = np.maximum(rate_sq_sum / frames - mean_rate**2, 0.0)
    mean_utility = util_sum / frames
    stats = SimStats(
        taur=float(mean_utility.sum()),
        mean_rate=mean_rate,
        rate_std=np.sqrt(variance),
        occupancy=share_sum / frames,
        mean_utility=mean_utility,
        n_frames=frames,
        degenerate_frames=degenerate,
    )
    bad = [name for name in ("taur", "mean_rate", "rate_std", "mean_utility")
           if not np.all(np.isfinite(getattr(stats, name)))]
    if bad:
        raise FloatingPointError(f"non-finite {' '.join(bad)}")
    return stats


@dataclass
class SweepEntry:
    """One sweep point: its config and either stats or the error it raised."""

    config: ExperimentConfig
    stats: SimStats = None
    error: Exception = None


def sweep(configs) -> list:
    """Run experiments in order, collecting per-entry failures instead of
    aborting the remaining points."""
    configs = list(configs)
    if not configs:
        raise ValueError("sweep needs at least one config")
    entries = []
    for config in configs:
        try:
            entries.append(SweepEntry(config, stats=run_experiment(config)))
        except NUMERIC_ERRORS as exc:  # collected per entry, reported by the caller
            entries.append(SweepEntry(config, error=exc))
    return entries
