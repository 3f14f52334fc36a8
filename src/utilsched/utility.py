"""Concave rate utilities and the marginals the allocators consume.

A utility maps an instantaneous rate r >= 0 to satisfaction U(r); it must be
increasing, differentiable and strictly concave.  The allocators never touch
a concrete functional form: everything is expressed through ``value``, the
derivative U'(r) and its inverse.  The shipped implementation is the
logarithmic family U(r) = ln(1 + r/A), where smaller A means stronger
concavity (earlier saturation).

One ``Utility`` instance describes all N users of an allocation: every
method broadcasts over a trailing user axis.  A ``LogUtility`` whose
concavity is a length-N array gives each user its own A; ``as_utility``
turns the per-user sequences that callers may pass into that one object.

Two parameterizations appear throughout:

* share form: the user holds a fraction ``share`` of the frame at fixed
  full-frame rate ``peak_rate``, so r = share * peak_rate;
* energy form: the user holds ``share`` of the frame and spends energy
  ``energy`` on it, so its in-slot power is energy/share and
  r = share * log2(1 + energy * gain / (share * gap * noise)).
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .channel import LN2, LinkBudget, _ComparedByValue


class Utility(ABC):
    """Increasing, differentiable, strictly concave utility of rate."""

    @abstractmethod
    def value(self, rate):
        """U(rate); ``rate`` must be >= 0 (scalar or ndarray)."""

    @abstractmethod
    def derivative(self, rate):
        """U'(rate), strictly positive and strictly decreasing."""

    @abstractmethod
    def inverse_derivative(self, slope):
        """The rate r with U'(r) == slope, for 0 < slope <= U'(0)."""

    def for_user(self, j: int) -> "Utility":
        """User j's own utility; a utility shared by all users returns itself."""
        return self

    # -- share form -------------------------------------------------------

    def marginal_share(self, peak_rate, share):
        """d/d(share) of U(share * peak_rate)."""
        return self.derivative(np.multiply(share, peak_rate)) * peak_rate

    def inverse_marginal_share(self, peak_rate, multiplier):
        """Share solving marginal_share == multiplier, clamped below at 0.

        Returns 0 when ``peak_rate`` is 0 or when the marginal at zero share
        already falls below ``multiplier``.
        """
        multiplier = np.asarray(multiplier, dtype=float)
        if np.any(multiplier <= 0):
            raise ValueError("multiplier must be > 0")
        peak_rate = np.asarray(peak_rate, dtype=float)
        zero_slope = self.derivative(0.0)
        active = (peak_rate > 0) & (zero_slope * peak_rate > multiplier)
        # inactive entries invert U'(0), a slope that every utility accepts
        divisor = np.where(active, peak_rate, 1.0)
        rate = self.inverse_derivative(np.where(active, multiplier / divisor, zero_slope))
        out = np.where(active, np.maximum(rate / divisor, 0.0), 0.0)
        return out if out.ndim else float(out)

    # -- energy form ------------------------------------------------------

    def value_with_energy(self, share, energy, gain, link: LinkBudget):
        """U of the rate produced by (share, energy) on gain; 0 at share=0."""
        return self.value(_rate_from_energy(share, energy, gain, link))

    def marginal_energy(self, share, energy, gain, link: LinkBudget):
        """d/d(energy) of value_with_energy at fixed share.

        Zero-share entries must carry zero energy (energy with no transmit
        time is undefined); gain 0 gives marginal 0.
        """
        share = np.asarray(share, dtype=float)
        energy = np.asarray(energy, dtype=float)
        if ((share == 0) & (energy > 0)).any():
            raise ValueError("energy > 0 with share == 0 is undefined")
        snr = np.asarray(gain, dtype=float) / link.effective_noise
        x = per_share(energy * snr, share)
        rate = share * np.log1p(x) / LN2
        out = np.where(share > 0, self.derivative(rate) * snr / (LN2 * (1.0 + x)), 0.0)
        return out if out.ndim else float(out)


def interior_share_marginal(utility, x, share):
    """The share marginal of ``utility`` at share > 0, given x = snr/share:
    U'(share·log2(1 + x)) times the marginal rate log2(1 + x) - x/(ln2 (1 + x))."""
    full = np.log1p(x) / LN2
    return utility.derivative(share * full) * (full - x / (LN2 * (1.0 + x)))


def per_share(value, share):
    """``value / share``, and 0 where the share is 0 (never a division by 0)."""
    return np.where(share > 0, value / np.where(share > 0, share, 1.0), 0.0)


def _rate_from_energy(share, energy, gain, link: LinkBudget):
    share = np.asarray(share, dtype=float)
    snr = np.multiply(energy, gain) / link.effective_noise
    return share * np.log1p(per_share(snr, share)) / LN2


@dataclass(frozen=True, eq=False)
class LogUtility(_ComparedByValue, Utility):
    """U(r) = ln(1 + r/concavity); small concavity saturates early.

    ``concavity`` is a scalar shared by every user, or a length-N array of
    per-user values that broadcasts over the trailing user axis.
    """

    concavity: object = 0.1

    def __post_init__(self):
        a = np.array(self.concavity, dtype=float)
        if a.ndim > 1 or not np.all((0 < a) & (a < np.inf)):
            raise ValueError(f"concavity must be finite and > 0 (scalar or 1-D), got {self.concavity}")
        a.flags.writeable = False
        object.__setattr__(self, "concavity", float(a) if a.ndim == 0 else a)

    def for_user(self, j: int) -> "LogUtility":
        return self if np.ndim(self.concavity) == 0 else LogUtility(self.concavity[j])

    def value(self, rate):
        if np.any(np.asarray(rate) < 0):
            raise ValueError("rate must be >= 0")
        return np.log1p(np.asarray(rate, dtype=float) / self.concavity)

    def derivative(self, rate):
        return 1.0 / (self.concavity + np.asarray(rate, dtype=float))

    def inverse_derivative(self, slope):
        return 1.0 / np.asarray(slope, dtype=float) - self.concavity


class _PerUserColumns(Utility):
    """Per-user utilities of any type, user j acting on column j of the last axis."""

    def __init__(self, utilities):
        self.utilities = tuple(utilities)

    def _columns(self, method, *args):
        args = np.broadcast_arrays(*args, np.empty(len(self.utilities)))[:-1]
        return np.stack(
            [getattr(u, method)(*(a[..., j] for a in args)) for j, u in enumerate(self.utilities)],
            axis=-1,
        )

    def value(self, rate):
        return self._columns("value", rate)

    def derivative(self, rate):
        return self._columns("derivative", rate)

    def inverse_derivative(self, slope):
        return self._columns("inverse_derivative", slope)

    def for_user(self, j: int) -> Utility:
        return self.utilities[j]


def as_utility(utilities, n: int) -> Utility:
    """One ``Utility`` describing all ``n`` users.

    A single ``Utility`` passes through unchanged; a sequence of ``n``
    scalar ``LogUtility`` objects stacks into one array-valued
    ``LogUtility``; any other sequence of ``n`` utilities is applied
    column by column.
    """
    if isinstance(utilities, Utility):
        if isinstance(utilities, LogUtility) and np.shape(utilities.concavity) not in ((), (n,)):
            raise ValueError(f"expected {n} concavities, got {np.size(utilities.concavity)}")
        return utilities
    utilities = list(utilities)
    if len(utilities) != n:
        raise ValueError(f"expected {n} utilities, got {len(utilities)}")
    if all(type(u) is LogUtility and np.ndim(u.concavity) == 0 for u in utilities):
        return LogUtility(np.array([u.concavity for u in utilities]))
    return _PerUserColumns(utilities)
