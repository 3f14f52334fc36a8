import numpy as np
import pytest
from numpy.testing import assert_allclose

from utilsched import LinkBudget, LogUtility, Utility
from utilsched.channel import LN2
from oracles import central_difference
from utilsched.utility import as_utility, interior_share_marginal, per_share


class ScaledLog(Utility):
    """Non-log-family stand-in exercising the generic base-class paths."""

    def __init__(self, concavity, scale=2.0):
        self.concavity = concavity
        self.scale = scale

    def value(self, rate):
        return self.scale * np.log1p(np.asarray(rate, dtype=float) / self.concavity)

    def derivative(self, rate):
        return self.scale / (self.concavity + np.asarray(rate, dtype=float))

    def inverse_derivative(self, slope):
        return self.scale / np.asarray(slope, dtype=float) - self.concavity


class TestValue:
    def test_examples(self):
        assert LogUtility(1.0).value(0.0) == 0.0
        assert_allclose(LogUtility(1.0).value(np.e - 1.0), 1.0, rtol=1e-12)
        assert_allclose(LogUtility(0.1).value(0.1), np.log(2.0), rtol=1e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            LogUtility(1.0).value(-0.1)

    def test_nonpositive_concavity_rejected(self):
        with pytest.raises(ValueError):
            LogUtility(0.0)
        with pytest.raises(ValueError):
            LogUtility(-1.0)

    def test_increasing_and_concave(self):
        rng = np.random.default_rng(2)
        u = LogUtility(0.3)
        for _ in range(200):
            r1, r2 = np.sort(rng.uniform(0.0, 20.0, size=2))
            if r1 == r2:
                continue
            theta = rng.uniform(0.0, 1.0)
            mix = theta * r1 + (1 - theta) * r2
            assert u.value(r2) > u.value(r1)
            assert u.value(mix) >= theta * u.value(r1) + (1 - theta) * u.value(r2) - 1e-12


class TestMarginalShare:
    def test_examples(self):
        u = LogUtility(0.1)
        assert u.marginal_share(0.0, 0.3) == 0.0
        assert_allclose(u.marginal_share(2.0, 0.0), 20.0, rtol=1e-12)
        assert_allclose(u.marginal_share(2.0, 0.5), 2.0 / 1.1, rtol=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = LogUtility(rng.uniform(0.05, 5.0))
            c = rng.uniform(0.1, 8.0)
            rho = rng.uniform(0.05, 0.95)
            fd = central_difference(lambda s: float(u.value(s * c)), rho)
            analytic = u.marginal_share(c, rho)
            assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))


class TestInverseMarginalShare:
    def test_clamped_at_zero(self):
        u = LogUtility(0.1)
        # marginal at zero share is c/A = 20; any multiplier above that shuts the user off
        assert u.inverse_marginal_share(2.0, 20.0) == 0.0
        assert u.inverse_marginal_share(2.0, 25.0) == 0.0
        assert u.inverse_marginal_share(0.0, 1.0) == 0.0

    def test_closed_form_values(self):
        u = LogUtility(0.1)
        lam = 2.0 / 1.15
        assert_allclose(u.inverse_marginal_share(2.0, lam), 0.525, rtol=1e-12)
        assert_allclose(u.inverse_marginal_share(1.0, lam), 0.475, rtol=1e-12)

    def test_nonpositive_multiplier_rejected(self):
        with pytest.raises(ValueError):
            LogUtility(1.0).inverse_marginal_share(1.0, 0.0)
        with pytest.raises(ValueError):
            LogUtility(1.0).inverse_marginal_share(1.0, -2.0)

    def test_roundtrip_identity(self):
        # inverse(marginal(rho)) == rho on the open region, within 1e-10
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = LogUtility(rng.uniform(0.05, 5.0))
            c = rng.uniform(0.1, 8.0)
            rho = rng.uniform(1e-3, 1.0)
            lam = u.marginal_share(c, rho)
            assert abs(u.inverse_marginal_share(c, lam) - rho) <= 1e-10

    def test_generic_base_matches_log_closed_form(self):
        # U = ln(1 + r/A) has the share [1/lam - A/c]^+ in closed form, and
        # ScaledLog with scale 1 is the same function; both take the generic path
        rng = np.random.default_rng(13)
        a = rng.uniform(0.05, 5.0, 1000)
        c = rng.uniform(0.1, 8.0, 1000)
        zero_marginal = c / a
        for u in (LogUtility(a), ScaledLog(a, scale=1.0)):
            for lam in (rng.uniform(0.05, 30.0, 1000), zero_marginal):
                shares = u.inverse_marginal_share(c, lam)
                assert_allclose(shares, np.maximum(1.0 / lam - a / c, 0.0), rtol=0, atol=1e-12)
                assert np.all(shares >= 0.0)
            assert np.all(u.inverse_marginal_share(0.0, rng.uniform(0.05, 30.0, 1000)) == 0.0)
            # one ulp up from the rounded c/A lies above c/A itself
            for lam in (np.nextafter(zero_marginal, np.inf), 2.0 * zero_marginal):
                assert np.all(u.inverse_marginal_share(c, lam) == 0.0)


class TestEnergyForm:
    link = LinkBudget(snr_gap_db=3.0)

    def test_zero_gain_zero_marginal(self):
        u = LogUtility(0.5)
        assert u.marginal_energy(0.5, 1.0, 0.0, self.link) == 0.0

    def test_zero_share_with_energy_rejected(self):
        with pytest.raises(ValueError):
            LogUtility(0.5).marginal_energy(0.0, 1.0, 2.0, self.link)

    def test_decreasing_in_energy(self):
        u = LogUtility(0.5)
        marginals = [u.marginal_energy(0.4, s, 2.0, self.link) for s in (0.0, 1.0, 2.0)]
        assert marginals[0] > marginals[1] > marginals[2] > 0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = LogUtility(rng.uniform(0.05, 5.0))
            rho = rng.uniform(0.05, 0.95)
            s = rng.uniform(0.1, 4.0)
            g = rng.uniform(0.1, 10.0)
            fd = central_difference(
                lambda e: float(u.value_with_energy(rho, e, g, self.link)), s
            )
            analytic = u.marginal_energy(rho, s, g, self.link)
            assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))

    def test_share_marginal_matches_finite_difference(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            u = LogUtility(rng.uniform(0.05, 5.0))
            rho = rng.uniform(0.05, 0.95)
            s = rng.uniform(0.1, 4.0)
            g = rng.uniform(0.1, 10.0)
            fd = central_difference(
                lambda r: float(u.value_with_energy(r, s, g, self.link)), rho
            )
            analytic = interior_share_marginal(u, s * g / self.link.effective_noise / rho, rho)
            assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))

    def test_joint_concavity(self):
        # directional second differences of U(share, energy) stay <= 1e-8
        rng = np.random.default_rng(23)
        u = LogUtility(0.2)
        h = 1e-3
        for _ in range(1000):
            rho = rng.uniform(0.1, 0.9)
            s = rng.uniform(0.1, 3.0)
            g = rng.uniform(0.1, 8.0)
            d = rng.normal(size=2)
            d /= np.hypot(*d)
            f = lambda t: float(
                u.value_with_energy(rho + t * h * d[0], s + t * h * d[1], g, self.link)
            )
            assert f(1) + f(-1) - 2 * f(0) <= 1e-8


def _reference_marginal_energy(u, share, energy, gain, link):
    """The energy marginal written out in one piece, in the solver's operation order."""
    snr = np.asarray(gain, dtype=float) / link.effective_noise
    x = per_share(energy * snr, share)
    rate = share * np.log1p(x) / LN2
    return np.where(share > 0, u.derivative(rate) * snr / (LN2 * (1.0 + x)), 0.0)


class TestHoistedMarginals:
    """``marginal_energy`` returns the energy marginal bit for bit."""

    link = LinkBudget(snr_gap_db=3.0)
    UTILITIES = {
        "scalar": LogUtility(0.3),
        "per-user": LogUtility(np.array([0.1, 1.0, 5.0])),
        "columns": as_utility([LogUtility(0.2), ScaledLog(1.0), LogUtility(4.0)], 3),
    }

    @staticmethod
    def _grid():
        rng = np.random.default_rng(5)
        shares = rng.uniform(0.0, 1.0, (40, 3))
        gains = rng.exponential(2.0, (40, 3))
        energies = rng.exponential(1.0, (40, 3))
        shares[::4, 0] = 0.0
        gains[::5, 1] = 0.0
        energies[::3, 2] = 0.0
        energies[shares == 0] = 0.0
        return shares, gains, energies

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    def test_energy_marginal_bits(self, name):
        u = self.UTILITIES[name]
        shares, gains, energies = self._grid()
        for scale in (0.0, 0.5, 1.0, 7.0):
            energy = energies * scale
            direct = u.marginal_energy(shares, energy, gains, self.link)
            assert np.array_equal(direct, _reference_marginal_energy(u, shares, energy, gains, self.link))

    def test_scalars_stay_floats(self):
        u = LogUtility(0.5)
        value = u.marginal_energy(0.4, 1.0, 2.0, self.link)
        assert type(value) is float and value == _reference_marginal_energy(u, 0.4, 1.0, 2.0, self.link)
        assert u.marginal_energy(0.4, 1.0, 0.0, self.link) == 0.0

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    def test_invalid_arguments_raise(self, name):
        u = self.UTILITIES[name]
        shares, gains, energies = self._grid()
        energy = energies + 1.0  # energy on the zero shares
        with pytest.raises(ValueError, match="share == 0"):
            u.marginal_energy(shares, energy, gains, self.link)
