"""Acceptance gate: every release criterion, one test each, at the stated
tolerance and (where stated) runtime budget.  Each test prints a PASS line
with the measured numbers so `pytest -v -s tests/test_acceptance.py` doubles
as the acceptance report."""

import time

import numpy as np
import pytest

from utilsched import (
    ChannelModel,
    ExperimentConfig,
    LinkBudget,
    LogUtility,
    Quantizer,
    QuantizedScheduler,
    achievable_rate,
    adapt_weights,
    aggregate_utility,
    allocate_ts,
    average_utilities,
    constant_power_objective,
    run_experiment,
    sample_gains,
    solve_uplink,
)
from utilsched.cli import main
from utilsched.oracles import central_difference, grid_search_shares


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail


def test_criterion_01_simplex_and_kkt():
    """10^4 random frames, N <= 8: shares on the simplex to 1e-12, active
    marginals equal to 1e-9, inside 10 seconds."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_simplex = 0.0
    worst_kkt = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        rates = rng.exponential(2.0, size=n)
        utils = [LogUtility(rng.uniform(0.05, 10.0)) for _ in range(n)]
        shares, solve = allocate_ts(rates, utils)
        worst_simplex = max(worst_simplex, abs(shares.sum() - 1.0))
        active = shares > 0
        marginals = np.array(
            [u.marginal_share(c, s) for u, c, s in zip(utils, rates, shares)]
        )
        if active.any():
            worst_kkt = max(worst_kkt, np.abs(marginals[active] - solve.multiplier).max())
        if (~active).any():
            assert np.all(marginals[~active] <= solve.multiplier + 1e-9)
    elapsed = time.perf_counter() - start
    ok = worst_simplex <= 1e-12 and worst_kkt <= 1e-9 and elapsed < 10.0
    report(
        "criterion 1 (simplex + KKT)",
        ok,
        f"simplex residual {worst_simplex:.2e}, KKT gap {worst_kkt:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_ts_grid_oracle():
    """200 random instances within 1e-6 of the step-1e-3 simplex grid, < 60 s."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = -np.inf
    for _ in range(200):
        n = int(rng.integers(2, 4))
        rates = rng.uniform(0.0, 6.0, size=n)
        rates[int(rng.integers(n))] += 0.5
        utils = [LogUtility(rng.uniform(0.05, 5.0)) for _ in range(n)]
        shares, _ = allocate_ts(rates, utils)
        value = aggregate_utility(shares, rates, utils)
        _, grid_value = grid_search_shares(rates, utils, step=1e-3)
        worst = max(worst, grid_value - value)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    report(
        "criterion 2 (TS vs grid oracle)",
        ok,
        f"max shortfall vs grid {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_greedy_optimality():
    """Greedy slot allocation exactly matches exhaustive enumeration on 100
    random instances with N <= 4, L <= 6, M <= 3, < 60 s."""
    rng = np.random.default_rng(303)
    link = LinkBudget(snr_gap_db=8.2)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        slots = int(rng.integers(1, 7))
        bits = int(rng.integers(1, 4))
        utilities = [LogUtility(float(a)) for a in rng.uniform(0.05, 5.0, size=n)]
        means = rng.uniform(0.3, 20.0, size=n)
        quantizer = Quantizer(means, bits)
        sched = QuantizedScheduler(utilities, quantizer, link, slots)
        states = rng.integers(1, 2**bits + 1, size=n)
        greedy = sched.objective(states, sched.greedy_allocate(states))
        best = sched.objective(states, sched.exhaustive_allocate(states))
        if greedy != best:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(
        "criterion 3 (greedy = exhaustive)",
        ok,
        f"{mismatches} mismatches in 100 instances, {elapsed:.1f}s",
    )


def test_criterion_04_gauss_seidel():
    """20 random 2-user joint solves: nondecreasing objective (1e-12), power
    residual <= 1e-6, and domination of the constant-power baseline."""
    rng = np.random.default_rng(404)
    link = LinkBudget(snr_gap_db=8.2)
    worst_drop = 0.0
    worst_residual = 0.0
    worst_margin = np.inf
    for _ in range(20):
        n_samples = int(rng.integers(40, 81))
        gains = rng.exponential(rng.uniform(0.5, 8.0), size=(n_samples, 2))
        budgets = rng.uniform(0.5, 2.0, size=2)
        utility = LogUtility(float(rng.uniform(0.05, 2.0)))
        policy, trace = solve_uplink(gains, utility, budgets, link)
        drops = -np.diff(trace.objectives)
        worst_drop = max(worst_drop, drops.max() if drops.size else 0.0)
        residual = np.abs(policy.energies.mean(axis=0) - budgets) / budgets
        worst_residual = max(worst_residual, residual.max())
        baseline = constant_power_objective(gains, utility, budgets, link)
        worst_margin = min(worst_margin, trace.objectives[-1] - baseline)
    ok = worst_drop <= 1e-12 and worst_residual <= 1e-6 and worst_margin >= -1e-9
    report(
        "criterion 4 (Gauss-Seidel)",
        ok,
        f"max objective drop {worst_drop:.2e}, max power residual {worst_residual:.2e}, "
        f"min margin over constant power {worst_margin:.3e}",
    )


def test_criterion_05_rate_tradeoff_trend():
    """N=8 symmetric users at 10 dB, 8.2 dB gap, 1e4 matched frames: rate
    spread grows with the concavity knob and the gradient scheduler tops the
    least concave time-sharing run in mean rate; < 30 s."""
    start = time.perf_counter()
    base = dict(users=8, mean_snr_db=10.0, snr_gap_db=8.2, frames=10_000, seed=55)
    stds = []
    means = []
    for concavity in (0.1, 1.0, 10.0):
        stats = run_experiment(ExperimentConfig(policy="ts", concavity=concavity, **base))
        stds.append(stats.rate_std.mean())
        means.append(stats.mean_rate.mean())
    # the gradient scheduler's selection is concavity-invariant under
    # symmetric channels up to smoothing noise; run it at the concavity of
    # the time-sharing arm it is compared against
    gs = run_experiment(ExperimentConfig(policy="gs", concavity=10.0, **base))
    elapsed = time.perf_counter() - start
    ok = stds[0] < stds[1] < stds[2] and gs.mean_rate.mean() >= means[-1] and elapsed < 30.0
    report(
        "criterion 5 (rate tradeoff trend)",
        ok,
        f"rate stds {[round(s, 4) for s in stds]}, GS mean {gs.mean_rate.mean():.4f} "
        f">= TS(A=10) mean {means[-1]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_06_power_control_gain_fades_at_high_snr():
    """Symmetric 2-user sweep: the relative joint-power-control gain over
    plain time sharing is smaller at 25-30 dB than at 0-5 dB."""
    def relative_gain(snr_db):
        base = dict(
            users=2, mean_snr_db=snr_db, snr_gap_db=8.2, concavity=0.1,
            frames=2000, seed=66,
        )
        ts = run_experiment(ExperimentConfig(policy="ts", **base))
        jtpc = run_experiment(
            ExperimentConfig(policy="jtpc", power_budget=1.0, training_samples=150, **base)
        )
        return (jtpc.taur - ts.taur) / ts.taur

    low = np.mean([relative_gain(0.0), relative_gain(5.0)])
    high = np.mean([relative_gain(25.0), relative_gain(30.0)])
    ok = high < low
    report(
        "criterion 6 (power-control gain fades)",
        ok,
        f"relative gain {low:.4f} at 0-5 dB vs {high:.4f} at 25-30 dB",
    )


def test_criterion_07_quantized_sharing_trends():
    """Quantized sharing with 3 feedback bits and one slot per user reaches
    95% of unquantized TAUR; TAUR is nondecreasing in the feedback bits; and
    8 users on 4 slots beat 4 fully shared users."""
    base = dict(mean_snr_db=10.0, snr_gap_db=8.2, concavity=0.1, frames=10_000, seed=77)
    ts8 = run_experiment(ExperimentConfig(users=8, policy="ts", **base))
    by_bits = [
        run_experiment(
            ExperimentConfig(users=8, policy="qtsl", slots=8, feedback_bits=m, **base)
        ).taur
        for m in (1, 2, 3)
    ]
    ratio = by_bits[-1] / ts8.taur
    qtsl_half = run_experiment(
        ExperimentConfig(users=8, policy="qtsl", slots=4, feedback_bits=3, **base)
    )
    ts4 = run_experiment(ExperimentConfig(users=4, policy="ts", **base))
    ok = (
        ratio >= 0.95
        and by_bits[0] <= by_bits[1] <= by_bits[2]
        and qtsl_half.taur > ts4.taur
    )
    report(
        "criterion 7 (quantized sharing trends)",
        ok,
        f"3-bit/unquantized ratio {ratio:.4f}, taur by bits {[round(t, 4) for t in by_bits]}, "
        f"8 users on 4 slots {qtsl_half.taur:.4f} > 4 users shared {ts4.taur:.4f}",
    )


def test_criterion_08_fairness_equalization():
    """Users at 0 and 10 dB: weight adaptation equalizes average utilities to
    1e-3 within 50 iterations and agrees with a bisection oracle on the
    weight ratio to 1e-3."""
    snr = np.array([0.0, 10.0])
    n_samples, seed = 1500, 88
    link = LinkBudget(snr_gap_db=8.2)
    u = LogUtility(0.1)
    model = ChannelModel.from_snr_db(snr, link)
    weights, rep = adapt_weights(
        model, u, link, tolerance=1e-3, frames=n_samples, seed=seed, max_iterations=50
    )

    gains = np.stack([sample_gains(model, seed, t) for t in range(n_samples)])
    rates = achievable_rate(gains, link.transmit_power, link)
    lo, hi = 0.5, 1.0
    for _ in range(40):
        w1 = 0.5 * (lo + hi)
        avg = average_utilities(rates, u, np.array([w1, 1.0 - w1]))
        if avg[0] < avg[1]:
            lo = w1
        else:
            hi = w1
    oracle_w1 = 0.5 * (lo + hi)
    ok = rep.spread <= 1e-3 and rep.iterations <= 50 and abs(weights[0] - oracle_w1) <= 1e-3
    report(
        "criterion 8 (fairness equalization)",
        ok,
        f"spread {rep.spread:.2e} in {rep.iterations} iterations, "
        f"weight {weights[0]:.5f} vs oracle {oracle_w1:.5f}",
    )


def test_criterion_09_derivatives_and_concavity():
    """Analytic marginals match centered differences to 1e-6 relative at 100
    points; directional second differences stay <= 1e-8 at 1000 points."""
    rng = np.random.default_rng(909)
    link = LinkBudget(snr_gap_db=3.0)
    worst_rel = 0.0
    for _ in range(100):
        u = LogUtility(rng.uniform(0.05, 5.0))
        c = rng.uniform(0.1, 8.0)
        rho = rng.uniform(0.05, 0.95)
        s = rng.uniform(0.1, 4.0)
        g = rng.uniform(0.1, 10.0)
        a = u.marginal_share(c, rho)
        fd = central_difference(lambda x: float(u.value(x * c)), rho)
        worst_rel = max(worst_rel, abs(a - fd) / max(1.0, abs(a)))
        a = u.marginal_energy(rho, s, g, link)
        fd = central_difference(lambda x: float(u.value_with_energy(rho, x, g, link)), s)
        worst_rel = max(worst_rel, abs(a - fd) / max(1.0, abs(a)))

    worst_curv = -np.inf
    h = 1e-3
    u = LogUtility(0.2)
    for _ in range(1000):
        rho = rng.uniform(0.1, 0.9)
        s = rng.uniform(0.1, 3.0)
        g = rng.uniform(0.1, 8.0)
        d = rng.normal(size=2)
        d /= np.hypot(*d)
        f = lambda t: float(u.value_with_energy(rho + t * h * d[0], s + t * h * d[1], g, link))
        worst_curv = max(worst_curv, f(1) + f(-1) - 2 * f(0))
    ok = worst_rel <= 1e-6 and worst_curv <= 1e-8
    report(
        "criterion 9 (derivatives + concavity)",
        ok,
        f"max relative derivative error {worst_rel:.2e}, "
        f"max directional second difference {worst_curv:.2e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Identical CLI invocations and manifest replays produce byte-identical
    CSV output."""
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    argv = ["ts-sweep", "--users", "4,8", "--concavity", "0.1", "--frames", "200"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    identical = (out1 / "ts_sweep.csv").read_bytes() == (out2 / "ts_sweep.csv").read_bytes()
    replay_status = main(["replay", str(out1 / "ts_sweep.manifest.json"),
                          "--output", str(out3)])
    replay_identical = (
        (out3 / "ts_sweep.csv").read_bytes() == (out1 / "ts_sweep.csv").read_bytes()
    )
    ok = identical and replay_status == 0 and replay_identical
    report(
        "criterion 10 (CLI determinism)",
        ok,
        f"rerun identical: {identical}, replay verified: {replay_status == 0}",
    )
