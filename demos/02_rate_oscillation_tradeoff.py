"""Mean rate versus rate oscillation as the concavity knob turns.

Eight symmetric users, 10 dB average SNR.  Strong concavity (small A)
smooths every user's rate at some cost in average rate; weak concavity
approaches the gradient scheduler, which maximizes mean rate but swings
hard frame to frame.  The numbers print as a small table; pipe them into
any plotting tool for the classic tradeoff curve.
"""

from utilsched import ExperimentConfig, run_experiment


def main():
    base = dict(users=8, mean_snr_db=10.0, snr_gap_db=8.2, frames=10_000, seed=7)

    print(f"{'policy':>12} {'concavity':>10} {'mean rate':>10} {'rate std':>10}")
    for concavity in (0.1, 1.0, 10.0):
        stats = run_experiment(ExperimentConfig(policy="ts", concavity=concavity, **base))
        print(f"{'time-share':>12} {concavity:>10} "
              f"{stats.mean_rate.mean():>10.4f} {stats.rate_std.mean():>10.4f}")

    gs = run_experiment(ExperimentConfig(policy="gs", concavity=10.0, **base))
    print(f"{'gradient':>12} {'-':>10} {gs.mean_rate.mean():>10.4f} {gs.rate_std.mean():>10.4f}")
    print("\nSmaller concavity buys a steadier rate; the gradient scheduler "
          "maxes the average but oscillates the most.")


if __name__ == "__main__":
    main()
