"""When does adapting power on top of time matter?

Two symmetric users. The joint solver spreads each user's average power
budget across channel states (more energy where it buys more utility),
then re-splits each frame. Its edge over plain time sharing is large in
the power-limited regime and fades as the average SNR grows, because the
rate is concave in power but linear in time.
"""

import numpy as np

from utilsched import ExperimentConfig, run_experiment


def main():
    print(f"{'snr (dB)':>9} {'time-share':>11} {'joint':>9} {'gain %':>7}")
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        base = dict(
            users=2, mean_snr_db=snr_db, snr_gap_db=8.2, concavity=0.1,
            frames=2000, seed=21,
        )
        ts = run_experiment(ExperimentConfig(policy="ts", **base))
        joint = run_experiment(
            ExperimentConfig(policy="jtpc", power_budget=1.0, training_samples=150, **base)
        )
        gain = 100.0 * (joint.taur - ts.taur) / ts.taur
        print(f"{snr_db:>9.0f} {ts.taur:>11.4f} {joint.taur:>9.4f} {gain:>7.2f}")
    print("\nThe relative gain collapses at high SNR: power control is "
          "barely worth its complexity there.")


if __name__ == "__main__":
    main()
