"""How much channel feedback does the scheduler actually need?

Real systems report a quantized channel state (a few bits) and cut the
frame into a fixed number of slots.  The slot allocator is greedy and
provably optimal for the quantized objective.  Two findings repeat here:
a couple of feedback bits recover almost all of the unquantized utility,
and eight users sharing four slots still beat four users sharing a whole
frame, because scheduling picks winners from a bigger pool.
"""

from utilsched import ExperimentConfig, run_experiment


def main():
    base = dict(mean_snr_db=10.0, snr_gap_db=8.2, concavity=0.1, frames=5000, seed=13)

    full = run_experiment(ExperimentConfig(users=8, policy="ts", **base))
    print(f"unquantized time sharing, 8 users: taur {full.taur:.4f}\n")

    print(f"{'feedback bits':>14} {'taur':>8} {'fraction of unquantized':>25}")
    for bits in (1, 2, 3):
        stats = run_experiment(
            ExperimentConfig(users=8, policy="qtsl", slots=8, feedback_bits=bits, **base)
        )
        print(f"{bits:>14} {stats.taur:>8.4f} {stats.taur / full.taur:>25.3f}")

    half_slots = run_experiment(
        ExperimentConfig(users=8, policy="qtsl", slots=4, feedback_bits=3, **base)
    )
    small_net = run_experiment(ExperimentConfig(users=4, policy="ts", **base))
    print(f"\n8 users on 4 slots: taur {half_slots.taur:.4f}")
    print(f"4 users, full sharing: taur {small_net.taur:.4f}")
    print("Multiuser selection beats granularity: the bigger pool wins "
          "even with half the slots and 3-bit feedback.")


if __name__ == "__main__":
    main()
