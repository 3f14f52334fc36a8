"""Equalizing long-run utilities between unequal users.

A user at 0 dB shares the cell with one at 10 dB.  Plain aggregate-utility
scheduling starves the weak user, so we maximize a weighted aggregate and
adapt the weights until both users' time-averaged utilities meet.  Every
intermediate weight vector is still an exact weighted-sum maximizer, so
the walk stays on the Pareto frontier the whole way.
"""

import numpy as np

from utilsched import (
    ChannelModel,
    LinkBudget,
    LogUtility,
    achievable_rate,
    adapt_weights,
    average_utilities,
    sample_gains,
)


def main():
    link = LinkBudget(snr_gap_db=8.2)
    model = ChannelModel.from_snr_db(np.array([0.0, 10.0]), link)
    utility = LogUtility(0.1)
    frames, seed = 1500, 3

    gains = np.stack([sample_gains(model, seed, t) for t in range(frames)])
    rates = achievable_rate(gains, link.transmit_power, link)
    unweighted = average_utilities(rates, utility, np.array([0.5, 0.5]))
    print("average utilities at uniform weights:", np.round(unweighted, 4),
          "(the 0 dB user starves)")

    weights, report = adapt_weights(
        model, utility, link, tolerance=1e-3, frames=frames, seed=seed
    )
    print(f"\nconverged in {report.iterations} iterations")
    print("final weights:", np.round(weights, 4))
    print("average utilities:", np.round(report.average_utilities, 4),
          f"(spread {report.spread:.1e})")
    print(f"common utility level: {report.common_value:.4f}")


if __name__ == "__main__":
    main()
