"""The clock construction: making jackknife+ fail on purpose.

A symmetric, deterministic regression algorithm whose output flips between
0 and twice an extreme label quantile based on a modular sum of feature
cells. On a small but non-negligible fraction of training sets (three
detectable events), every prediction interval lands entirely above the
label distribution and coverage collapses to ~0%.

Run:  python demos/03_coverage_collapse.py   (a few seconds)
"""

import numpy as np

from coverkit import collapse_check
from coverkit.experiments import (
    ADVERSARY_JK,
    ExperimentConfig,
    adversary_training_set,
    run_trials,
)


def main():
    n = 2000
    alpha = 0.1
    config = ExperimentConfig(
        n=n, n_test=500, d=1, alpha=alpha, trials=200, master_seed=3,
        mode=ADVERSARY_JK,
    )
    clock = config.clock_config()
    print(f"n = M = {n}: window M1 = {clock.M1} (P(trigger) = {clock.M1 / clock.M:.4f}), "
          f"label quantile y* = {clock.y_star:.3f}\n")

    records = run_trials(config, workers=2)
    alpha_hats = np.array([r.alpha_hat for r in records])
    triggered = np.array([r.events.all_three for r in records])

    print(f"trials with all three events: {triggered.sum()} / {len(records)} "
          f"(expected about {clock.M1 / clock.M:.3f} of them)")
    print(f"mean alpha_hat over all trials:      {alpha_hats.mean():.3f}  (marginal view: fine)")
    print(f"alpha_hat on event trials:           {alpha_hats[triggered].round(3).tolist()}")
    print(f"median alpha_hat on ordinary trials: {np.median(alpha_hats[~triggered]):.3f}")

    # the collapse is deterministic, not statistical: verify set placement
    # at fresh probe points on the first event trial
    trial = int(np.flatnonzero(triggered)[0])
    train = adversary_training_set(config, trial)
    probes = np.random.default_rng(0).uniform(0, 1, (1000, 1))
    print(
        f"\ntrial {trial}: every jackknife+ interval at 1000 fresh probes sits "
        f"above y*: {collapse_check(train, clock, alpha, 'jk', probes)}"
    )


if __name__ == "__main__":
    main()
