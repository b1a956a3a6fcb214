"""Recompute paper-sim trials with coverkit's generic refit constructions.

The draw and the fold partition of each requested trial are re-derived from
the master seed here, in this file's own code, following the documented
replay scheme: the trial's stream is ``default_rng([seed, trial])``, which
gives the signal direction (scaled to norm sqrt(10)), then the n + n_test
features, then the noise; the cv+ fold seed comes from the stream
``default_rng([seed, trial, 7])``. Each method is then rebuilt from the
public constructions: ``split_conformal``, ``full_conformal_ridge_exact``
at every test point, ``jackknife_plus_bounds`` and ``cv_plus_bounds``,
which refit instead of using the trial engine's Gram identities.

The benchmark runs this file in a child process with single-threaded BLAS,
after its timed section, because refitting 1000 exact sets at d = n costs
several times more with the default threads on two cores. Usage:

    python3 perfbench/paper_reference.py '{"n": 500, "n_test": 1000, ...}'

It prints one JSON list of [d, trial, method, alpha_hat, mean_width].
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from common import load_coverkit


def rederive(n: int, n_test: int, d: int, seed: int, trial: int):
    rng = np.random.default_rng([seed & 0xFFFFFFFF, trial])
    direction = rng.standard_normal(d)
    beta = math.sqrt(10.0) * direction / np.linalg.norm(direction)
    x = rng.standard_normal((n + n_test, d))
    y = x @ beta + rng.standard_normal(n + n_test)
    fold_seed = int(
        np.random.default_rng([seed & 0xFFFFFFFF, trial, 7]).integers(0, 2**31 - 1)
    )
    return x, y, fold_seed


def reference_trial(spec: dict, d: int, trial: int) -> list:
    from coverkit import (
        Dataset, RidgeConfig, cv_plus_bounds, full_conformal_ridge_exact,
        jackknife_plus_bounds, make_folds, ridge_algorithm, split_conformal,
    )

    n, n_test, alpha = spec["n"], spec["n_test"], spec["alpha"]
    ridge = RidgeConfig(spec["penalty"])
    algo = ridge_algorithm(ridge)
    x, y, fold_seed = rederive(n, n_test, d, spec["seed"], trial)
    train = Dataset(x[:n], y[:n])
    x_test, y_test = x[n:], y[n:]

    def stats(lower, upper):
        covered = (y_test >= lower) & (y_test <= upper)
        return float(np.mean(~covered)), float(np.mean(np.maximum(upper - lower, 0.0)))

    out = []
    n0 = n // 2
    split = split_conformal(
        train.subset(range(n0)), train.subset(range(n0, n)), algo, alpha
    )
    center = np.asarray(split.model(x_test))
    out.append(("split", *stats(center - split.radius, center + split.radius)))

    sets = [full_conformal_ridge_exact(train, x_test[t], ridge, alpha) for t in range(n_test)]
    miss = np.mean([y_test[t] not in s for t, s in enumerate(sets)])
    out.append(("full", float(miss), float(np.mean([s.total_width for s in sets]))))

    out.append(("jackknife+", *stats(*jackknife_plus_bounds(train, x_test, algo, alpha))))
    folds = make_folds(n, spec["K"], fold_seed)
    out.append(("cv+", *stats(*cv_plus_bounds(train, x_test, algo, alpha, folds))))
    return [[d, trial, method, a, w] for method, a, w in out]


def main(argv) -> int:
    load_coverkit()
    spec = json.loads(argv[1])
    rows = []
    for d, trial in spec["trials"]:
        rows.extend(reference_trial(spec, d, trial))
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
