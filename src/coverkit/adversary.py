"""Verification machinery for the clock counterexamples.

The coverage-collapse argument rests on three training-set events: the
labels all stay below the extreme quantile, the modular sum of cell
indices lands in a small window, and every rotation of that window still
captures enough training cells. This module detects the events, computes
the window size from (n, M, alpha), estimates the event probabilities by
Monte Carlo, and checks the deterministic consequence: whenever all three
events hold, the full-conformal and jackknife+ sets produced by the clock
algorithms sit entirely above the label quantile.

The set computations here are closed forms that exploit the two-valued
structure of the clock fits; they agree exactly with running the generic
constructions in :mod:`coverkit.conformal` against the clock algorithms
(tested), but scale to n in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .core import Dataset, derive_rng, order_stat_index, plus_bounds
from .regressors import ClockConfig

__all__ = [
    "EventReport",
    "EventRates",
    "check_events",
    "compute_M1",
    "collapse_check",
    "event_rates_montecarlo",
    "dkw_statistic",
    "adversary_full_bounds",
    "adversary_jackknife_bounds",
    "default_clock_sampler",
    "gaussian_label_quantile",
]


@dataclass(frozen=True)
class EventReport:
    """Which of the three clock events hold on a given training set."""

    e_max: bool
    e_mod: bool
    e_unif: bool

    @property
    def all_three(self) -> bool:
        return self.e_max and self.e_mod and self.e_unif


@dataclass(frozen=True)
class EventRates:
    """Monte Carlo frequencies of the three events and their intersection."""

    p_mod: float
    p_max: float
    p_unif: float
    p_all: float
    trials: int


def compute_M1(n: int, M: int, alpha: float) -> int:
    """Window size floor(M * (alpha - sqrt(2 ln n / n) - 2/n)), clamped at 0.

    For small n the correction exceeds alpha and the window is empty; the
    adversarial demonstration then degenerates (the fits never trigger),
    which mirrors the vacuity of the theoretical floor in that regime.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if M < 2:
        raise ValueError("M must be at least 2")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly in (0, 1)")
    inner = alpha - math.sqrt(2.0 * math.log(n) / n) - 2.0 / n
    return max(0, math.floor(M * inner))


def _window_min_count(cells: np.ndarray, M: int, M1: int) -> int:
    """min over all rotations of the circular (M - M1)-cell window count.

    Uses a histogram plus prefix sums: every rotation of the window is a
    contiguous circular block of width M - M1, so all M counts come from
    one cumulative-sum pass instead of an O(n * M) scan.
    """
    width = M - M1
    hist = np.bincount(cells, minlength=M)
    csum = np.concatenate(([0], np.cumsum(np.concatenate([hist, hist]))))
    starts = np.arange(M)
    window_sums = csum[starts + width] - csum[starts]
    return int(window_sums.min())


def check_events(train: Dataset, config: ClockConfig, alpha: float) -> EventReport:
    """Evaluate the three events on a training set.

    The third event quantifies over all integer rotations, but rotations
    repeat with period M, so checking m = 0, ..., M-1 is exact.
    """
    cells = np.asarray(config.cell_map(train.x), dtype=int)
    n = len(train)
    e_max = bool(np.max(np.abs(train.y)) < config.y_star) if n else True
    e_mod = int(cells.sum()) % config.M < config.M1
    need = order_stat_index(n, alpha)
    e_unif = _window_min_count(cells, config.M, config.M1) >= need
    return EventReport(e_max=e_max, e_mod=e_mod, e_unif=e_unif)


def adversary_full_bounds(
    train: Dataset, config: ClockConfig, alpha: float, probes
) -> tuple[np.ndarray, np.ndarray]:
    """Full-conformal interval endpoints under the clock-full algorithm.

    The clock fit ignores the hypothesized label, and the probe's own cell
    cancels out of the modular sum at the probe itself, so the set at each
    probe is a single interval [c - q, c + q]: c is 2*y_star or 0 depending
    on the training cells alone, and q is the rank-k training residual.
    Returns (lower, upper) arrays over the probe batch.
    """
    M, M1, y_star = config.M, config.M1, config.y_star
    cells = np.asarray(config.cell_map(train.x), dtype=np.int32)
    probe_cells = np.asarray(config.cell_map(np.atleast_2d(probes)), dtype=np.int32)
    n = len(train)
    m = probe_cells.size
    k = order_stat_index(n, alpha)
    if k > n:
        return np.full(m, -np.inf), np.full(m, np.inf)
    total = int(cells.sum())
    center = 2.0 * y_star if total % M < M1 else 0.0
    # mu at training point i when the probe is appended: depends on the
    # probe only through its cell. Rows indexed by probe so the rank
    # selection runs along contiguous memory.
    in_window = np.mod(probe_cells[:, None] - cells[None, :] + total, M) < M1
    mu_train = np.where(in_window, 2.0 * y_star, 0.0)
    abs_resid = np.abs(train.y[None, :] - mu_train)
    radius = np.partition(abs_resid, k - 1, axis=1)[:, k - 1]
    return center - radius, center + radius


def adversary_jackknife_bounds(
    train: Dataset, config: ClockConfig, alpha: float, probes
) -> tuple[np.ndarray, np.ndarray]:
    """Jackknife+ interval endpoints under the clock-jackknife algorithm.

    Leaving point i out shifts the modular sum by -cell(i); at the left-out
    point itself the shift cancels, so every leave-one-out residual is
    |y_i| or |y_i - 2*y_star| according to one shared window test, while
    the prediction at a probe depends on (probe cell - cell(i)).
    """
    M, M1, y_star = config.M, config.M1, config.y_star
    cells = np.asarray(config.cell_map(train.x), dtype=np.int32)
    probe_cells = np.asarray(config.cell_map(np.atleast_2d(probes)), dtype=np.int32)
    if len(train) < 2:
        raise ValueError("jackknife+ needs at least 2 training points")
    total = int(cells.sum())
    own_low = total % M < M1  # mu_{-i}(x_i) = 0 for every i iff this holds
    residuals = np.abs(train.y - (0.0 if own_low else 2.0 * y_star))
    in_window = np.mod(probe_cells[:, None] + total - cells[None, :], M) < M1
    mu_probe = np.where(in_window, 0.0, 2.0 * y_star)
    return plus_bounds(mu_probe, residuals, alpha)


def collapse_check(
    train: Dataset,
    config: ClockConfig,
    alpha: float,
    method: Literal["full", "jk"],
    probes,
) -> bool:
    """Deterministic collapse: every probe's set lies inside (y_star, inf).

    Only valid when all three events hold on ``train`` (checked; raises
    otherwise). This is an exact assertion, not a statistical one: on an
    event-satisfying training set there is no probe, anywhere, whose set
    reaches down to y_star.
    """
    report = check_events(train, config, alpha)
    if not report.all_three:
        raise ValueError(
            "collapse_check requires all three events to hold "
            f"(got e_max={report.e_max}, e_mod={report.e_mod}, "
            f"e_unif={report.e_unif})"
        )
    if method == "full":
        lower, upper = adversary_full_bounds(train, config, alpha, probes)
    elif method == "jk":
        lower, upper = adversary_jackknife_bounds(train, config, alpha, probes)
    else:
        raise ValueError(f"method must be 'full' or 'jk', got {method!r}")
    empty = lower > upper
    return bool(np.all(empty | (lower > config.y_star)))


def gaussian_label_quantile(n: int) -> float:
    """(1 - 1/n^2)-quantile of |Y| for Y ~ N(0, 1), computed analytically."""
    from scipy.stats import norm

    return float(norm.ppf(1.0 - 0.5 / n**2))


def default_clock_sampler(
    n: int, rng: np.random.Generator
) -> Dataset:
    """Demo distribution for the clock experiments.

    Features are one-dimensional Unif[0, 1] (so the default cell map is
    exactly equiprobable) and labels are standard Gaussian, independent of
    the features.
    """
    x = rng.uniform(0.0, 1.0, size=(n, 1))
    y = rng.standard_normal(n)
    return Dataset(x, y)


def event_rates_montecarlo(
    n: int,
    config: ClockConfig,
    alpha: float,
    trials: int,
    seed: int,
    sampler: Callable[[int, np.random.Generator], Dataset] = default_clock_sampler,
) -> EventRates:
    """Empirical frequencies of the three events over fresh training draws.

    ``sampler`` must draw from the same distribution the config was built
    for (cells uniform under the cell map, y_star the right label
    quantile); the default pairs with :func:`default_clock_sampler`.
    Per-trial generators are derived from ``seed`` and the trial index, so
    results do not depend on execution order.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for stable frequencies")
    hits = np.zeros(4, dtype=int)
    for t in range(trials):
        train = sampler(n, derive_rng(seed, t))
        report = check_events(train, config, alpha)
        hits += (report.e_mod, report.e_max, report.e_unif, report.all_three)
    p_mod, p_max, p_unif, p_all = hits / trials
    return EventRates(
        p_mod=float(p_mod),
        p_max=float(p_max),
        p_unif=float(p_unif),
        p_all=float(p_all),
        trials=trials,
    )


def dkw_statistic(uniforms) -> float:
    """Exact sup over s in [0, 1] of |#{U_i < s} - n*s|.

    The count uses a strict inequality, so the piecewise-linear process
    jumps at each sample value; the supremum is attained at a one-sided
    limit there, and scanning left and right limits of every distinct
    value (plus the interval endpoints) is exact.
    """
    u = np.sort(np.asarray(uniforms, dtype=float).ravel())
    if u.size == 0:
        raise ValueError("need at least one sample")
    if u[0] < 0.0 or u[-1] > 1.0:
        raise ValueError("samples must lie in [0, 1]")
    n = u.size
    values, first_idx, counts = np.unique(u, return_index=True, return_counts=True)
    below = first_idx.astype(float)  # strictly-less count at each value
    left_limits = below - n * values
    right_limits = below + counts - n * values
    candidates = np.abs(np.concatenate([left_limits, right_limits]))
    # the endpoints: f(0) = 0 and f(1) = #{U_i < 1} - n, linear in between
    f_one = float(np.count_nonzero(u < 1.0) - n)
    return float(max(candidates.max(), abs(f_one), 0.0))
