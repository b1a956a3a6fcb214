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
(tested). Each endpoint is one order statistic over the training points
sorted by cell, selected for all probes at once by a wavelet matrix, so
a batch of m probes costs O((n + m) log n) time and O(n + m) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .core import Dataset, derive_rng, order_stat_index
from .regressors import ClockConfig

__all__ = [
    "EventReport",
    "EventRates",
    "check_events",
    "compute_M1",
    "collapse_check",
    "event_rates_montecarlo",
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
    n = len(train)
    if n == 0:
        raise ValueError("check_events needs a non-empty training set")
    cells = np.asarray(config.cell_map(train.x), dtype=int)
    e_max = bool(np.max(np.abs(train.y)) < config.y_star)
    e_mod = int(cells.sum()) % config.M < config.M1
    need = order_stat_index(n, alpha)
    e_unif = _window_min_count(cells, config.M, config.M1) >= need
    return EventReport(e_max=e_max, e_mod=e_mod, e_unif=e_unif)


def _window_ranges(
    config: ClockConfig, train: Dataset, probes
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Training points in cell order, and each probe's window as index ranges.

    A probe in cell c changes the clock model only at the training points
    whose cell lies in the circular run of M1 cells that ends at cell
    (c + total) mod M, where total is the training cell sum. With the
    points sorted by cell, that run is one index range, or two when it
    wraps past cell 0, and its complement is the rest. Returns ``(order,
    total, lo, hi)``: ``order`` sorts the training points by cell, and row
    t of ``lo`` and ``hi`` holds probe t's four half-open ranges over a
    layout of length 2n, the window's points in the first half and the
    other points in the second, both in cell order. Some ranges are empty.
    """
    M, M1 = config.M, config.M1
    cells = np.asarray(config.cell_map(train.x), dtype=np.int64) % M  # only cells mod M matter
    probe_cells = np.asarray(config.cell_map(np.atleast_2d(probes)), dtype=np.int64)
    n = cells.size
    total = int(cells.sum())
    order = np.argsort(cells)
    sorted_cells = cells[order]
    last = (probe_cells + total) % M
    first = last - M1 + 1
    start = np.searchsorted(sorted_cells, np.maximum(first, 0))
    stop = np.searchsorted(sorted_cells, last + 1)
    wrap = np.where(first < 0, np.searchsorted(sorted_cells, first + M), n)
    end = np.full_like(start, n)
    lo = np.stack((start, wrap, end, n + stop), axis=1)
    hi = np.stack((stop, end, n + start, n + wrap), axis=1)
    return order, total, lo, hi


def _kth_in_ranges(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, rank: int
) -> np.ndarray:
    """The ``rank``-th smallest (0-based) of ``values`` over each row's ranges.

    Row t of ``lo`` and ``hi`` holds disjoint half-open index ranges whose
    union has more than ``rank`` points. A wavelet matrix over the ranks of
    ``values`` (Claude, Navarro & Ordonez, "The wavelet matrix",
    Information Systems 47, 2015) answers every row at once: each bit level
    is one stable partition of the codes, and one step of every row's
    descent, so the cost is O((len(values) + rows) log len(values)). Ties
    count with multiplicity, as in a sort, and equal values may be ranked
    in any order.
    """
    order = np.argsort(values)
    codes = np.empty(values.size, dtype=np.int64)
    codes[order] = np.arange(values.size)
    k = np.full(lo.shape[0], rank, dtype=np.int64)
    found = np.zeros(lo.shape[0], dtype=np.int64)
    for level in reversed(range((values.size - 1).bit_length())):
        zero = (codes >> level) & 1 == 0
        zeros_before = np.concatenate(([0], np.cumsum(zero)))
        zeros = zeros_before[-1]
        zlo, zhi = zeros_before[lo], zeros_before[hi]
        count = (zhi - zlo).sum(axis=1)
        go_one = k >= count
        k -= np.where(go_one, count, 0)
        found = 2 * found + go_one
        lo = np.where(go_one[:, None], zeros + lo - zlo, zlo)
        hi = np.where(go_one[:, None], zeros + hi - zhi, zhi)
        codes = np.concatenate((codes.compress(zero), codes.compress(~zero)))
    return values[order[found]]


def adversary_full_bounds(
    train: Dataset, config: ClockConfig, alpha: float, probes
) -> tuple[np.ndarray, np.ndarray]:
    """Full-conformal interval endpoints under the clock-full algorithm.

    The clock fit ignores the hypothesized label, and the probe's own cell
    cancels out of the modular sum at the probe itself, so the set at each
    probe is a single interval [c - q, c + q]: c is 2*y_star or 0 depending
    on the training cells alone, and q is the rank-k training residual,
    |y - 2*y_star| inside the probe's window and |y| outside it.
    Returns (lower, upper) arrays over the probe batch.
    """
    M, M1, y_star = config.M, config.M1, config.y_star
    n = len(train)
    k = order_stat_index(n, alpha)
    order, total, lo, hi = _window_ranges(config, train, probes)
    if k > n:
        return np.full(lo.shape[0], -np.inf), np.full(lo.shape[0], np.inf)
    center = 2.0 * y_star if total % M < M1 else 0.0
    y = train.y[order]
    residuals = np.concatenate((np.abs(y - 2.0 * y_star), np.abs(y)))
    radius = _kth_in_ranges(residuals, lo, hi, k - 1)
    return center - radius, center + radius


def adversary_jackknife_bounds(
    train: Dataset, config: ClockConfig, alpha: float, probes
) -> tuple[np.ndarray, np.ndarray]:
    """Jackknife+ interval endpoints under the clock-jackknife algorithm.

    Leaving point i out shifts the modular sum by -cell(i); at the left-out
    point itself the shift cancels, so every leave-one-out residual is
    |y_i| or |y_i - 2*y_star| according to one shared window test, while
    the prediction at a probe is 0 for the points in the probe's window and
    2*y_star for the others. As in :func:`coverkit.core.plus_bounds`, the
    lower endpoint is the k-th largest of mu - R and the upper the k-th
    smallest of mu + R.
    """
    M, M1, y_star = config.M, config.M1, config.y_star
    n = len(train)
    if n < 2:
        raise ValueError("jackknife+ needs at least 2 training points")
    k = order_stat_index(n, alpha)
    order, total, lo, hi = _window_ranges(config, train, probes)
    if k > n:
        return np.full(lo.shape[0], -np.inf), np.full(lo.shape[0], np.inf)
    own_low = total % M < M1  # mu_{-i}(x_i) = 0 for every i iff this holds
    residuals = np.abs(train.y[order] - (0.0 if own_low else 2.0 * y_star))
    inside, outside = 0.0, 2.0 * y_star  # mu_{-i} at the probe
    lower = _kth_in_ranges(
        np.concatenate((inside - residuals, outside - residuals)), lo, hi, n - k
    )
    upper = _kth_in_ranges(
        np.concatenate((inside + residuals, outside + residuals)), lo, hi, k - 1
    )
    return lower, upper


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
