"""Distribution-free prediction set constructions.

Four methods over a shared interface (a dataset, a symmetric-or-not
regression algorithm, a target miscoverage level):

* split: train on one part, calibrate a symmetric radius on a holdout;
* full: refit with a hypothesized test label, keep labels whose residual
  rank is small enough -- grid-based for arbitrary algorithms, exact for
  ridge through the affine structure of its residuals;
* jackknife+ and cv+: order statistics of leave-one-out / fold-deleted
  predictions shifted by their residuals.

Also here: the holdout p-value and its population counterpart, estimated by
Monte Carlo from an independent sample.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    FittedModel,
    FoldPartition,
    PredictionSet,
    RegressionAlgorithm,
    kth_smallest,
    order_stat_index,
    plus_bounds,
)
from .regressors import RidgeConfig, _ridge_coefficients

__all__ = [
    "GridSpec",
    "SplitConformal",
    "split_conformal",
    "default_grid",
    "full_conformal_grid",
    "full_conformal_ridge_exact",
    "PredictionSetBatch",
    "affine_conformal_sets",
    "jackknife_plus",
    "jackknife_plus_bounds",
    "cv_plus",
    "cv_plus_bounds",
    "holdout_pvalue",
    "oracle_pvalue",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of candidate labels for grid-based full conformal."""

    lo: float
    hi: float
    resolution: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")
        if (self.hi - self.lo) / self.resolution > 1e7:
            raise ValueError("grid would exceed the 1e7-point guard")

    def values(self) -> np.ndarray:
        n_steps = int(round((self.hi - self.lo) / self.resolution))
        return self.lo + self.resolution * np.arange(n_steps + 1)


@dataclass(frozen=True)
class SplitConformal:
    """Fitted split-conformal predictor: a model plus a calibrated radius."""

    model: FittedModel
    radius: float

    def prediction_set(self, x) -> PredictionSet:
        if math.isinf(self.radius):
            return PredictionSet.real_line()
        return PredictionSet.centered(float(self.model(x)), self.radius)


def split_conformal(
    train: Dataset,
    holdout: Dataset,
    algo: RegressionAlgorithm,
    alpha: float,
    seed: int | None = None,
) -> SplitConformal:
    """Fit on ``train``, calibrate the interval radius on ``holdout``.

    The radius is the ceil((1-alpha)(n1+1))-th smallest absolute holdout
    residual; when that rank exceeds n1 the radius is +infinity and every
    prediction set is the whole real line (the conservative convention
    that keeps the coverage guarantee intact).
    """
    if len(train) == 0 or len(holdout) == 0:
        raise ValueError("train and holdout must both be nonempty")
    if train.d != holdout.d:
        raise ValueError(
            f"dimension mismatch: train d={train.d}, holdout d={holdout.d}"
        )
    model = algo.fit(train, seed)
    residuals = np.abs(holdout.y - np.asarray(model(holdout.x)))
    k = order_stat_index(len(holdout), alpha)
    if k > len(holdout):
        return SplitConformal(model=model, radius=math.inf)
    return SplitConformal(model=model, radius=kth_smallest(residuals, k))


def default_grid(train: Dataset) -> GridSpec:
    """Label grid covering the training labels generously.

    Spans mean +/- 5 IQR of the training labels in 2000 steps.
    """
    labels = train.y
    center = float(np.mean(labels))
    iqr = float(np.subtract(*np.percentile(labels, [75, 25])))
    if iqr <= 0:
        iqr = max(float(np.std(labels)), 1.0)
    lo, hi = center - 5 * iqr, center + 5 * iqr
    return GridSpec(lo=lo, hi=hi, resolution=(hi - lo) / 2000.0)


def full_conformal_grid(
    train: Dataset,
    x_new,
    algo: RegressionAlgorithm,
    alpha: float,
    grid: GridSpec | None = None,
    allow_asymmetric: bool = False,
    seed: int | None = None,
) -> PredictionSet:
    """Grid-based full conformal set at ``x_new``.

    For every candidate label y on the grid, refit on the training data
    augmented with (x_new, y); keep y when its own absolute residual is at
    most the ceil((1-alpha)(n+1))-th smallest of all n+1 residuals. Each
    maximal run of kept grid points is widened by one resolution step on
    both sides, so discretization can only enlarge the exact set, never
    shrink it.

    The coverage guarantee requires a symmetric algorithm; a non-symmetric
    one is rejected unless ``allow_asymmetric=True``.
    """
    if not algo.symmetric and not allow_asymmetric:
        raise ValueError(
            f"algorithm {algo.name!r} is not declared symmetric; full conformal "
            "requires symmetry (pass allow_asymmetric=True to override)"
        )
    if len(train) == 0:
        raise ValueError("training data must be nonempty")
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    if grid is None:
        grid = default_grid(train)
    ys = grid.values()
    if ys.size == 0:
        raise ValueError("empty grid")

    n = len(train)
    k = order_stat_index(n, alpha)
    if k > n:
        # rank n+1 of n+1 residuals: every candidate label qualifies
        return PredictionSet.real_line()

    included = np.zeros(ys.size, dtype=bool)
    for j, y in enumerate(ys):
        aug = train.append(x_new, y)
        model = algo.fit(aug, seed)
        residuals = np.abs(aug.y - np.asarray(model(aug.x)))
        included[j] = residuals[-1] <= kth_smallest(residuals, k)

    if not included.any():
        return PredictionSet.empty()
    if included[0] or included[-1]:
        warnings.warn(
            "full-conformal set touches the grid boundary; the returned set "
            "is truncated to the grid range",
            stacklevel=2,
        )
    idx = np.flatnonzero(included)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    run_starts = np.concatenate(([0], breaks + 1))
    run_ends = np.concatenate((breaks, [idx.size - 1]))
    step = grid.resolution
    pairs = [
        (ys[idx[s]] - step, ys[idx[e]] + step) for s, e in zip(run_starts, run_ends)
    ]
    return PredictionSet.from_intervals(pairs)


@dataclass(frozen=True)
class PredictionSetBatch:
    """Prediction sets of m points, stored as one flat list of intervals.

    Interval j is [lower[j], upper[j]] and belongs to point row[j]. Rows are
    nondecreasing; each point's intervals are sorted, disjoint and
    non-touching, and a point without intervals has the empty set.
    """

    lower: np.ndarray
    upper: np.ndarray
    row: np.ndarray
    m: int

    def prediction_set(self, t: int) -> PredictionSet:
        mine = self.row == t
        return PredictionSet(np.column_stack([self.lower[mine], self.upper[mine]]))

    def widths(self) -> np.ndarray:
        """Total width of each point's set; inf where it is unbounded."""
        return np.bincount(self.row, weights=self.upper - self.lower, minlength=self.m)

    def contains(self, y) -> np.ndarray:
        """Whether y[t] lies in point t's set, for every point t."""
        y = np.asarray(y, dtype=float)[self.row]
        inside = (y >= self.lower) & (y <= self.upper)
        return np.bincount(self.row, weights=inside, minlength=self.m) > 0


def affine_conformal_sets(a, b, a0, b0, alpha: float) -> PredictionSetBatch:
    """Exact full-conformal sets of m points whose residuals are affine in y.

    Row t holds one point: at candidate label y, training residual i is
    |a[t, i] + b[t, i] y| and the point's own residual is |a0[t] + b0[t] y|.
    Its set is {y : #(i : |a_i + b_i y| < |a0 + b0 y|) <= k - 1}, with
    k = ceil((1-alpha)(n+1)); rank overflow gives the whole line.

    Comparison i flips only where the two residuals cross in absolute
    value, at the roots of (a_i - a0) + (b_i - b0) y and (a_i + a0) +
    (b_i + b0) y. One sweep per row over the 2n sorted roots keeps the
    strict under-cut count (Nouretdinov, Melluish & Vovk, ICML 2001), for
    all rows at once. Isolated points, where the count dips only at a
    crossing, are dropped: they carry neither width nor probability.
    """
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    a0, b0 = np.atleast_1d(a0)[:, None], np.atleast_1d(b0)[:, None]
    m, n = a.shape
    k = order_stat_index(n, alpha)
    if k > n:
        whole = np.arange(m)
        return PredictionSetBatch(np.full(m, -np.inf), np.full(m, np.inf), whole, m)
    d_minus, d_plus = b - b0, b + b0
    num_minus, num_plus = a - a0, a + a0
    # (a_i + b_i y)^2 - (a0 + b0 y)^2 is the product of the two affine
    # factors, negative exactly where i under-cuts; its sign as y -> -inf
    # gives the starting state, and it is 0 everywhere for identical lines
    sign_minus = np.where(d_minus != 0, -np.sign(d_minus), np.sign(num_minus))
    sign_plus = np.where(d_plus != 0, -np.sign(d_plus), np.sign(num_plus))
    under = sign_minus * sign_plus < 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r_minus, r_plus = -num_minus / d_minus, -num_plus / d_plus
    # a constant factor has no root, identical lines have none at all; a
    # missing root is parked at +inf, where the sweep never reaches it
    np.copyto(r_minus, np.inf, where=(d_minus == 0) | (sign_plus == 0))
    np.copyto(r_plus, np.inf, where=(d_plus == 0) | (sign_minus == 0))
    roots = np.empty((m, 2 * n))
    np.minimum(r_minus, r_plus, out=roots[:, :n])
    np.maximum(r_minus, r_plus, out=roots[:, n:])
    # the first root of comparison i ends its starting state, the second
    # restores it
    first = np.where(under, -1, 1).astype(np.int8)
    deltas = np.concatenate([first, -first], axis=1) * (roots < np.inf)
    roots, deltas = roots.ravel(), deltas.ravel()
    order = np.argsort(roots.reshape(m, 2 * n), axis=1)
    order += np.arange(0, roots.size, 2 * n)[:, None]  # positions in the flat arrays
    count0 = under.sum(axis=1, keepdims=True)
    count = count0 + np.cumsum(deltas[order], axis=1)
    # segment j runs from bounds[j] to bounds[j + 1]; edge[:, j] is +1 where
    # a run of included segments starts at bounds[j] and -1 where one ends
    # there, so in each row starts and ends alternate
    included = np.concatenate([count0, count], axis=1) <= k - 1
    edge = np.zeros((m, 2 * n + 2), dtype=np.int8)
    edge[:, :-1] = included
    edge[:, 1:] -= included
    infinite = np.full((m, 1), np.inf)
    bounds = np.concatenate([-infinite, roots[order], infinite], axis=1)
    row, col = np.nonzero(edge)
    lower, upper = bounds[row[::2], col[::2]], bounds[row[1::2], col[1::2]]
    row = row[::2]
    # tied roots leave pieces of zero length: drop the isolated points and
    # join the touching neighbours that one splits
    keep = lower < upper
    row, lower, upper = row[keep], lower[keep], upper[keep]
    apart = (upper[:-1] != lower[1:]) | (row[:-1] != row[1:])
    opens, closes = np.ones(row.size, dtype=bool), np.ones(row.size, dtype=bool)
    opens[1:] = closes[:-1] = apart
    return PredictionSetBatch(lower[opens], upper[closes], row[opens], m)


def full_conformal_ridge_exact(
    train: Dataset,
    x_new,
    ridge: RidgeConfig,
    alpha: float,
) -> PredictionSet:
    """Exact full-conformal set for ridge regression, no grid.

    Ridge predictions are affine in any single label, so each of the n+1
    residuals is the absolute value of an affine function of the candidate
    label y. The set boundary can only move where the test point's residual
    crosses another one, and comparing those finitely many crossings gives
    the exact set as a finite union of closed intervals.
    """
    if len(train) == 0:
        raise ValueError("training data must be nonempty")
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    n = len(train)
    x_aug = np.vstack([train.x, x_new[None, :]])
    rhs = np.zeros((n + 1, 2))
    rhs[:n, 0] = train.y
    rhs[n, 1] = 1.0
    betas = _ridge_coefficients(x_aug, rhs, ridge.penalty)
    beta_base, beta_dir = betas[:, 0], betas[:, 1]

    a = train.y - train.x @ beta_base
    b = -(train.x @ beta_dir)
    a0 = -float(x_new @ beta_base)
    b0 = 1.0 - float(x_new @ beta_dir)
    return affine_conformal_sets(a, b, a0, b0, alpha).prediction_set(0)


def jackknife_plus_bounds(
    train: Dataset,
    x_eval,
    algo: RegressionAlgorithm,
    alpha: float,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Jackknife+ interval endpoints at a batch of evaluation points.

    Fits the n leave-one-out models once and evaluates each at every row
    of ``x_eval``; returns (lower, upper) arrays. lower > upper encodes an
    empty set at that point.
    """
    n = len(train)
    if n < 2:
        raise ValueError("jackknife+ needs at least 2 training points")
    x_eval = np.atleast_2d(np.asarray(x_eval, dtype=float))
    models = [algo.fit(train.without(i), seed) for i in range(n)]
    mu_eval = np.stack([np.asarray(m(x_eval)) for m in models])
    mu_own = np.array([float(models[i](train.x[i])) for i in range(n)])
    residuals = np.abs(train.y - mu_own)
    return plus_bounds(mu_eval.T, residuals, alpha)


def jackknife_plus(
    train: Dataset,
    x_new,
    algo: RegressionAlgorithm,
    alpha: float,
    seed: int | None = None,
) -> PredictionSet:
    """Jackknife+ prediction set at a single point."""
    lower, upper = jackknife_plus_bounds(train, np.atleast_2d(x_new), algo, alpha, seed)
    return PredictionSet.interval(float(lower[0]), float(upper[0]))


def cv_plus_bounds(
    train: Dataset,
    x_eval,
    algo: RegressionAlgorithm,
    alpha: float,
    folds: FoldPartition,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """CV+ interval endpoints at a batch of evaluation points.

    One fit per fold (on the data with that fold removed); every training
    point contributes its fold-deleted prediction and residual, and the
    endpoints are the same order statistics as jackknife+.
    """
    n = len(train)
    if folds.n != n:
        raise ValueError(f"fold partition covers {folds.n} indices, dataset has {n}")
    x_eval = np.atleast_2d(np.asarray(x_eval, dtype=float))
    fold_models = [
        algo.fit(train.subset(np.flatnonzero(folds.assignments != k)), seed)
        for k in range(folds.K)
    ]
    mu_fold_eval = np.stack([np.asarray(m(x_eval)) for m in fold_models])
    mu_eval = mu_fold_eval[folds.assignments]
    mu_own = np.array(
        [float(fold_models[folds.assignments[i]](train.x[i])) for i in range(n)]
    )
    residuals = np.abs(train.y - mu_own)
    return plus_bounds(mu_eval.T, residuals, alpha)


def cv_plus(
    train: Dataset,
    x_new,
    algo: RegressionAlgorithm,
    alpha: float,
    folds: FoldPartition,
    seed: int | None = None,
) -> PredictionSet:
    """CV+ prediction set at a single point."""
    lower, upper = cv_plus_bounds(
        train, np.atleast_2d(x_new), algo, alpha, folds, seed
    )
    return PredictionSet.interval(float(lower[0]), float(upper[0]))


def holdout_pvalue(holdout_residuals, model: FittedModel, x, y: float) -> float:
    """Empirical p-value: share of holdout residuals >= |y - model(x)|.

    Ties count as qualifying, matching the right-tail definition.
    """
    residuals = np.asarray(holdout_residuals, dtype=float).ravel()
    if residuals.size == 0:
        raise ValueError("holdout residuals must be nonempty")
    threshold = abs(float(y) - float(model(np.atleast_1d(x))))
    return float(np.mean(residuals >= threshold))


def oracle_pvalue(model: FittedModel, oracle_sample: Dataset, x, y: float) -> float:
    """Monte Carlo estimate of the population p-value.

    ``oracle_sample`` must be drawn from the data distribution
    independently of the model's training data; the estimate is the
    right-tail frequency of |Y - model(X)| at the query residual, with
    O(1/sqrt(sample size)) Monte Carlo error.
    """
    if len(oracle_sample) == 0:
        raise ValueError("oracle sample must be nonempty")
    residuals = np.abs(oracle_sample.y - np.asarray(model(oracle_sample.x)))
    threshold = abs(float(y) - float(model(np.atleast_1d(x))))
    return float(np.mean(residuals >= threshold))
