"""Distribution-free prediction set constructions.

Four methods over a shared interface (a dataset, a symmetric-or-not
regression algorithm, a target miscoverage level):

* split: train on one part, calibrate a symmetric radius on a holdout;
* full: refit with a hypothesized test label, keep labels whose residual
  rank is small enough -- grid-based for arbitrary algorithms, exact for
  ridge through the affine structure of its residuals;
* jackknife+ and cv+: order statistics of leave-one-out / fold-deleted
  predictions shifted by their residuals.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import single_threaded
from .core import (
    Dataset,
    FittedModel,
    FoldPartition,
    PredictionSet,
    RegressionAlgorithm,
    _order_stat_pair,
    kth_smallest,
    order_stat_index,
    plus_bounds,
)
from .regressors import RidgeConfig, _ridge_coefficients, _solve_penalized

__all__ = [
    "GridSpec",
    "SplitConformal",
    "split_conformal",
    "default_grid",
    "full_conformal_grid",
    "full_conformal_ridge_exact",
    "full_conformal_ridge_sets",
    "PredictionSetBatch",
    "affine_conformal_sets",
    "jackknife_plus",
    "jackknife_plus_bounds",
    "cv_plus",
    "cv_plus_bounds",
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
        return PredictionSet.centered(float(self.model(x)), self.radius)


@single_threaded
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


@single_threaded
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
    x_new = _eval_points(x_new, train.d, single=True)
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

    # one augmented design for every candidate, read-only so that a fit
    # which writes into its data raises instead of corrupting the next one
    aug_x = np.vstack([train.x, x_new[None, :]])
    aug_x.flags.writeable = False
    included = np.zeros(ys.size, dtype=bool)
    for j, y in enumerate(ys):
        labels = np.append(train.y, y)
        model = algo.fit(Dataset(aug_x, labels), seed)
        residuals = np.abs(labels - np.asarray(model(aug_x)))
        included[j] = residuals[-1] <= np.partition(residuals, k - 1)[k - 1]

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
        if not 0 <= t < self.m:
            raise IndexError(f"point {t} out of range for a batch of {self.m}")
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

    Most ridge sets are one interval (Burnaev & Vovk 2014). On an interval
    row every comparison under-cuts at both infinities, between two finite
    roots, and the largest lower root lies below the smallest upper root, so
    the count falls from n to 0 across the lower roots and rises across the
    upper ones. Its set is [k-th largest lower root, k-th smallest upper
    root]: two selections, no sort. Only the other rows are swept.
    """
    a = np.atleast_2d(a)
    k = order_stat_index(a.shape[1], alpha)
    return _crossing_sets(*_crossings(a, b, a0, b0), k)


def _crossing_sets(lows, highs, under, k: int) -> PredictionSetBatch:
    """The sets of ``affine_conformal_sets`` from the crossings of ``_crossings``."""
    m, n = under.shape
    # at rank overflow (k = n + 1) the sweep's count never exceeds k - 1
    interval = under.all(axis=1) & (k <= n)
    if interval.any():
        interval &= lows.max(axis=1) < highs.min(axis=1)
        interval &= np.isfinite(lows).all(axis=1) & np.isfinite(highs).all(axis=1)
    if not interval.any():
        return _swept_sets(lows, highs, under, k)
    lower, upper = _order_stat_pair(lows[interval], highs[interval], k)
    rows, swept = np.flatnonzero(interval), np.flatnonzero(~interval)
    if not swept.size:
        return PredictionSetBatch(lower, upper, rows, m)
    rest = _swept_sets(lows[swept], highs[swept], under[swept], k)
    row = swept[rest.row]
    at = np.searchsorted(row, rows)  # each interval row's place among the others
    lower, upper = np.insert(rest.lower, at, lower), np.insert(rest.upper, at, upper)
    return PredictionSetBatch(lower, upper, np.insert(row, at, rows), m)


def _crossings(a, b, a0, b0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower and upper roots of each comparison, a missing one at +inf, and
    whether it under-cuts as y -> -inf; each of shape (m, n)."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    a0, b0 = np.atleast_1d(a0)[:, None], np.atleast_1d(b0)[:, None]
    # six (m, n) buffers, each then written in place: the slopes, the
    # numerators that become the roots, and the signs
    d_minus, d_plus = b - b0, b + b0
    r_minus, r_plus = a - a0, a + a0
    flat_minus, flat_plus = d_minus == 0, d_plus == 0
    # (a_i + b_i y)^2 - (a0 + b0 y)^2 is the product of the two affine
    # factors, negative exactly where i under-cuts; its sign as y -> -inf
    # gives the starting state, and it is 0 everywhere for identical lines
    sign_minus, sign_plus = np.sign(d_minus), np.sign(d_plus)
    np.negative(sign_minus, out=sign_minus)
    np.negative(sign_plus, out=sign_plus)
    np.sign(r_minus, out=sign_minus, where=flat_minus)
    np.sign(r_plus, out=sign_plus, where=flat_plus)
    # a constant factor has no root, identical lines have none at all; a
    # missing root is parked at +inf, where the sweep never reaches it
    flat_minus |= sign_plus == 0
    flat_plus |= sign_minus == 0
    under = np.multiply(sign_minus, sign_plus, out=sign_minus) < 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(np.negative(r_minus, out=r_minus), d_minus, out=r_minus)
        np.divide(np.negative(r_plus, out=r_plus), d_plus, out=r_plus)
    r_minus[flat_minus] = np.inf
    r_plus[flat_plus] = np.inf
    lows = np.minimum(r_minus, r_plus, out=d_minus)
    return lows, np.maximum(r_minus, r_plus, out=d_plus), under


def _unbounded(lows, highs, under, k: int) -> np.ndarray:
    """Rows of ``_crossing_sets`` whose set is unbounded: at most k - 1
    comparisons under-cut at +inf or at -inf, counted as the sweep counts,
    across every root a comparison reaches there."""
    at_minus = under ^ (lows == -np.inf) ^ (highs == -np.inf)
    at_plus = under ^ (lows < np.inf) ^ (highs < np.inf)
    return np.minimum(at_minus.sum(axis=1), at_plus.sum(axis=1)) <= k - 1


def _members(a, b, a0, b0, y, k: int) -> np.ndarray:
    """Whether label y[t] lies in row t's set of ``affine_conformal_sets``,
    by the set's definition: at most k - 1 strict under-cuts at y[t].

    One O(n) count per row, with no roots. It can differ from the swept
    set's ``contains`` only where a training residual equals the point's
    own to within rounding: near a crossing, or anywhere along two lines
    that are parallel to within rounding.
    """
    residuals = np.multiply(b, y[:, None])
    residuals += a
    np.abs(residuals, out=residuals)
    return np.count_nonzero(residuals < np.abs(a0 + b0 * y)[:, None], axis=1) <= k - 1


def _swept_sets(lows, highs, under, k: int) -> PredictionSetBatch:
    """The sweep of ``affine_conformal_sets`` on any rows, any 1 <= k <= n + 1."""
    m, n = under.shape
    roots = np.concatenate([lows, highs], axis=1)
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


# evaluation points per full-conformal sweep: bounds its (rows, 2n) work arrays
_SWEEP_ROWS = 64


def _sweep(coefficients, m: int, alpha: float) -> PredictionSetBatch:
    """Exact full-conformal sets of m points, _SWEEP_ROWS rows at a time.

    ``coefficients(rows)`` returns the affine residual coefficients (a, b,
    a0, b0) of ``affine_conformal_sets`` for a slice of rows.
    """
    parts = [
        (lo, affine_conformal_sets(*coefficients(slice(lo, lo + _SWEEP_ROWS)), alpha))
        for lo in range(0, m, _SWEEP_ROWS)
    ]
    return PredictionSetBatch(
        np.concatenate([part.lower for _, part in parts]),
        np.concatenate([part.upper for _, part in parts]),
        np.concatenate([part.row + lo for lo, part in parts]),
        m,
    )


class _RidgeBackend:
    """The full-data ridge fit of (x, y), penalty > 0, at m evaluation points.

    Every ridge shortcut derives from the same quantities of that fit. With
    C = x x^T + penalty I and k_t = x x_t for evaluation point x_t:

    * ``dual`` = C^-1 y, so that penalty * dual holds the training residuals;
    * ``b``, whose row t is C^-1 k_t;
    * ``test_pred``, the predictions at the evaluation points;
    * ``schur``, the Schur complements x_t^T x_t + penalty - k_t^T C^-1 k_t
      of the bordered systems that append one evaluation point;
    * the diagonal blocks G_HH of G = C^-1.

    The form follows the shape. With d < n one Cholesky factor of
    A = x^T x + penalty I gives them all through C^-1 x = x A^-1:
    dual = (y - x beta) / penalty, b = x_eval W with W = A^-1 x^T,
    schur = penalty (1 + x_t^T A^-1 x_t) and G_HH = (I - x_H W_H) / penalty,
    and no n x n array is formed. With d >= n the factor is that of C. At
    d = n the leverages of the primal form reach 1 and I - x_H W_H cancels,
    which is why d = n stays dual. Each quantity is computed on first use,
    so one full-conformal query never forms an n x n inverse.
    """

    def __init__(
        self, x: np.ndarray, y: np.ndarray, x_eval: np.ndarray, penalty: float
    ):
        if not penalty > 0:
            raise ValueError("the ridge backend requires a positive penalty")
        self.x, self.y, self.x_eval, self.penalty = x, y, x_eval, penalty
        self.primal = x.shape[1] < x.shape[0]

    @functools.cached_property
    def _gram(self) -> np.ndarray:
        return self.x @ self.x.T

    @functools.cached_property
    def _gram_eval(self) -> np.ndarray:
        return self.x_eval @ self.x.T

    @functools.cached_property
    def _factor(self):
        a = self.x.T @ self.x if self.primal else self._gram.copy()
        a[np.diag_indices_from(a)] += self.penalty
        # a is symmetric: its transpose is the Fortran-ordered array that
        # LAPACK factorizes in place, with no copy
        return scipy.linalg.cho_factor(a.T, overwrite_a=True)

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        """W = A^-1 x^T, the primal form's map from labels to coefficients."""
        return scipy.linalg.cho_solve(self._factor, self.x.T)

    @functools.cached_property
    def _solved_eval(self) -> np.ndarray:
        """A^-1 x_eval^T, shape (d, m): b and schur in the primal form."""
        return scipy.linalg.cho_solve(self._factor, self.x_eval.T)

    @functools.cached_property
    def _beta(self) -> np.ndarray:
        return scipy.linalg.cho_solve(self._factor, self.x.T @ self.y)

    @functools.cached_property
    def dual(self) -> np.ndarray:
        if self.primal:
            return (self.y - self.x @ self._beta) / self.penalty
        return scipy.linalg.cho_solve(self._factor, self.y)

    @functools.cached_property
    def test_pred(self) -> np.ndarray:
        if self.primal:
            return self.x_eval @ self._beta
        return self._gram_eval @ self.dual

    @functools.cached_property
    def b(self) -> np.ndarray:
        if self.primal:
            # x_eval W without forming W, which only the fold downdates need
            return self._solved_eval.T @ self.x.T
        # C is symmetric, so the rows of (C^-1 K^T)^T are C^-1 k_t
        return scipy.linalg.cho_solve(self._factor, self._gram_eval.T).T

    @functools.cached_property
    def schur(self) -> np.ndarray:
        if self.primal:
            leverage = np.einsum("ij,ji->i", self.x_eval, self._solved_eval)
            return self.penalty * (1.0 + leverage)
        self_gram = np.einsum("ij,ij->i", self.x_eval, self.x_eval) + self.penalty
        return self_gram - np.einsum("ij,ij->i", self._gram_eval, self.b)

    @functools.cached_property
    def _inverse(self) -> np.ndarray:
        eye = np.eye(len(self.y)).T  # Fortran order, solved in place
        return scipy.linalg.cho_solve(self._factor, eye, overwrite_b=True)

    def _inverse_blocks(self, held: np.ndarray) -> np.ndarray:
        """G_HH for every row H of ``held``, shape (K, s, s)."""
        if self.primal:
            x_w = self.x[held] @ self._weights[:, held].transpose(1, 0, 2)
            return (np.eye(held.shape[1]) - x_w) / self.penalty
        return self._inverse[held[:, :, None], held[:, None, :]]

    def prefix_fit(self, n0: int) -> tuple[np.ndarray, np.ndarray]:
        """Predictions of the fit on the first n0 training points, at the
        other training points and at the evaluation points (split).

        The form follows the shape of that fit: primal when d < n0, and
        otherwise from sub-blocks of the two Gram matrices.
        """
        if self.x.shape[1] < n0:
            beta = _ridge_coefficients(self.x[:n0], self.y[:n0], self.penalty)
            return self.x[n0:] @ beta, self.x_eval @ beta
        c0 = self._gram[:n0, :n0].copy()
        weights = _solve_penalized(c0, self.y[:n0], self.penalty)
        return self._gram[n0:, :n0] @ weights, self._gram_eval[:, :n0] @ weights

    def leave_folds_out(self, folds: FoldPartition) -> tuple[np.ndarray, np.ndarray]:
        """Leave-one-fold-out predictions and residuals (jackknife+, cv+).

        Returns mu of shape (m, n) and residuals of shape (n,) over the
        training points taken fold by fold: for each point, the predictions
        at the evaluation points of the fit without its fold, and its
        absolute residual under that fit. The endpoints of ``plus_bounds``
        do not depend on the order of the points.

        Deleting fold H gives held-out residuals y_H - mu_{-H}(x_H) =
        G_HH^-1 dual_H and moves prediction t by b[t, H] @ G_HH^-1 dual_H
        (An, Liu & Venkatesh 2007, Pattern Recognition 40(8)): one solve of
        size n/K per fold instead of a refit. Singleton folds give
        jackknife+.
        """
        # row k: the indices of fold k, ascending
        held = np.argsort(folds.assignments, kind="stable").reshape(folds.K, folds.m)
        blocks = self._inverse_blocks(held)
        shifts = np.linalg.solve(blocks, self.dual[held][:, :, None])
        moves = np.matmul(self.b[:, held].transpose(1, 0, 2), shifts)[:, :, 0]
        mu = np.repeat(self.test_pred[:, None] - moves.T, folds.m, axis=1)
        return mu, np.abs(shifts).ravel()

    def _coefficients(self, rows: slice):
        """The affine residual coefficients (a, b, a0, b0) of
        ``affine_conformal_sets`` at the evaluation points ``rows``.

        Appending (x_t, y) to the training set moves the dual solution along
        C^-1 k_t by an amount affine in y. With slope = penalty / schur[t],
        training residual i becomes a[t, i] + b_mat[t, i] y and the new
        point's own residual a0[t] + b0[t] y.
        """
        slope = self.penalty / self.schur[rows]
        scaled_pred = slope * self.test_pred[rows]
        a = scaled_pred[:, None] * self.b[rows]
        a += self.penalty * self.dual  # the training residuals, in place
        return a, -slope[:, None] * self.b[rows], -scaled_pred, slope

    def conformal_sets(self, alpha: float) -> PredictionSetBatch:
        """Exact full-conformal sets at every evaluation point."""
        return _sweep(self._coefficients, len(self.x_eval), alpha)

    def conformal_scores(
        self, alpha: float, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | float]:
        """Whether y[t] lies in the exact full-conformal set of evaluation
        point t, for every t, and the set widths, or +inf once one set is
        unbounded.

        One pass, _SWEEP_ROWS rows at a time, each chunk's coefficients built
        once. Membership is the count of the set's definition. Until a chunk
        has an unbounded set, its crossings also give boundedness and the
        widths of the sets built on them; after that no set is built.
        """
        k = order_stat_index(len(self.y), alpha)
        covered, widths = [], []
        for lo in range(0, len(self.x_eval), _SWEEP_ROWS):
            rows = slice(lo, lo + _SWEEP_ROWS)
            a, b, a0, b0 = self._coefficients(rows)
            covered.append(_members(a, b, a0, b0, y[rows], k))
            if widths is not None:
                crossings = _crossings(a, b, a0, b0)
                if _unbounded(*crossings, k).any():
                    widths = None  # the mean width is +inf whatever the rest are
                else:
                    widths.append(_crossing_sets(*crossings, k).widths())
        return np.concatenate(covered), math.inf if widths is None else np.concatenate(widths)


def _eval_points(x, d: int, single: bool = False) -> np.ndarray:
    """Evaluation points as an (m, d) array, or one point as a (d,) array."""
    x = np.asarray(x, dtype=float)
    x, ndim = (np.atleast_1d(x), 1) if single else (np.atleast_2d(x), 2)
    if x.ndim != ndim:
        raise ValueError(
            f"evaluation points need {ndim} dimensions, got shape {x.shape}"
        )
    if x.shape[-1] != d:
        raise ValueError(f"dimension mismatch: expected {d}, got {x.shape[-1]}")
    return x


@single_threaded
def full_conformal_ridge_sets(
    train: Dataset,
    x_eval,
    ridge: RidgeConfig,
    alpha: float,
) -> PredictionSetBatch:
    """Exact full-conformal sets for ridge regression at a batch of points.

    Ridge predictions are affine in any single label, so each of the n+1
    residuals is the absolute value of an affine function of the candidate
    label y. The set boundary can only move where the test point's residual
    crosses another one, and comparing those finitely many crossings gives
    each exact set as a finite union of closed intervals.

    A positive penalty derives every point from one factorization of the
    training data; penalty 0 refits the minimum-norm least squares on the
    augmented data, one point at a time.
    """
    if len(train) == 0:
        raise ValueError("training data must be nonempty")
    x_eval = _eval_points(x_eval, train.d)
    if not len(x_eval):
        order_stat_index(len(train), alpha)  # a bad alpha still raises
        return PredictionSetBatch(np.empty(0), np.empty(0), np.empty(0, dtype=int), 0)
    if ridge.penalty > 0:
        backend = _RidgeBackend(train.x, train.y, x_eval, ridge.penalty)
        return backend.conformal_sets(alpha)
    n = len(train)
    rhs = np.zeros((n + 1, 2))
    rhs[:n, 0] = train.y
    rhs[n, 1] = 1.0

    def coefficients(rows):
        a, b, a0, b0 = [], [], [], []
        for x_new in x_eval[rows]:
            betas = _ridge_coefficients(np.vstack([train.x, x_new]), rhs, ridge.penalty)
            a.append(train.y - train.x @ betas[:, 0])
            b.append(-(train.x @ betas[:, 1]))
            a0.append(-float(x_new @ betas[:, 0]))
            b0.append(1.0 - float(x_new @ betas[:, 1]))
        return np.array(a), np.array(b), np.array(a0), np.array(b0)

    return _sweep(coefficients, len(x_eval), alpha)


def full_conformal_ridge_exact(
    train: Dataset,
    x_new,
    ridge: RidgeConfig,
    alpha: float,
) -> PredictionSet:
    """Exact full-conformal set for ridge regression at one point, no grid.

    The one-point case of ``full_conformal_ridge_sets``.
    """
    x_new = _eval_points(x_new, train.d, single=True)
    sets = full_conformal_ridge_sets(train, x_new[None, :], ridge, alpha)
    return sets.prediction_set(0)


def _refit_folds(train: Dataset, x_eval, algo, folds: FoldPartition, seed):
    """One refit per fold: the (mu, residuals) that ``plus_bounds`` takes.

    mu[t, i] is the prediction at evaluation point t of the model fitted
    without point i's fold, and residuals[i] that model's absolute residual
    at point i.
    """
    fold_models = [
        algo.fit(train.subset(np.flatnonzero(folds.assignments != k)), seed)
        for k in range(folds.K)
    ]
    mu_fold_eval = np.stack([np.asarray(m(x_eval)) for m in fold_models])
    mu_own = np.array(
        [float(fold_models[k](x)) for k, x in zip(folds.assignments, train.x)]
    )
    return mu_fold_eval[folds.assignments].T, np.abs(train.y - mu_own)


@single_threaded
def jackknife_plus_bounds(
    train: Dataset,
    x_eval,
    algo: RegressionAlgorithm,
    alpha: float,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Jackknife+ interval endpoints at a batch of evaluation points.

    Fits the n leave-one-out models once (cv+ with n singleton folds) and
    evaluates each at every row of ``x_eval``; returns (lower, upper)
    arrays. lower > upper encodes an empty set at that point. It refits n
    times whatever the algorithm's ridge tag.
    """
    n = len(train)
    if n < 2:
        raise ValueError("jackknife+ needs at least 2 training points")
    x_eval = _eval_points(x_eval, train.d)
    singletons = FoldPartition(np.arange(n), n)
    return plus_bounds(*_refit_folds(train, x_eval, algo, singletons, seed), alpha)


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


@single_threaded
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
    endpoints are the same order statistics as jackknife+. An algorithm
    tagged as ridge with a positive penalty (``ridge_algorithm``) derives
    the fold fits from one full-data factorization instead of K refits.
    """
    n = len(train)
    if folds.n != n:
        raise ValueError(f"fold partition covers {folds.n} indices, dataset has {n}")
    x_eval = _eval_points(x_eval, train.d)
    if algo.ridge is not None and algo.ridge.penalty > 0:
        backend = _RidgeBackend(train.x, train.y, x_eval, algo.ridge.penalty)
        mu, residuals = backend.leave_folds_out(folds)
        del backend  # its factorization is not needed for the order statistics
    else:
        mu, residuals = _refit_folds(train, x_eval, algo, folds, seed)
    return plus_bounds(mu, residuals, alpha)


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
