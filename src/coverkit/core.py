"""Shared data types and order-statistic primitives.

Everything downstream (interval constructions, adversarial algorithms, the
simulation harness) is built on the small vocabulary defined here: datasets,
fitted models, regression algorithms with a declared symmetry contract,
prediction sets as unions of closed intervals, and fold partitions.

All types are immutable after construction and safe to share across
concurrent workers; all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .regressors import RidgeConfig

__all__ = [
    "Dataset",
    "FittedModel",
    "RegressionAlgorithm",
    "PredictionSet",
    "FoldPartition",
    "order_stat_index",
    "kth_smallest",
    "plus_bounds",
    "make_folds",
]

# Absorbs binary representation error of decimal levels (e.g. alpha=0.1) in
# (1-alpha)*(n+1); far below any legitimate fractional part.
_CEIL_EPS = 1e-9


@dataclass(frozen=True)
class Dataset:
    """An ordered sequence of observations with a common feature dimension.

    Stored internally as a pair of arrays: ``x`` with shape ``(n, d)`` and
    ``y`` with shape ``(n,)``. Order matters (index i is a stable identity
    used by leave-one-out and fold constructions) even though all algorithms
    built here are expected to treat the rows symmetrically.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array of shape (n, d)")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("y must be a 1-d array with one label per row of x")
        if y.size and not np.all(np.isfinite(y)):
            raise ValueError("labels must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        """Feature dimension."""
        return self.x.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.x[idx], self.y[idx])

    def append(self, x, y: float) -> "Dataset":
        """Copy with one observation appended (full-conformal augmentation)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if len(self) and x.shape[0] != self.d:
            raise ValueError(f"dimension mismatch: expected {self.d}, got {x.shape[0]}")
        return Dataset(np.vstack([self.x, x[None, :]]), np.append(self.y, float(y)))


@dataclass(frozen=True)
class FittedModel:
    """An immutable point predictor: a pure map from features to a real value.

    ``predict`` accepts a single feature vector of shape ``(d,)`` or a batch
    of shape ``(m, d)`` and returns a scalar / an ``(m,)`` array accordingly.
    Evaluation must be deterministic and side-effect free.
    """

    predict: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        return self.predict(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class RegressionAlgorithm:
    """A regression procedure together with its declared symmetry.

    ``symmetric=True`` asserts that fitting any permutation of the same
    dataset yields a model with identical predictions everywhere. Methods
    whose guarantees require symmetry (full conformal) check this flag.

    ``ridge`` marks the procedure as ridge regression with that
    configuration. ``cv_plus_bounds`` then derives the fold fits from one
    full-data factorization when the penalty is positive, instead of
    calling ``fit_fn`` once per fold.

    ``fit_fn`` must not modify its ``Dataset``: full conformal passes every
    candidate label the same read-only feature array, and writing into it
    raises ``ValueError``.
    """

    fit_fn: Callable[[Dataset, int | None], FittedModel]
    symmetric: bool
    name: str = "algorithm"
    ridge: RidgeConfig | None = None

    def fit(self, data: Dataset, seed: int | None = None) -> FittedModel:
        return self.fit_fn(data, seed)


@dataclass(frozen=True)
class PredictionSet:
    """A finite union of disjoint closed intervals on the real line.

    ``intervals`` has shape ``(k, 2)`` with rows ``[lo, hi]`` satisfying
    lo <= hi, sorted by lo, mutually disjoint and non-touching. Infinite
    endpoints are allowed; ``k = 0`` encodes the empty set.
    """

    intervals: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.intervals, dtype=float).reshape(-1, 2)
        if arr.size:
            if np.any(np.isnan(arr)):
                raise ValueError("interval endpoints must not be NaN")
            if np.any(arr[:, 0] > arr[:, 1]):
                raise ValueError("each interval needs lo <= hi")
            if np.any(arr[1:, 0] <= arr[:-1, 1]):
                raise ValueError("intervals must be sorted and disjoint (non-touching)")
        object.__setattr__(self, "intervals", arr)

    @classmethod
    def empty(cls) -> "PredictionSet":
        return cls(np.empty((0, 2)))

    @classmethod
    def real_line(cls) -> "PredictionSet":
        return cls(np.array([[-np.inf, np.inf]]))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "PredictionSet":
        """Single closed interval; empty set when lo > hi."""
        if lo > hi:
            return cls.empty()
        return cls(np.array([[lo, hi]]))

    @classmethod
    def centered(cls, center: float, radius: float) -> "PredictionSet":
        """[center - radius, center + radius]; the whole line when radius=inf."""
        if math.isinf(radius):
            return cls.real_line()
        if radius < 0:
            return cls.empty()
        return cls(np.array([[center - radius, center + radius]]))

    @classmethod
    def from_intervals(cls, pairs) -> "PredictionSet":
        """Build from arbitrary [lo, hi] pairs, sorting and merging overlaps.

        Touching intervals ([0,1], [1,2]) merge into one; pairs with
        lo > hi are dropped.
        """
        arr = np.asarray(list(pairs), dtype=float).reshape(-1, 2)
        arr = arr[arr[:, 0] <= arr[:, 1]]
        if not arr.size:
            return cls.empty()
        arr = arr[np.argsort(arr[:, 0], kind="stable")]
        merged = [arr[0].copy()]
        for lo, hi in arr[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append(np.array([lo, hi]))
        return cls(np.array(merged))

    @property
    def is_empty(self) -> bool:
        return self.intervals.shape[0] == 0

    def contains(self, y) -> np.ndarray:
        """Membership query; vectorized over y."""
        y = np.asarray(y, dtype=float)
        if self.is_empty:
            return np.zeros(y.shape, dtype=bool)
        inside = (y[..., None] >= self.intervals[:, 0]) & (
            y[..., None] <= self.intervals[:, 1]
        )
        return inside.any(axis=-1)

    def __contains__(self, y: float) -> bool:
        return bool(self.contains(float(y)))

    @property
    def total_width(self) -> float:
        """Lebesgue measure of the union (inf for unbounded sets)."""
        if self.is_empty:
            return 0.0
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))


@dataclass(frozen=True)
class FoldPartition:
    """A partition of indices {0, ..., n-1} into K folds of equal size m."""

    assignments: np.ndarray
    K: int

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=int)
        n = a.shape[0]
        if self.K < 2:
            raise ValueError("need at least K=2 folds")
        if n % self.K != 0:
            raise ValueError(f"K={self.K} does not divide n={n}")
        m = n // self.K
        counts = np.bincount(a, minlength=self.K)
        if counts.shape[0] != self.K or np.any(counts != m):
            raise ValueError("every fold must contain exactly n/K indices")
        object.__setattr__(self, "assignments", a)

    @property
    def n(self) -> int:
        return self.assignments.shape[0]

    @property
    def m(self) -> int:
        """Fold size n / K."""
        return self.n // self.K


def order_stat_index(n_items: int, alpha: float) -> int:
    """Rank ceil((1-alpha)(n_items+1)) of the conformal quantile, 1-based.

    The rank is at most ``n_items + 1``; a rank above ``n_items`` means a
    +infinity quantile (full-line prediction set), which callers test as
    ``k > n_items``. The small epsilon compensates for the binary
    representation of decimal alpha values, so e.g. (n_items=9, alpha=0.1)
    gives 9, not 10.
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    return max(math.ceil((1.0 - alpha) * (n_items + 1) - _CEIL_EPS), 1)


def kth_smallest(values, k: int) -> float:
    """k-th smallest value (1-based) with multiset semantics: ties count."""
    v = np.asarray(values, dtype=float).ravel()
    if not 1 <= k <= v.size:
        raise ValueError(f"k={k} out of range for {v.size} values")
    return float(np.partition(v, k - 1)[k - 1])


def plus_bounds(
    mu: np.ndarray, residuals: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Jackknife+ / cv+ endpoints at a batch of evaluation points.

    ``mu[t, i]`` is the prediction at evaluation point t of the model that
    did not see training point i, and ``residuals[i]`` that model's
    absolute residual at point i. With k = ceil((1-alpha)(n+1)), the lower
    endpoint is the k-th largest of mu[t] - R and the upper the k-th
    smallest of mu[t] + R. Overflow (k > n) gives the whole line, (-inf,
    inf); a crossed pair (lower > upper) is the empty set.
    """
    m, n = mu.shape
    k = order_stat_index(n, alpha)
    if k > n:
        return np.full(m, -np.inf), np.full(m, np.inf)
    return _order_stat_pair(mu - residuals, mu + residuals, k)


def _order_stat_pair(low: np.ndarray, high: np.ndarray, k: int):
    """Row-wise k-th largest of ``low`` and k-th smallest of ``high``, both
    (m, n) with 1 <= k <= n and partitioned in place. The results are
    copies, so holding them does not keep either array alive."""
    low.partition(-k, axis=1)
    high.partition(k - 1, axis=1)
    return low[:, -k].copy(), high[:, k - 1].copy()


def make_folds(n: int, K: int, seed: int) -> FoldPartition:
    """Uniformly random partition of {0,...,n-1} into K folds of size n/K.

    Deterministic given ``seed``. K must divide n exactly; remainders are
    rejected rather than silently spread across folds.
    """
    if K < 2:
        raise ValueError("need at least K=2 folds")
    if n % K != 0:
        raise ValueError(f"K={K} must divide n={n} exactly")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignments = np.empty(n, dtype=int)
    assignments[perm] = np.arange(n) % K
    return FoldPartition(assignments, K)


def derive_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Child generator for a (trial, stage, ...) index path.

    A fixed mixing of the master seed with the index path, so results are
    reproducible and independent of worker scheduling.
    """
    return np.random.default_rng([int(master_seed) & 0xFFFFFFFF, *map(int, indices)])
