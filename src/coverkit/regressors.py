"""Concrete regression algorithms.

Three families:

* ridge regression, the workhorse for the simulation study, solved through
  the primal normal equations when d <= n and through the dual (kernel)
  form when d > n;
* a constant-prediction baseline, useful for hand-checkable tests;
* the two "clock" algorithms that break training-conditional coverage for
  full conformal and jackknife+. Both are symmetric and deterministic: they
  depend on the training data only through a modular sum of cell indices,
  and output one of exactly two values everywhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .core import Dataset, FittedModel, RegressionAlgorithm

__all__ = [
    "RidgeConfig",
    "ClockConfig",
    "ridge_fit",
    "ridge_algorithm",
    "constant_fit",
    "constant_algorithm",
    "uniform_cell_map",
    "adversary_full_fit",
    "adversary_jackknife_fit",
    "adversary_full_algorithm",
    "adversary_jackknife_algorithm",
]


@dataclass(frozen=True)
class RidgeConfig:
    """Penalized least squares configuration.

    ``penalty`` is the coefficient of the squared-norm term. Zero is
    allowed: rank-deficient designs then fall back to the minimum-norm
    (pseudo-inverse) solution.
    """

    penalty: float

    def __post_init__(self):
        if not (math.isfinite(self.penalty) and self.penalty >= 0):
            raise ValueError("penalty must be a finite nonnegative real")


_posv, _pocon, _lange = scipy.linalg.get_lapack_funcs(
    ("posv", "pocon", "lange"), dtype=np.float64
)


def _solve_penalized(a: np.ndarray, rhs: np.ndarray, penalty: float) -> np.ndarray:
    """Solve (a + penalty I) z = rhs for a symmetric positive semidefinite a.

    One LAPACK ``posv`` call, factorizing a in place, with the safety checks
    of ``scipy.linalg.solve(..., assume_a="pos")`` and the same bits: a
    non-finite system raises ``ValueError``, a failed factorization
    ``LinAlgError``, and a reciprocal condition number below machine
    epsilon warns ``LinAlgWarning``.
    """
    diagonal = a.ravel()[:: a.shape[0] + 1]  # a strided view of the diagonal
    diagonal += penalty
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    if a.shape[0] == 1:
        return rhs / a[0, 0]  # a division, as in scipy.linalg.solve
    # a is symmetric: its transpose is the Fortran-ordered array that LAPACK
    # factorizes in place, with no copy
    a = a.T
    norm = _lange("1", a)
    factor, z, info = _posv(a, rhs, overwrite_a=True)
    if info > 0:
        raise np.linalg.LinAlgError("A singular matrix detected.")
    rcond, _ = _pocon(factor, norm)
    if not rcond >= np.finfo(float).eps:
        warnings.warn(
            f"An ill-conditioned matrix detected: rcond = {rcond}.",
            scipy.linalg.LinAlgWarning,
            stacklevel=3,
        )
    return z


def _ridge_coefficients(x: np.ndarray, y: np.ndarray, penalty: float) -> np.ndarray:
    n, d = x.shape
    if penalty == 0.0:
        # lstsq returns the minimum-norm solution for rank-deficient designs,
        # which is the penalty -> 0 limit of the ridge solution.
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        return beta
    if d <= n:
        return _solve_penalized(x.T @ x, x.T @ y, penalty)
    # Dual form: beta = X^T (X X^T + penalty I)^-1 y. Avoids forming a d x d
    # system in the overparameterized regime.
    return x.T @ _solve_penalized(x @ x.T, y, penalty)


def _linear_model(beta: np.ndarray) -> FittedModel:
    def predict(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(x @ beta)
        return x @ beta

    return FittedModel(predict=predict)


def ridge_fit(data: Dataset, config: RidgeConfig) -> FittedModel:
    """Fit ridge regression exactly (direct linear solve, no iterations).

    The returned model predicts x @ beta_hat where beta_hat minimizes
    sum (y_i - x_i @ beta)^2 + penalty * ||beta||^2. Primal and dual
    solution paths agree to solver precision; the choice between them is
    purely a matter of conditioning and cost.
    """
    if len(data) == 0:
        raise ValueError("ridge requires a nonempty dataset")
    beta = _ridge_coefficients(data.x, data.y, config.penalty)
    return _linear_model(beta)


def ridge_algorithm(config: RidgeConfig) -> RegressionAlgorithm:
    return RegressionAlgorithm(
        fit_fn=lambda data, seed=None: ridge_fit(data, config),
        symmetric=True,
        name=f"ridge(penalty={config.penalty:g})",
        ridge=config,
    )


def constant_fit(data: Dataset, c: float) -> FittedModel:
    """Model that predicts the constant c everywhere; symmetric trivially."""
    if not math.isfinite(c):
        raise ValueError("constant prediction must be finite")
    c = float(c)

    def predict(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return c
        return np.full(x.shape[0], c)

    return FittedModel(predict=predict)


def constant_algorithm(c: float) -> RegressionAlgorithm:
    return RegressionAlgorithm(
        fit_fn=lambda data, seed=None: constant_fit(data, c),
        symmetric=True,
        name=f"constant({c:g})",
    )


def uniform_cell_map(M: int) -> Callable[[np.ndarray], np.ndarray]:
    """Cell map for a first coordinate distributed Unif[0, 1].

    Maps x to min(floor(M * x[0]), M - 1), which is uniform on
    {0, ..., M-1} when the first coordinate is uniform on [0, 1]. For other
    known continuous marginals, compose with their CDF first; for unknown
    distributions an equiprobable partition is not constructible from data,
    which is the practical limit of this construction.
    """

    def cell(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        first = x[..., 0] if x.ndim > 1 else x[0]
        idx = np.floor(M * first).astype(int)
        return np.minimum(np.maximum(idx, 0), M - 1)

    return cell


@dataclass(frozen=True)
class ClockConfig:
    """Parameters of the clock construction.

    ``M`` cells, a threshold ``M1`` with 0 <= M1 < M, the label quantile
    ``y_star`` > 0, and a deterministic ``cell_map`` sending each feature
    vector to its cell in {0, ..., M-1}. Under the data distribution the
    cell of a random X must be uniform, which is what makes the modular
    sum of cells uniform as well.
    """

    M: int
    M1: int
    y_star: float
    cell_map: Callable[[np.ndarray], np.ndarray] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("M must be at least 2")
        if not 0 <= self.M1 < self.M:
            raise ValueError("M1 must satisfy 0 <= M1 < M")
        if not (math.isfinite(self.y_star) and self.y_star > 0):
            raise ValueError("y_star must be a positive real")
        if self.cell_map is None:
            object.__setattr__(self, "cell_map", uniform_cell_map(self.M))


def _two_valued_model(
    config: ClockConfig, cell_sum: int, low_when_true: bool
) -> FittedModel:
    M, M1, two_y_star = config.M, config.M1, 2.0 * config.y_star
    cell_map = config.cell_map
    sign = 1 if low_when_true else -1

    def predict(x: np.ndarray) -> np.ndarray:
        a = cell_map(np.asarray(x, dtype=float))
        in_window = np.mod(sign * a + cell_sum, M) < M1
        if low_when_true:
            out = np.where(in_window, 0.0, two_y_star)
        else:
            out = np.where(in_window, two_y_star, 0.0)
        if np.ndim(out) == 0:
            return float(out)
        return out

    return FittedModel(predict=predict)


def adversary_full_fit(data: Dataset, config: ClockConfig) -> FittedModel:
    """Clock algorithm used against full conformal.

    Given the augmented training set (the n+1 points full conformal passes
    in), predicts 2*y_star at x when mod(-cell(x) + sum of cells, M) < M1
    and 0 otherwise. Depends on the data only through the multiset of cell
    indices, hence symmetric; labels are ignored entirely.
    """
    cell_sum = int(np.sum(config.cell_map(data.x))) if len(data) else 0
    return _two_valued_model(config, cell_sum, low_when_true=False)


def adversary_jackknife_fit(data: Dataset, config: ClockConfig) -> FittedModel:
    """Clock algorithm used against jackknife+.

    Given a leave-one-out training set (n-1 points), predicts 0 at x when
    mod(cell(x) + sum of cells, M) < M1 and 2*y_star otherwise. Symmetric
    for the same reason as the full-conformal variant.
    """
    cell_sum = int(np.sum(config.cell_map(data.x))) if len(data) else 0
    return _two_valued_model(config, cell_sum, low_when_true=True)


def adversary_full_algorithm(config: ClockConfig) -> RegressionAlgorithm:
    return RegressionAlgorithm(
        fit_fn=lambda data, seed=None: adversary_full_fit(data, config),
        symmetric=True,
        name="clock-full",
    )


def adversary_jackknife_algorithm(config: ClockConfig) -> RegressionAlgorithm:
    return RegressionAlgorithm(
        fit_fn=lambda data, seed=None: adversary_jackknife_fit(data, config),
        symmetric=True,
        name="clock-jk",
    )
