"""Monte Carlo harness: data generation, trials, aggregation, file formats.

Two trial modes:

* ridge simulation -- linear-Gaussian data, all four interval methods
  evaluated on the same train/test draw. Per trial the engine computes the
  train-train and test-train Gram matrices and one Cholesky factorization,
  and derives every method from them: split from a sub-block, jackknife+
  and cv+ through the exact leave-one-out and leave-fold-out downdates of
  the full-data fit, and full conformal through the bordered-system closed
  form, swept for a chunk of test points at a time. These shortcuts are
  algebraically identical to refitting (tested against the generic
  constructions), just O(n^2) per method instead of a refit per point.
* adversary demonstrations -- clock algorithms at scale, with per-trial
  event reports alongside the estimated miscoverage.

Per-trial randomness is derived from the master seed and the trial index,
so a run is reproducible regardless of worker count or scheduling.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .adversary import (
    EventReport,
    adversary_full_bounds,
    adversary_jackknife_bounds,
    check_events,
    compute_M1,
    default_clock_sampler,
    gaussian_label_quantile,
)
from .conformal import affine_conformal_sets
from .core import Dataset, derive_rng, make_folds, order_stat_index, plus_bounds
from .regressors import ClockConfig

__all__ = [
    "RIDGE_SIM",
    "ADVERSARY_FULL",
    "ADVERSARY_JK",
    "METHOD_SPLIT",
    "METHOD_FULL",
    "METHOD_JACKKNIFE",
    "METHOD_CV",
    "ExperimentConfig",
    "TrialRecord",
    "MethodSummary",
    "SummaryReport",
    "random_unit_vector",
    "generate_linear_gaussian",
    "run_trials",
    "adversary_training_set",
    "summarize",
    "write_trials_csv",
    "write_summary_csv",
    "write_summary_json",
]

RIDGE_SIM = "ridge_sim"
ADVERSARY_FULL = "adversary_full"
ADVERSARY_JK = "adversary_jk"

METHOD_SPLIT = "split"
METHOD_FULL = "full"
METHOD_JACKKNIFE = "jackknife+"
METHOD_CV = "cv+"

_ALL_METHODS = (METHOD_SPLIT, METHOD_FULL, METHOD_JACKKNIFE, METHOD_CV)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a batch of trials bit-for-bit."""

    n: int
    n_test: int
    d: int
    alpha: float
    trials: int
    master_seed: int
    mode: str = RIDGE_SIM
    methods: tuple[str, ...] = _ALL_METHODS
    ridge_penalty: float = 1e-4
    cv_folds: int = 20

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if min(self.n, self.n_test, self.d, self.trials) < 1:
            raise ValueError("n, n_test, d and trials must all be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly in (0, 1)")
        if self.mode not in (RIDGE_SIM, ADVERSARY_FULL, ADVERSARY_JK):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode != RIDGE_SIM and self.d != 1:
            # the clock sampler draws one-dimensional features
            raise ValueError(f"the clock modes need d = 1, got d={self.d}")
        if self.mode == RIDGE_SIM:
            if self.n < 2:
                raise ValueError("the ridge simulation needs n >= 2 to split")
            unknown = set(self.methods) - set(_ALL_METHODS)
            if unknown:
                raise ValueError(f"unknown methods: {sorted(unknown)}")
            if not self.methods:
                raise ValueError("at least one method must be selected")
            if METHOD_CV in self.methods and self.n % self.cv_folds != 0:
                raise ValueError(
                    f"cv+ needs cv_folds={self.cv_folds} to divide n={self.n}"
                )
            if self.ridge_penalty <= 0:
                raise ValueError(
                    "the shared-kernel trial engine requires a positive ridge "
                    "penalty"
                )

    def clock_config(self) -> ClockConfig:
        """Clock parameters implied by this config (adversary modes): M = n."""
        return ClockConfig(
            M=self.n,
            M1=compute_M1(self.n, self.n, self.alpha),
            y_star=gaussian_label_quantile(self.n),
        )


@dataclass(frozen=True)
class TrialRecord:
    """One method's estimated miscoverage on one trial."""

    trial: int
    method: str
    mode: str
    n: int
    d: int
    alpha: float
    alpha_hat: float
    mean_width: float
    events: EventReport | None = None


@dataclass(frozen=True)
class MethodSummary:
    """Cross-trial aggregates of alpha_hat for one (method, d) cell."""

    method: str
    d: int
    alpha: float
    trials: int
    mean: float
    median: float
    max: float
    frac_gt_alpha: float
    frac_gt_02: float
    frac_gt_099: float  # at or above 0.99, the near-total-collapse marker
    ecdf: tuple[float, ...]  # sorted alpha_hat values; heights are (i+1)/trials


@dataclass(frozen=True)
class SummaryReport:
    entries: tuple[MethodSummary, ...]


def random_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _draw_linear_gaussian(
    n: int, d: int, beta: np.ndarray, rng: np.random.Generator
) -> Dataset:
    x = rng.standard_normal((n, d))
    y = x @ beta + rng.standard_normal(n)
    return Dataset(x, y)


def generate_linear_gaussian(n: int, d: int, beta, seed: int) -> Dataset:
    """n i.i.d. draws with X ~ N(0, I_d) and Y | X ~ N(X @ beta, 1)."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (d,):
        raise ValueError(f"beta must have shape ({d},)")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    return _draw_linear_gaussian(n, d, beta, np.random.default_rng(seed))


# test points per full-conformal sweep: bounds its (rows, 2n) work arrays
_SWEEP_ROWS = 64


def _score(
    lower: np.ndarray, upper: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """Miss rate and mean width of the intervals [lower, upper] at labels y.

    A crossed pair (lower > upper) is the empty set: it misses and has
    width 0. Infinite endpoints give the whole line or a half-line.
    """
    if y.size == 0:
        raise ValueError("test set must be nonempty")
    covered = (y >= lower) & (y <= upper)
    return float(np.mean(~covered)), float(np.mean(np.maximum(upper - lower, 0.0)))


class _RidgeTrialEngine:
    """All four interval methods on one train/test draw, sharing Gram blocks.

    Everything is expressed through C = X X^T + penalty*I and the
    test-train Gram matrix. The shortcuts used here (leave-one-out and
    leave-fold-out downdates, bordered augmentation) reproduce the generic
    constructions exactly for ridge; they only avoid redundant
    factorizations.
    """

    def __init__(self, train: Dataset, test: Dataset, penalty: float, alpha: float):
        if penalty <= 0:
            raise ValueError("engine requires a positive penalty")
        self.train, self.test, self.penalty, self.alpha = train, test, penalty, alpha
        self.n = len(train)
        self.gram = train.x @ train.x.T
        self.gram_test = test.x @ train.x.T

    # -- split -----------------------------------------------------------
    def split(self, n0: int) -> tuple[float, float]:
        """Train on the first n0 points, calibrate on the other n - n0."""
        n1 = self.n - n0
        c0 = self.gram[:n0, :n0].copy()
        c0[np.diag_indices_from(c0)] += self.penalty
        alpha_hat = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(c0), self.train.y[:n0]
        )
        holdout_pred = self.gram[n0:, :n0] @ alpha_hat
        residuals = np.abs(self.train.y[n0:] - holdout_pred)
        k = order_stat_index(n1, self.alpha)
        if k > n1:
            return 0.0, math.inf
        radius = float(np.partition(residuals, k - 1)[k - 1])
        test_pred = self.gram_test[:, :n0] @ alpha_hat
        miss = float(np.mean(np.abs(self.test.y - test_pred) > radius))
        return miss, 2.0 * radius

    # -- shared full-data factorization -----------------------------------
    @functools.cached_property
    def _full_data(self):
        """The full-data fit, computed once per trial: (dual, b, G, test_pred).

        dual = C^-1 y, row t of b is C^-1 k_t, G = C^-1 and test_pred holds
        the full-data predictions k_t @ dual.
        """
        c = self.gram.copy()
        c[np.diag_indices_from(c)] += self.penalty
        cho = scipy.linalg.cho_factor(c)
        dual = scipy.linalg.cho_solve(cho, self.train.y)
        # rows of b are C^-1 k_t for each test point (C is symmetric)
        b = scipy.linalg.cho_solve(cho, self.gram_test.T).T
        inverse = scipy.linalg.cho_solve(cho, np.eye(self.n))
        return dual, b, inverse, self.gram_test @ dual

    # -- jackknife+ --------------------------------------------------------
    def jackknife(self) -> tuple[float, float]:
        dual, b, inverse, test_pred = self._full_data
        loo_shift = dual / np.diag(inverse)  # y_i - mu_{-i}(x_i), exactly
        residuals = np.abs(loo_shift)
        # mu_{-i}(x_t) = test prediction minus the downdate along C^-1 k_t
        mu_loo = test_pred[:, None] - b * loo_shift[None, :]
        lower, upper = plus_bounds(mu_loo, residuals, self.alpha)
        return _score(lower, upper, self.test.y)

    # -- cv+ ---------------------------------------------------------------
    def cv(self, folds) -> tuple[float, float]:
        """cv+ through the leave-fold-out identity of the full-data fit.

        With G = C^-1 and w the dual solution, deleting fold H gives held-out
        residuals y_H - mu_{-H}(x_H) = G_HH^-1 w_H and moves each test
        prediction by b[t, H] @ G_HH^-1 w_H (An, Liu & Venkatesh 2007,
        Pattern Recognition 40(8)): one m x m solve per fold instead of a
        refit. With singleton folds it is the jackknife+ downdate.
        """
        dual, b, inverse, test_pred = self._full_data
        held = np.stack([folds.fold_indices(fold) for fold in range(folds.K)])
        blocks = inverse[held[:, :, None], held[:, None, :]]
        shifts = np.linalg.solve(blocks, dual[held][:, :, None])[:, :, 0]
        mu_fold = np.stack(
            [test_pred - b[:, h] @ shift for h, shift in zip(held, shifts)], axis=1
        )
        residuals = np.empty(self.n)
        residuals[held] = np.abs(shifts)
        lower, upper = plus_bounds(mu_fold[:, folds.assignments], residuals, self.alpha)
        return _score(lower, upper, self.test.y)

    # -- full conformal (exact ridge path) ----------------------------------
    def full_conformal(self) -> tuple[float, float]:
        """Exact full conformal at every test point, swept in row chunks.

        Augmenting the training set with (x_t, y) shifts the dual solution
        along C^-1 k_t by an amount affine in y; with r_i = penalty *
        alpha_i for ridge training residuals, that gives, per test point t,
        r_i(y) = a[t, i] + b_mat[t, i] * y and the test point's own
        residual a0[t] + b0[t] * y. Coefficients are built per chunk of
        test points, so no (n_test, n) array beyond b is held.
        """
        dual, b, _, test_pred = self._full_data
        self_gram = np.einsum("ij,ij->i", self.test.x, self.test.x) + self.penalty
        schur = self_gram - np.einsum("ij,ij->i", self.gram_test, b)
        lam = self.penalty
        slope_new = lam / schur
        covered = np.empty(len(self.test), dtype=bool)
        widths = np.empty(len(self.test))
        for lo in range(0, len(self.test), _SWEEP_ROWS):
            rows = slice(lo, lo + _SWEEP_ROWS)
            scaled_pred = slope_new[rows] * test_pred[rows]
            sets = affine_conformal_sets(
                lam * dual[None, :] + scaled_pred[:, None] * b[rows],
                -slope_new[rows, None] * b[rows],
                -scaled_pred,
                slope_new[rows],
                self.alpha,
            )
            covered[rows] = sets.contains(self.test.y[rows])
            widths[rows] = sets.widths()
        return float(np.mean(~covered)), float(np.mean(widths))


def _ridge_trial(config: ExperimentConfig, trial: int) -> list[TrialRecord]:
    rng = derive_rng(config.master_seed, trial)
    beta = math.sqrt(10.0) * random_unit_vector(config.d, rng)
    data = _draw_linear_gaussian(config.n + config.n_test, config.d, beta, rng)
    train = data.subset(np.arange(config.n))
    test = data.subset(np.arange(config.n, config.n + config.n_test))
    engine = _RidgeTrialEngine(train, test, config.ridge_penalty, config.alpha)

    records = []
    for method in config.methods:
        if method == METHOD_SPLIT:
            miss, width = engine.split(config.n // 2)
        elif method == METHOD_JACKKNIFE:
            miss, width = engine.jackknife()
        elif method == METHOD_CV:
            folds = make_folds(
                config.n, config.cv_folds, _fold_seed(config.master_seed, trial)
            )
            miss, width = engine.cv(folds)
        elif method == METHOD_FULL:
            miss, width = engine.full_conformal()
        else:  # pragma: no cover - guarded by config validation
            raise ValueError(method)
        records.append(_record(config, trial, method, miss, width))
    return records


def _record(config, trial, method, miss, width, events=None) -> TrialRecord:
    return TrialRecord(
        trial=trial,
        method=method,
        mode=config.mode,
        n=config.n,
        d=config.d,
        alpha=config.alpha,
        alpha_hat=miss,
        mean_width=width,
        events=events,
    )


# sub-stream tag so the fold draw never overlaps the trial's data stream
_STAGE_FOLDS = 7


def _fold_seed(master_seed: int, trial: int) -> int:
    return int(derive_rng(master_seed, trial, _STAGE_FOLDS).integers(0, 2**31 - 1))


def adversary_training_set(config: ExperimentConfig, trial: int) -> Dataset:
    """The training draw of one adversary trial, re-derivable at will."""
    return default_clock_sampler(config.n, derive_rng(config.master_seed, trial))


def _adversary_trial(
    config: ExperimentConfig, clock: ClockConfig, trial: int
) -> list[TrialRecord]:
    rng = derive_rng(config.master_seed, trial)
    train = default_clock_sampler(config.n, rng)
    test = default_clock_sampler(config.n_test, rng)
    events = check_events(train, clock, config.alpha)
    if config.mode == ADVERSARY_FULL:
        method = METHOD_FULL
        lower, upper = adversary_full_bounds(train, clock, config.alpha, test.x)
    else:
        method = METHOD_JACKKNIFE
        lower, upper = adversary_jackknife_bounds(train, clock, config.alpha, test.x)
    return [_record(config, trial, method, *_score(lower, upper, test.y), events)]


def _trial_worker(config: ExperimentConfig, trial: int) -> list[TrialRecord]:
    if config.mode == RIDGE_SIM:
        return _ridge_trial(config, trial)
    return _adversary_trial(config, config.clock_config(), trial)


def run_trials(config: ExperimentConfig, workers: int = 1) -> list[TrialRecord]:
    """Run all trials; deterministic given the config, whatever ``workers`` is.

    Worker processes only parallelize independent trials; records come back
    ordered by (trial, method).
    """
    if workers <= 1:
        nested = [_trial_worker(config, t) for t in range(config.trials)]
    else:
        # spawned workers: forking a process whose BLAS has running threads
        # can deadlock, and trials are long enough that spawn cost is noise
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            nested = list(
                pool.map(
                    _trial_worker,
                    [config] * config.trials,
                    range(config.trials),
                    chunksize=max(1, config.trials // (workers * 4)),
                )
            )
    return [record for per_trial in nested for record in per_trial]


def summarize(records: Sequence[TrialRecord]) -> SummaryReport:
    """Aggregate alpha_hat per (method, d): moments, tail fractions, ECDF."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, int], list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.method, rec.d), []).append(rec)
    entries = []
    for (method, d), recs in sorted(groups.items()):
        alpha = recs[0].alpha
        values = np.array([r.alpha_hat for r in recs])
        entries.append(
            MethodSummary(
                method=method,
                d=d,
                alpha=alpha,
                trials=values.size,
                mean=float(values.mean()),
                median=float(np.median(values)),
                max=float(values.max()),
                frac_gt_alpha=float(np.mean(values > alpha)),
                frac_gt_02=float(np.mean(values > 0.2)),
                frac_gt_099=float(np.mean(values >= 0.99)),
                ecdf=tuple(np.sort(values).tolist()),
            )
        )
    return SummaryReport(entries=tuple(entries))


# -- file formats ----------------------------------------------------------

_TRIALS_HEADER = (
    "trial,method,mode,n,d,alpha,alpha_hat,mean_width,e_max,e_mod,e_unif"
)
_SUMMARY_HEADER = "method,d,mean,median,max,frac_gt_alpha,frac_gt_0.2,frac_gt_0.99"


def _fmt(value: float) -> str:
    return repr(float(value))


def write_trials_csv(records: Sequence[TrialRecord], path) -> None:
    """Trial records as CSV (UTF-8, LF; booleans 0/1, absent events empty)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_TRIALS_HEADER.split(","))
        for rec in records:
            if rec.events is None:
                flags = ["", "", ""]
            else:
                flags = [
                    str(int(rec.events.e_max)),
                    str(int(rec.events.e_mod)),
                    str(int(rec.events.e_unif)),
                ]
            writer.writerow(
                [
                    rec.trial,
                    rec.method,
                    rec.mode,
                    rec.n,
                    rec.d,
                    _fmt(rec.alpha),
                    _fmt(rec.alpha_hat),
                    _fmt(rec.mean_width),
                    *flags,
                ]
            )


def _summary_values(s: MethodSummary) -> tuple:
    """One summary row, in the order of the summary CSV header."""
    return (s.method, s.d, s.mean, s.median, s.max, s.frac_gt_alpha, s.frac_gt_02,
            s.frac_gt_099)


def write_summary_csv(report: SummaryReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_SUMMARY_HEADER.split(","))
        for s in report.entries:
            method, d, *values = _summary_values(s)
            writer.writerow([method, d, *map(_fmt, values)])


def write_summary_json(report: SummaryReport, path) -> None:
    """Same fields as the summary CSV plus the ECDF sample points."""
    columns = _SUMMARY_HEADER.split(",")
    payload = {
        "summaries": [
            {**dict(zip(columns, _summary_values(s))), "ecdf": list(s.ecdf)}
            for s in report.entries
        ]
    }
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
