"""Monte Carlo harness: data generation, trials, aggregation, file formats.

Two trial modes:

* ridge simulation -- linear-Gaussian data, all four interval methods
  evaluated on the same train/test draw. Each trial reads one ridge backend
  of ``conformal`` (one factorization of the training data, in the primal
  form when d < n and the dual form otherwise): split from sub-blocks of
  the Gram matrices, jackknife+ and cv+ through the exact leave-one-out and
  leave-fold-out downdates of the full-data fit, and full conformal through
  the bordered-system closed form. Full conformal is scored in one pass
  per chunk of test points: a label is covered when at most k - 1 training
  residuals under-cut its own, and the chunk's crossings give its set
  widths until one set is unbounded, when the mean width becomes +inf. One
  scorer turns every method's coverage and widths into its miss rate and
  mean width. This module keeps only the draw, the scoring and the files.
* adversary demonstrations -- clock algorithms at scale, with per-trial
  event reports alongside the estimated miscoverage.

Per-trial randomness is derived from the master seed and the trial index,
so a run is reproducible regardless of worker count or scheduling.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._blas import single_threaded
from .adversary import (
    EventReport,
    adversary_full_bounds,
    adversary_jackknife_bounds,
    check_events,
    compute_M1,
    default_clock_sampler,
    gaussian_label_quantile,
)
from .conformal import _RidgeBackend
from .core import (
    Dataset,
    FoldPartition,
    derive_rng,
    kth_smallest,
    make_folds,
    order_stat_index,
    plus_bounds,
)
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

# the config fields that only the ridge simulation reads
_RIDGE_ONLY = ("methods", "ridge_penalty", "cv_folds")


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
        if self.mode != RIDGE_SIM:
            if self.d != 1:
                # the clock sampler draws one-dimensional features
                raise ValueError(f"the clock modes need d = 1, got d={self.d}")
            # the class attributes hold the defaults
            changed = [k for k in _RIDGE_ONLY if getattr(self, k) != getattr(type(self), k)]
            if changed:
                raise ValueError(f"{', '.join(changed)}: no effect in mode {self.mode}")
        else:
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
                    "the ridge backend of the trials requires a positive ridge "
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


def _score(covered: np.ndarray, widths) -> tuple[float, float]:
    """Miss rate and mean width of one method's sets on a test set.

    ``covered[t]`` says whether test label t lies in its set and ``widths``
    holds the set widths, or one value shared by every set.
    """
    if covered.size == 0:
        raise ValueError("test set must be nonempty")
    return float(np.mean(~covered)), float(np.mean(widths))


def _interval_cover(
    lower: np.ndarray, upper: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coverage and widths of the intervals [lower, upper] at labels y.

    A crossed pair (lower > upper) is the empty set: it misses and has
    width 0. Infinite endpoints give the whole line or a half-line.
    """
    return (y >= lower) & (y <= upper), np.maximum(upper - lower, 0.0)


class _RidgeTrial:
    """Miss rate and mean width of each interval method on one train/test draw.

    Every method reads one ridge backend of the training set at the test
    points, so the Gram matrices and the factorization are computed once
    per trial, and only for the methods that need them.
    """

    def __init__(self, train: Dataset, test: Dataset, penalty: float, alpha: float):
        self.test, self.alpha = test, alpha
        self.backend = _RidgeBackend(train.x, train.y, test.x, penalty)

    def split(self, n0: int) -> tuple[float, float]:
        """Train on the first n0 points, calibrate on the other n - n0."""
        n1 = len(self.backend.y) - n0
        k = order_stat_index(n1, self.alpha)
        if k > n1:
            return _score(np.ones(len(self.test), dtype=bool), math.inf)
        holdout_pred, test_pred = self.backend.prefix_fit(n0)
        residuals = np.abs(self.backend.y[n0:] - holdout_pred)
        radius = kth_smallest(residuals, k)
        return _score(np.abs(self.test.y - test_pred) <= radius, 2.0 * radius)

    def jackknife(self) -> tuple[float, float]:
        n = len(self.backend.y)
        return self.cv(FoldPartition(np.arange(n), n))

    def cv(self, folds: FoldPartition) -> tuple[float, float]:
        lower, upper = plus_bounds(*self.backend.leave_folds_out(folds), self.alpha)
        return _score(*_interval_cover(lower, upper, self.test.y))

    def full_conformal(self) -> tuple[float, float]:
        return _score(*self.backend.conformal_scores(self.alpha, self.test.y))


def _ridge_trial(config: ExperimentConfig, trial: int) -> list[TrialRecord]:
    rng = derive_rng(config.master_seed, trial)
    beta = math.sqrt(10.0) * random_unit_vector(config.d, rng)
    data = _draw_linear_gaussian(config.n + config.n_test, config.d, beta, rng)
    train = data.subset(np.arange(config.n))
    test = data.subset(np.arange(config.n, config.n + config.n_test))
    scorer = _RidgeTrial(train, test, config.ridge_penalty, config.alpha)

    records = []
    for method in config.methods:
        if method == METHOD_SPLIT:
            miss, width = scorer.split(config.n // 2)
        elif method == METHOD_JACKKNIFE:
            miss, width = scorer.jackknife()
        elif method == METHOD_CV:
            folds = make_folds(
                config.n, config.cv_folds, _fold_seed(config.master_seed, trial)
            )
            miss, width = scorer.cv(folds)
        elif method == METHOD_FULL:
            miss, width = scorer.full_conformal()
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
    scores = _score(*_interval_cover(lower, upper, test.y))
    return [_record(config, trial, method, *scores, events)]


@single_threaded
def _trial_worker(config: ExperimentConfig, trial: int) -> list[TrialRecord]:
    if config.mode == RIDGE_SIM:
        return _ridge_trial(config, trial)
    return _adversary_trial(config, config.clock_config(), trial)


def run_trials(config: ExperimentConfig, workers: int = 1) -> list[TrialRecord]:
    """Run all trials; deterministic given the config, whatever ``workers`` is.

    Worker processes only parallelize independent trials; records come back
    ordered by (trial, method). ``workers`` must be at least 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        nested = [_trial_worker(config, t) for t in range(config.trials)]
    else:
        # spawned workers: forking a process whose BLAS has running threads
        # can deadlock. Each worker imports numpy and scipy afresh, so the
        # pool's start-up is not negligible on a call of few short trials
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
