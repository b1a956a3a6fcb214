"""The per-layer suite of the traced run.

Every measurement is a span recorded here, around a call into one public
function of one module of ``src/coverkit``; no private name is used. The
suite is the same whatever the workload, so every traced run reports every
layer metric. README.md says which end-to-end metric each one moves.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from common import SRC, Tracer, median


@dataclass(frozen=True)
class LayerSizes:
    n: int = 500
    n_test: int = 1000
    dims: tuple[int, ...] = (125, 250, 500, 1000)
    alpha: float = 0.1
    penalty: float = 1e-4
    cv_folds: int = 20
    trials: int = 2  # per single-process run_trials call
    pool_d: int = 500
    pool_trials: int = 4
    pool_workers: int = 2
    draw_reps: int = 5
    summary_trials: int = 200  # records are replicated to the paper preset's count
    import_reps: int = 3
    clock_n: int = 5000
    clock_probes: int = 1000
    clock_reps: int = 5
    fit_n: int = 200
    fit_d: int = 200
    fit_reps: int = 20


METHODS = {"split": "split", "jackknife": "jackknife+", "cv": "cv+", "full": "full"}


def measure(tracer: Tracer, seed: int, out_dir: Path, s: LayerSizes = LayerSizes()):
    """Run the suite; returns ({metric name: (value, unit)}, pool bases)."""
    from coverkit.experiments import (
        ExperimentConfig, generate_linear_gaussian, run_trials, summarize,
        write_summary_csv, write_summary_json, write_trials_csv,
    )

    metrics: dict[str, tuple[float, str]] = {}

    def spans(name, fn, reps, *args):
        for _ in range(reps):
            with tracer.span(name):
                result = fn(*args)
        return median(tracer.durations(name)[-reps:]), result

    def config(d, methods, trials):
        return ExperimentConfig(
            n=s.n, n_test=s.n_test, d=d, alpha=s.alpha, trials=trials,
            master_seed=seed, methods=methods, ridge_penalty=s.penalty,
            cv_folds=s.cv_folds,
        )

    # the first run_trials call of a process pays one-off costs (page
    # faults of fresh arenas, lazy imports); keep them out of every layer
    with tracer.span("experiments.warmup"):
        run_trials(config(s.dims[0], tuple(METHODS.values()), 1))

    records = []
    for d in s.dims:
        beta = np.full(d, math.sqrt(10.0 / d))
        value, _ = spans(
            f"experiments.draw.d{d}", generate_linear_gaussian, s.draw_reps,
            s.n + s.n_test, d, beta, seed,
        )
        metrics[f"experiments.draw_ms.d{d}"] = (1e3 * value, "ms")
        for short, method in METHODS.items():
            value, _ = spans(
                f"experiments.{short}.d{d}", run_trials, 1, config(d, (method,), s.trials)
            )
            metrics[f"experiments.{short}_ms.d{d}"] = (1e3 * value / s.trials, "ms")
        value, recs = spans(
            f"experiments.trial.d{d}", run_trials, 1,
            config(d, tuple(METHODS.values()), s.trials),
        )
        metrics[f"experiments.trial_ms.d{d}"] = (1e3 * value / s.trials, "ms")
        records.extend(recs)

    # the pool: two spawned workers against one process, same trials; the
    # two-worker figure at every d goes to the run record as a reference
    pool_config = config(s.pool_d, tuple(METHODS.values()), s.pool_trials)
    single, _ = spans("experiments.pool_base.workers1", run_trials, 1, pool_config, 1)
    bases = {"single_process_s_per_trial": {s.pool_d: single / s.pool_trials}}
    bases["two_worker_s_per_trial"] = {}
    for d in s.dims:
        pooled, _ = spans(
            f"experiments.pool.d{d}", run_trials, 1,
            config(d, tuple(METHODS.values()), s.pool_trials), s.pool_workers,
        )
        bases["two_worker_s_per_trial"][d] = pooled / s.pool_trials
    metrics[f"experiments.pool_speedup.d{s.pool_d}"] = (
        bases["single_process_s_per_trial"][s.pool_d]
        / bases["two_worker_s_per_trial"][s.pool_d],
        "ratio",
    )

    # summarize and the writers on the paper preset's record count
    per_cell = max(1, s.summary_trials // s.trials)
    preset_records = [
        replace(rec, trial=rec.trial + s.trials * copy)
        for copy in range(per_cell) for rec in records
    ]
    value, report = spans("experiments.summarize", summarize, 3, preset_records)
    metrics["experiments.summarize_ms"] = (1e3 * value, "ms")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in ("trials.csv", "summary.csv", "summary.json")]

    def write_all():
        write_trials_csv(preset_records, paths[0])
        write_summary_csv(report, paths[1])
        write_summary_json(report, paths[2])

    value, _ = spans("experiments.write", write_all, 3)
    metrics["experiments.write_ms"] = (1e3 * value, "ms")
    metrics["experiments.write_bytes"] = (float(sum(p.stat().st_size for p in paths)), "B")

    metrics.update(_cli_layer(tracer, seed, out_dir / "cli", s))
    metrics.update(_adversary_layer(tracer, seed, s))
    metrics.update(_regressors_layer(tracer, seed, s))
    return metrics, bases


def _cli_layer(tracer, seed, out_dir, s):
    import coverkit.cli as cli

    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import time; t = time.perf_counter(); import coverkit.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = []
    for _ in range(s.import_reps):
        with tracer.span("cli.import"):
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=env, timeout=60, check=True,
            )
        imports.append(float(proc.stdout.strip()))

    # self time of cli.main: its span minus the run_trials, summarize and
    # writer spans beneath it
    undo = [
        tracer.wrap(cli, "run_trials", "experiments.run_trials"),
        tracer.wrap(cli, "summarize", "experiments.summarize_cli"),
        tracer.wrap(cli, "write_trials_csv", "experiments.write_cli"),
        tracer.wrap(cli, "write_summary_csv", "experiments.write_cli"),
        tracer.wrap(cli, "write_summary_json", "experiments.write_cli"),
    ]
    try:
        for rep in range(3):
            target = out_dir / f"r{rep}"
            target.mkdir(parents=True, exist_ok=True)
            argv = [
                "simulate", "--preset", "paper", "--dims", str(s.dims[0]),
                "--trials", "1", "--workers", "1", "--seed", str(seed),
                "--out-dir", str(target),
            ]
            with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.main"):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"coverkit {' '.join(argv)} failed")
    finally:
        for restore in undo:
            restore()
    return {
        "cli.import_ms": (1e3 * median(imports), "ms"),
        "cli.overhead_ms": (1e3 * median(tracer.self_times("cli.main")[-3:]), "ms"),
    }


def _adversary_layer(tracer, seed, s):
    from coverkit.adversary import (
        adversary_full_bounds, adversary_jackknife_bounds, check_events,
        compute_M1, default_clock_sampler, gaussian_label_quantile,
    )
    from coverkit.regressors import ClockConfig

    n = s.clock_n
    clock = ClockConfig(M=n, M1=compute_M1(n, n, s.alpha), y_star=gaussian_label_quantile(n))
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 21])
    out = {}
    train = None
    for _ in range(s.clock_reps):
        with tracer.span("adversary.sampler"):
            train = default_clock_sampler(n, rng)
    probes = rng.uniform(0.0, 1.0, (s.clock_probes, 1))
    calls = {
        "adversary.check_events_ms": ("adversary.check_events", check_events, (train, clock, s.alpha)),
        "adversary.full_bounds_ms": ("adversary.full_bounds", adversary_full_bounds, (train, clock, s.alpha, probes)),
        "adversary.jk_bounds_ms": ("adversary.jk_bounds", adversary_jackknife_bounds, (train, clock, s.alpha, probes)),
    }
    out["adversary.sampler_ms"] = (1e3 * median(tracer.durations("adversary.sampler")[-s.clock_reps:]), "ms")
    for metric, (name, fn, args) in calls.items():
        for _ in range(s.clock_reps):
            with tracer.span(name):
                fn(*args)
        out[metric] = (1e3 * median(tracer.durations(name)[-s.clock_reps:]), "ms")
    return out


def _regressors_layer(tracer, seed, s):
    from coverkit import Dataset, RidgeConfig, ridge_fit

    rng = np.random.default_rng([seed & 0xFFFFFFFF, 31])
    x = rng.standard_normal((s.fit_n, s.fit_d))
    y = x @ rng.standard_normal(s.fit_d) + rng.standard_normal(s.fit_n)
    config = RidgeConfig(s.penalty)
    # d <= n takes the primal normal equations; one row fewer (a
    # leave-one-out fit at d = n) takes the dual form
    data = {"primal": Dataset(x, y), "dual": Dataset(x[1:], y[1:])}
    out = {}
    for form, dataset in data.items():
        name = f"regressors.ridge_fit.{form}"
        for _ in range(s.fit_reps):
            with tracer.span(name):
                ridge_fit(dataset, config)
        out[f"regressors.ridge_fit_ms.{form}"] = (
            1e3 * median(tracer.durations(name)[-s.fit_reps:]), "ms"
        )
    return out
