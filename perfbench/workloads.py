"""The three workloads: inputs from a seed, one timed round, and the checks.

A run repeats whole rounds until its time is up. Every round performs the
same operations on the same seed-derived inputs, so later rounds must
reproduce the first round's outputs exactly; the first round's outputs are
checked in full against independent computations.

Each round has four parts, reported as ``op1_s`` ... ``op4_s`` (seconds
per unit of work of that part; README.md names each part). The parts are:

* paper-sim:   seconds per trial of ``coverkit simulate`` at d = 125, 250,
  500 and 1000, the paper configuration, one process;
* clock-n5000: seconds per trial of ``coverkit adversary`` for the full
  and the jk clock at n = M = 5000; seconds per ``collapse_check`` call on
  an event training set; seconds per ``event_rates_montecarlo`` call;
* library-api: seconds per ``full_conformal_ridge_exact`` query, per
  ``jackknife_plus_bounds`` call, per ``cv_plus_bounds`` call and per
  ``full_conformal_grid`` query.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from common import HERE, THREAD_VARIABLES, Tracer

PARTS = ("op1_s", "op2_s", "op3_s", "op4_s")


class Workload:
    """Base: inputs, the count of operations attempted and failed."""

    name = ""
    part_names: tuple[str, str, str, str] = ("", "", "", "")
    workers: int | None = None

    def __init__(self, seed: int, out_dir: Path, tracer: Tracer, sizes):
        self.seed, self.out_dir, self.tracer, self.sizes = seed, out_dir, tracer, sizes
        self.attempted = 0
        self.failed = 0

    def op(self, name: str, fn, *args, **kwargs):
        """One counted operation under a span: (result, seconds) or (None, None)."""
        self.attempted += 1
        try:
            with self.tracer.span(name) as ctx:
                result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, None
        return result, ctx.elapsed


def _cli_main(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"coverkit {' '.join(argv)} exited with {code}")


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


# -- paper-sim ------------------------------------------------------------------


@dataclass(frozen=True)
class PaperSizes:
    n: int = 500
    n_test: int = 1000
    dims: tuple[int, ...] = (125, 250, 500, 1000)
    trials: int = 1
    # one worker: with two, each spawned worker runs two-thread OpenBLAS on
    # two cores and the same call varies by a factor of two from run to
    # run (README.md, "Why one worker"); the pool is measured per layer
    workers: int = 1
    alpha: float = 0.1
    penalty: float = 1e-4
    cv_folds: int = 20
    check_dims: tuple[int, ...] = (125, 500)  # trial 0 re-derived at each
    pac_delta: float = 1e-9


class PaperSim(Workload):
    name = "paper-sim"
    part_names = ("trial_s.d125", "trial_s.d250", "trial_s.d500", "trial_s.d1000")
    files = ("trials.csv", "summary.csv", "summary.json")

    def setup(self):
        import coverkit.cli as cli

        self.cli = cli
        self.workers = self.sizes.workers
        self.round_files: list[dict] = []
        for module_attr, span in (
            ("run_trials", "experiments.run_trials"),
            ("summarize", "experiments.summarize"),
            ("write_trials_csv", "experiments.write"),
            ("write_summary_csv", "experiments.write"),
            ("write_summary_json", "experiments.write"),
        ):
            self.tracer.wrap(cli, module_attr, span)

    def argv(self, d: int, target: Path) -> list[str]:
        s = self.sizes
        return [
            "simulate", "--preset", "paper", "--n", str(s.n), "--n-test", str(s.n_test),
            "--dims", str(d), "--alpha", repr(s.alpha), "--ridge-penalty", repr(s.penalty),
            "--cv-folds", str(s.cv_folds), "--trials", str(s.trials),
            "--workers", str(s.workers), "--seed", str(self.seed), "--out-dir", str(target),
        ]

    def run_round(self, r: int) -> dict:
        parts, files = {}, {}
        for slot, d in zip(PARTS, self.sizes.dims):
            target = self.out_dir / f"r{r}" / f"d{d}"
            target.mkdir(parents=True)
            _, elapsed = self.op("cli.main", _cli_main, self.cli, self.argv(d, target))
            if elapsed is not None:
                parts[slot] = elapsed / self.sizes.trials
                files[d] = {f: _read(target / f) for f in self.files}
        self.round_files.append(files)
        return parts

    def check(self) -> list[str]:
        from coverkit.bounds import split_pac_bound

        s = self.sizes
        first = self.round_files[0]
        failures = []
        limit = split_pac_bound(s.alpha, s.pac_delta, s.n - s.n // 2)
        all_rows = []
        for d, files in first.items():
            header, rows = checks.parse_trials_csv(files["trials.csv"])
            all_rows.extend(rows)
            failures += checks.check_trial_rows(
                header, rows, n=s.n, n_test=s.n_test, d=d, alpha=s.alpha, trials=s.trials
            )
            expected = checks.summary_from_rows(rows, s.alpha)
            failures += checks.check_summary_csv(files["summary.csv"], expected)
            failures += checks.check_summary_json(files["summary.json"], expected)
            failures += checks.check_split_pac(rows, limit)
        for r, files in enumerate(self.round_files[1:], 1):
            for d, content in files.items():
                if d in first and content != first[d]:
                    failures.append(f"round {r} d={d}: outputs differ from round 0")
        wanted = [[d, 0] for d in s.check_dims if d in first]
        if wanted:
            reference, errors = paper_reference(s, self.seed, wanted)
            failures += errors
            failures += checks.check_reference(all_rows, reference, s.n_test)
        return failures


def paper_reference(sizes: PaperSizes, seed: int, trials) -> tuple[dict, list[str]]:
    """Run paper_reference.py in a child with single-threaded BLAS."""
    spec = {
        "n": sizes.n, "n_test": sizes.n_test, "alpha": sizes.alpha,
        "penalty": sizes.penalty, "K": sizes.cv_folds, "seed": seed, "trials": trials,
    }
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "paper_reference.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
    except subprocess.TimeoutExpired:
        return {}, ["paper reference recomputation timed out"]
    if proc.returncode != 0:
        return {}, [f"paper reference recomputation failed: {proc.stderr[-500:]}"]
    rows = json.loads(proc.stdout.strip().splitlines()[-1])
    return {(d, t, m): (a, w) for d, t, m, a, w in rows}, []


# -- clock-n5000 ----------------------------------------------------------------


@dataclass(frozen=True)
class ClockSizes:
    n: int = 5000
    n_test: int = 1000
    trials: int = 10
    alpha: float = 0.1
    probes: int = 1000
    collapse_calls: int = 4  # per method and round, so the part lasts about 1 s
    rate_trials: int = 1000
    endpoint_probes: int = 20


class Clock(Workload):
    name = "clock-n5000"
    part_names = (
        "trial_s.clock_full", "trial_s.clock_jk", "call_s.collapse_check",
        "call_s.event_rates",
    )
    workers = 1

    def setup(self):
        import coverkit.cli as cli
        from coverkit import collapse_check, event_rates_montecarlo
        from coverkit.experiments import ExperimentConfig, adversary_training_set

        s = self.sizes
        self.cli = cli
        self.collapse_check = collapse_check
        self.event_rates = event_rates_montecarlo
        self.training_set = adversary_training_set
        self.configs = {
            mode: ExperimentConfig(
                n=s.n, n_test=s.n_test, d=1, alpha=s.alpha, trials=s.trials,
                master_seed=self.seed, mode=mode,
            )
            for mode in ("adversary_full", "adversary_jk")
        }
        config = self.configs["adversary_jk"]
        self.clock = config.clock_config()
        self.M1, self.y_star, self.k = checks.clock_parameters(s.n, s.n, s.alpha)
        self.event_train = self._event_training_set()
        self.probes = np.random.default_rng([self.seed & 0xFFFFFFFF, 3]).uniform(
            0.0, 1.0, (s.probes, 1)
        )
        self.round_files: list[dict] = []
        self.collapse: list[tuple] = []
        self.rates: list = []
        self.tracer.wrap(cli, "run_trials", "experiments.run_trials")
        self.tracer.wrap(cli, "write_trials_csv", "experiments.write")

    def _events(self, train):
        return checks.clock_events(
            train.x, train.y, M=self.sizes.n, M1=self.M1, y_star=self.y_star, k=self.k
        )

    def _event_training_set(self):
        """A training set on which all three events hold, at a fixed cost.

        A clock draw, with the first point moved to the cell that puts the
        modular cell sum at 0, inside the window; the other two events hold
        with probability about 1 - 3/n, and a failing draw is replaced.
        """
        from coverkit import Dataset
        from coverkit.adversary import default_clock_sampler

        n = self.sizes.n
        rng = np.random.default_rng([self.seed & 0xFFFFFFFF, 2])
        while True:
            train = default_clock_sampler(n, rng)
            cells = checks.clock_cells(train.x, n)
            x = train.x.copy()
            x[0, 0] = (int(cells[0] - cells.sum()) % n + 0.5) / n
            train = Dataset(x, train.y)
            if all(self._events(train)):
                return train

    def argv(self, method: str, target: Path) -> list[str]:
        s = self.sizes
        return [
            "adversary", "--method", method, "--n", str(s.n), "--n-test", str(s.n_test),
            "--trials", str(s.trials), "--alpha", repr(s.alpha), "--seed", str(self.seed),
            "--out-dir", str(target),
        ]

    def run_round(self, r: int) -> dict:
        s = self.sizes
        parts, files = {}, {}
        for slot, method in zip(PARTS, ("full", "jk")):
            target = self.out_dir / f"r{r}" / method
            target.mkdir(parents=True)
            _, elapsed = self.op("cli.main", _cli_main, self.cli, self.argv(method, target))
            if elapsed is not None:
                parts[slot] = elapsed / s.trials
                files[method] = _read(target / "adversary_trials.csv")
        self.round_files.append(files)

        def collapse_checks():
            return tuple(
                self.collapse_check(self.event_train, self.clock, s.alpha, m, self.probes)
                for _ in range(s.collapse_calls) for m in ("full", "jk")
            )

        collapsed, elapsed = self.op("adversary.collapse_check", collapse_checks)
        if elapsed is not None:
            parts["op3_s"] = elapsed / (2 * s.collapse_calls)
            self.collapse.append(collapsed)
        rates, elapsed = self.op(
            "adversary.event_rates_montecarlo", self.event_rates,
            s.n, self.clock, s.alpha, s.rate_trials, self.seed,
        )
        if elapsed is not None:
            parts["op4_s"] = elapsed
            self.rates.append(rates)
        return parts

    def check(self) -> list[str]:
        from coverkit.adversary import adversary_full_bounds, adversary_jackknife_bounds
        from coverkit.conformal import jackknife_plus_bounds
        from coverkit.regressors import adversary_full_fit, adversary_jackknife_algorithm

        s = self.sizes
        failures = []
        first = self.round_files[0]
        rows_by_mode = {}
        for method, text in first.items():
            header, rows = checks.parse_trials_csv(text)
            mode = "adversary_full" if method == "full" else "adversary_jk"
            rows_by_mode[mode] = rows
            failures += checks.check_trial_rows(
                header, rows, n=s.n, n_test=s.n_test, d=1, alpha=s.alpha,
                trials=s.trials, mode=mode,
                methods=("full",) if method == "full" else ("jackknife+",),
            )
        all_rows = [r for rows in rows_by_mode.values() for r in rows]
        config = self.configs["adversary_full"]
        own = {}
        for trial in range(s.trials):
            events = self._events(self.training_set(config, trial))
            for mode in rows_by_mode:
                own[(mode, trial)] = events
        failures += checks.check_event_flags(all_rows, own)
        failures += checks.check_collapse(all_rows)
        for r, files in enumerate(self.round_files[1:], 1):
            for method, text in files.items():
                if method in first and text != first[method]:
                    failures.append(f"round {r} {method}: outputs differ from round 0")

        # the closed forms against the generic construction and the definition
        train = self.training_set(config, 0)
        failures += checks.check_equal_bounds(
            "adversary_jackknife_bounds",
            adversary_jackknife_bounds(train, self.clock, s.alpha, self.probes),
            jackknife_plus_bounds(
                train, self.probes, adversary_jackknife_algorithm(self.clock), s.alpha
            ),
        )
        probes = self.probes[: s.endpoint_probes]
        lower, upper = adversary_full_bounds(train, self.clock, s.alpha, probes)

        def member(i, label):
            aug = train.append(probes[i], label)
            residuals = np.abs(aug.y - adversary_full_fit(aug, self.clock)(aug.x))
            return bool(np.count_nonzero(residuals[:-1] < residuals[-1]) <= self.k - 1)

        failures += checks.check_set_endpoints(
            "adversary_full_bounds", lower, upper, member, eps=1e-9
        )

        if any(not all(c) for c in self.collapse):
            failures.append(f"collapse_check on an event training set gave {self.collapse}")
        if self.rates:
            failures += self._check_rates(self.rates)
        return failures

    def _check_rates(self, rates) -> list[str]:
        """event_rates_montecarlo against own event counts on the same draws."""
        s = self.sizes
        hits = np.zeros(4)
        for t in range(s.rate_trials):
            rng = np.random.default_rng([self.seed & 0xFFFFFFFF, t])
            x = rng.uniform(0.0, 1.0, size=(s.n, 1))
            y = rng.standard_normal(s.n)
            e_max, e_mod, e_unif = checks.clock_events(
                x, y, M=s.n, M1=self.M1, y_star=self.y_star, k=self.k
            )
            hits += (e_mod, e_max, e_unif, e_max and e_mod and e_unif)
        own = tuple(float(h) for h in hits / s.rate_trials)
        failures = []
        for r, got in enumerate(rates):
            api = (got.p_mod, got.p_max, got.p_unif, got.p_all)
            if api != own or got.trials != s.rate_trials:
                failures.append(f"round {r}: event rates {api} but own counts give {own}")
        return failures


# -- library-api ----------------------------------------------------------------


@dataclass(frozen=True)
class LibrarySizes:
    n: int = 200
    d: int = 200  # d = n: the interpolation threshold
    batch: int = 100
    alpha: float = 0.1
    penalty: float = 1e-4
    cv_folds: int = 20
    cv_calls: int = 5  # per round, so the part lasts about 1 s
    grid_queries: int = 2
    grid_n: int = 30
    grid_d: int = 5
    grid_points: int = 4000


class LibraryApi(Workload):
    name = "library-api"
    part_names = (
        "query_s.full_exact", "call_s.jackknife_plus", "call_s.cv_plus",
        "query_s.full_grid",
    )
    workers = 1

    def setup(self):
        import coverkit
        from coverkit import (
            Dataset, GridSpec, RidgeConfig, full_conformal_ridge_exact, make_folds,
            ridge_algorithm,
        )

        s = self.sizes
        self.api = coverkit
        self.ridge = RidgeConfig(s.penalty)
        self.algo = ridge_algorithm(self.ridge)
        rng = np.random.default_rng([self.seed & 0xFFFFFFFF, 11])
        direction = rng.standard_normal(s.d)
        beta = math.sqrt(10.0) * direction / np.linalg.norm(direction)
        x = rng.standard_normal((s.n + s.batch, s.d))
        y = x @ beta + rng.standard_normal(s.n + s.batch)
        self.train = Dataset(x[: s.n], y[: s.n])
        self.x_test, self.y_test = x[s.n:], y[s.n:]
        self.folds = make_folds(s.n, s.cv_folds, int(rng.integers(0, 2**31 - 1)))
        # criterion-8 scale problems for the grid: the grid spans the exact
        # set and 0.25 on each side, in a fixed number of steps so that the
        # work per query does not depend on the seed
        self.grid_problems = []
        for _ in range(s.grid_queries):
            gx = rng.standard_normal((s.grid_n, s.grid_d))
            gy = gx @ (rng.standard_normal(s.grid_d) / math.sqrt(s.grid_d))
            gy = gy + rng.standard_normal(s.grid_n)
            gtrain, gnew = Dataset(gx, gy), rng.standard_normal(s.grid_d)
            exact = full_conformal_ridge_exact(gtrain, gnew, self.ridge, s.alpha)
            lo, hi = exact.intervals[0, 0] - 0.25, exact.intervals[-1, 1] + 0.25
            spec = GridSpec(lo, hi, (hi - lo) / s.grid_points)
            self.grid_problems.append((gtrain, gnew, exact, spec))
        self.outputs: list[dict] = []
        self.repeat_mismatch = False
        self.tracer.wrap(coverkit.regressors, "ridge_fit", "regressors.ridge_fit")

    def run_round(self, r: int) -> dict:
        s, api = self.sizes, self.api
        parts, out = {}, {}

        def exact_all():
            return [
                api.full_conformal_ridge_exact(self.train, self.x_test[t], self.ridge, s.alpha)
                for t in range(s.batch)
            ]

        out["exact"], elapsed = self.op("conformal.full_conformal_ridge_exact", exact_all)
        if elapsed is not None:
            parts["op1_s"] = elapsed / s.batch
        out["jk"], parts["op2_s"] = self.op(
            "conformal.jackknife_plus_bounds", api.jackknife_plus_bounds,
            self.train, self.x_test, self.algo, s.alpha,
        )
        def cv_all():
            return [
                api.cv_plus_bounds(self.train, self.x_test, self.algo, s.alpha, self.folds)
                for _ in range(s.cv_calls)
            ]

        cv, elapsed = self.op("conformal.cv_plus_bounds", cv_all)
        out["cv"] = None if cv is None else cv[0]
        if elapsed is not None:
            parts["op3_s"] = elapsed / s.cv_calls
            if any(not _bounds_equal(c, cv[0]) for c in cv[1:]):
                self.repeat_mismatch = True

        def grid_all():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # boundary-touch warnings
                return [
                    api.full_conformal_grid(g, x, self.algo, s.alpha, grid=spec)
                    for g, x, _, spec in self.grid_problems
                ]

        out["grid"], elapsed = self.op("conformal.full_conformal_grid", grid_all)
        if elapsed is not None:
            parts["op4_s"] = elapsed / s.grid_queries
        self.outputs.append(out)
        return {k: v for k, v in parts.items() if v is not None}

    def check(self) -> list[str]:
        s = self.sizes
        first = self.outputs[0]
        failures = []
        k = math.ceil((1.0 - s.alpha) * (s.n + 1) - 1e-9)
        if first["exact"] is not None:
            for t, pset in enumerate(first["exact"]):
                affine = checks.affine_residuals(
                    self.train.x, self.train.y, self.x_test[t], s.penalty
                )
                failures += checks.check_exact_set(
                    f"full_conformal_ridge_exact query {t}", pset.intervals,
                    lambda y, a=affine: checks.conformal_member(a, y, k),
                    float(self.y_test[t]), eps=1e-6,
                )
        if first["grid"] is not None:
            for q, (grid_set, (gtrain, gnew, exact, spec)) in enumerate(
                zip(first["grid"], self.grid_problems)
            ):
                failures += checks.check_grid_vs_exact(
                    f"full_conformal_grid query {q}", grid_set.intervals,
                    exact.intervals, spec.values(), spec.resolution,
                )
                affine = checks.affine_residuals(gtrain.x, gtrain.y, gnew, s.penalty)
                gk = math.ceil((1.0 - s.alpha) * (s.grid_n + 1) - 1e-9)
                failures += checks.check_exact_set(
                    f"grid query {q} exact set", exact.intervals,
                    lambda y, a=affine: checks.conformal_member(a, y, gk),
                    float(np.mean(exact.intervals[0])), eps=1e-6,
                )
        x, y = self.train.x, self.train.y
        if first["jk"] is not None:
            mu, resid = np.empty((s.n, s.batch)), np.empty(s.n)
            for i in range(s.n):
                keep = np.arange(s.n) != i
                beta = checks.ridge_beta(x[keep], y[keep], s.penalty)
                mu[i], resid[i] = self.x_test @ beta, abs(y[i] - x[i] @ beta)
            failures += checks.check_endpoints(
                "jackknife_plus_bounds", first["jk"], checks.plus_endpoints(mu, resid, k)
            )
        if first["cv"] is not None:
            mu, resid = np.empty((s.n, s.batch)), np.empty(s.n)
            for fold in range(s.cv_folds):
                held = self.folds.assignments == fold
                beta = checks.ridge_beta(x[~held], y[~held], s.penalty)
                mu[held] = self.x_test @ beta
                resid[held] = np.abs(y[held] - x[held] @ beta)
            failures += checks.check_endpoints(
                "cv_plus_bounds", first["cv"], checks.plus_endpoints(mu, resid, k)
            )
        for r, out in enumerate(self.outputs[1:], 1):
            if not _same_library_outputs(first, out):
                failures.append(f"round {r}: outputs differ from round 0")
        if self.repeat_mismatch:
            failures.append("repeated cv_plus_bounds calls in one round differ")
        return failures


def _bounds_equal(p, q) -> bool:
    return all(np.array_equal(u, v) for u, v in zip(p, q))


def _same_library_outputs(a: dict, b: dict) -> bool:
    def sets_equal(xs, ys):
        return len(xs) == len(ys) and all(
            np.array_equal(p.intervals, q.intervals) for p, q in zip(xs, ys)
        )

    if any((a[key] is None) != (b[key] is None) for key in a):
        return True  # a failed operation is counted as failed, not compared
    return (
        (a["exact"] is None or sets_equal(a["exact"], b["exact"]))
        and (a["grid"] is None or sets_equal(a["grid"], b["grid"]))
        and (a["jk"] is None or _bounds_equal(a["jk"], b["jk"]))
        and (a["cv"] is None or _bounds_equal(a["cv"], b["cv"]))
    )


WORKLOADS = {w.name: w for w in (PaperSim, Clock, LibraryApi)}
SIZES = {"paper-sim": PaperSizes(), "clock-n5000": ClockSizes(), "library-api": LibrarySizes()}
