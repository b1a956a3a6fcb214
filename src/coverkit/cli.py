"""Command-line front end.

Three subcommands::

    coverkit simulate   one batch of trials -> trials.csv, summary.csv/json
    coverkit adversary  clock-algorithm demonstration -> CSV + summary line
    coverkit bounds     closed-form bound queries -> table or JSON

Exit codes are a stable contract for scripting: 0 success, 2 invalid usage
or configuration, 3 I/O or worker-process failure. File-producing commands
write a run manifest first; re-running from a manifest reproduces the data
files byte-for-byte. A run writes into a staging directory inside the
output directory and moves its files into place only when it succeeds, so
a failed run leaves the files of an earlier run untouched.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .bounds import (
    INFEASIBLE,
    adversarial_floor,
    corrected_alpha_split,
    cvplus_pac_bound,
    split_pac_bound,
)
from .experiments import (
    ADVERSARY_FULL,
    ADVERSARY_JK,
    RIDGE_SIM,
    ExperimentConfig,
    run_trials,
    summarize,
    write_summary_csv,
    write_summary_json,
    write_trials_csv,
)

OUT_DIR_ENV = "COVERKIT_OUT_DIR"

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_IO = 3

PRESETS: dict[str, dict] = {
    "paper": {
        "mode": RIDGE_SIM,
        "n": 500,
        "n_test": 1000,
        "dims": [125, 250, 500, 1000],
        "alpha": 0.1,
        "trials": 200,
        "methods": "split,full,jackknife+,cv+",
        "ridge_penalty": 1e-4,
        "cv_folds": 20,
        "master_seed": 20240601,
    },
    "smoke": {
        "mode": RIDGE_SIM,
        "n": 40,
        "n_test": 200,
        "dims": [10],
        "alpha": 0.1,
        "trials": 20,
        "methods": "split,full,jackknife+,cv+",
        "ridge_penalty": 1e-4,
        "cv_folds": 4,
        "master_seed": 20240601,
    },
    "adversary-demo": {
        "mode": ADVERSARY_JK,
        "n": 2000,
        "n_test": 500,
        "dims": [1],
        "alpha": 0.1,
        "trials": 300,
        "master_seed": 20240601,
    },
}


class ConfigError(Exception):
    """Invalid configuration: maps to exit code 2."""


def _parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; keys as in presets."""
    values: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


_INT_KEYS = {"n", "n_test", "trials", "cv_folds", "master_seed", "clock_M"}
_FLOAT_KEYS = {"alpha", "ridge_penalty"}


def _coerce(key: str, value):
    if isinstance(value, str):
        try:
            if key in _INT_KEYS:
                return int(value)
            if key in _FLOAT_KEYS:
                return float(value)
            if key == "dims":
                return [int(part) for part in value.split(",") if part.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return value


def _resolve_simulate_config(args) -> dict:
    if args.from_manifest:
        try:
            raw = RunManifest.load_config(args.from_manifest)
        except OSError as exc:
            raise ConfigError(f"cannot read manifest: {exc}") from exc
    elif args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}"
            )
        raw = dict(PRESETS[args.preset])
    elif args.config:
        raw = _parse_config_file(args.config)
    else:
        raw = dict(PRESETS["smoke"])

    overrides = {
        "mode": args.mode,
        "n": args.n,
        "n_test": args.n_test,
        "dims": args.dims,
        "alpha": args.alpha,
        "trials": args.trials,
        "methods": args.methods,
        "ridge_penalty": args.ridge_penalty,
        "cv_folds": args.cv_folds,
        "master_seed": args.seed,
        "clock_M": args.clock_M,
    }
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value

    unknown = set(raw) - set(overrides) - {"d"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "d" in raw and "dims" not in raw:
        raw["dims"] = [raw.pop("d")]
    raw.setdefault("mode", RIDGE_SIM)
    raw.setdefault("master_seed", 0)
    for key in ("n", "n_test", "alpha", "trials", "dims"):
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
    return {key: _coerce(key, value) for key, value in raw.items()}


def _experiment_config(resolved: dict, d: int) -> ExperimentConfig:
    kwargs = dict(
        n=resolved["n"],
        n_test=resolved["n_test"],
        d=d,
        alpha=resolved["alpha"],
        trials=resolved["trials"],
        master_seed=resolved["master_seed"],
        mode=resolved["mode"],
    )
    if resolved["mode"] == RIDGE_SIM:
        methods = resolved.get("methods", "split,full,jackknife+,cv+")
        if isinstance(methods, str):
            methods = tuple(m.strip() for m in methods.split(",") if m.strip())
        kwargs["methods"] = tuple(methods)
        kwargs["ridge_penalty"] = resolved.get("ridge_penalty", 1e-4)
        kwargs["cv_folds"] = resolved.get("cv_folds", 20)
    if resolved.get("clock_M") is not None:
        kwargs["clock_M"] = resolved["clock_M"]
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_MANIFEST = "manifest.json"


@contextlib.contextmanager
def _staged_outputs(out_dir: str):
    """Yield a fresh staging directory inside ``out_dir`` for a run's files.

    When the block succeeds, each staged file replaces its namesake in
    ``out_dir``, the manifest last; whatever happens, the staging
    directory is then removed, so a failed run changes nothing in
    ``out_dir``.
    """
    if not os.path.isdir(out_dir):
        raise OSError(f"output directory does not exist: {out_dir}")
    staging = tempfile.mkdtemp(prefix=".coverkit-staging-", dir=out_dir)
    try:
        yield staging
        for name in sorted(os.listdir(staging), key=lambda name: name == _MANIFEST):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass
class RunManifest:
    """Everything needed to re-run a file-producing command bit-identically.

    Written to the run's staging directory before any data file, then
    rewritten with the end timestamp once the run succeeds, and moved into
    the output directory after the data files. A hard-killed run therefore
    leaves a `finished: null` manifest inside a `.coverkit-staging-*`
    directory of the output directory, never beside the data files.
    `simulate --from-manifest` replays the stored config.
    """

    command: str
    version: str
    master_seed: int | None
    config: dict
    outputs: dict
    environment: dict
    started: str
    finished: str | None = None

    def write(self, path: str) -> None:
        _write_json(asdict(self), path)

    @staticmethod
    def load_config(path: str) -> dict:
        with open(path, encoding="utf-8") as handle:
            return dict(json.load(handle).get("config", {}))


def _manifest(
    command: str, config: dict, outputs: dict, started: str, workers: int
) -> RunManifest:
    return RunManifest(
        command=command,
        version=__version__,
        master_seed=config.get("master_seed"),
        config=config,
        outputs=outputs,
        environment=_environment(workers),
        started=started,
    )


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment(workers: int) -> dict:
    """What the data bytes depend on beyond the config.

    The last digits of some widths change with the BLAS library and its
    thread count, so a replay is byte-identical only where these match.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            key: blas.get(key) for key in ("name", "version", "openblas configuration")
        },
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "workers": workers,
    }


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _cmd_simulate(args) -> int:
    resolved = _resolve_simulate_config(args)
    dims = resolved["dims"]
    configs = [_experiment_config(resolved, d) for d in dims]

    outputs = {
        "trials_csv": "trials.csv",
        "summary_csv": "summary.csv",
        "summary_json": "summary.json",
    }
    started = _now()
    manifest = _manifest("simulate", resolved, outputs, started, args.workers)
    t0 = time.monotonic()
    with _staged_outputs(args.out_dir) as staging:
        manifest.write(os.path.join(staging, _MANIFEST))

        records = []
        for config in configs:
            records.extend(run_trials(config, workers=args.workers))
        report = summarize(records)

        write_trials_csv(records, os.path.join(staging, outputs["trials_csv"]))
        write_summary_csv(report, os.path.join(staging, outputs["summary_csv"]))
        write_summary_json(report, os.path.join(staging, outputs["summary_json"]))
        manifest.finished = _now()
        manifest.write(os.path.join(staging, _MANIFEST))

    elapsed = time.monotonic() - t0
    print(f"simulate: {len(records)} records over {sum(c.trials for c in configs)} "
          f"trials x {len(dims)} dimension(s) in {elapsed:.1f}s")
    for s in report.entries:
        print(
            f"  {s.method:<11} d={s.d:<5} mean={s.mean:.4f} median={s.median:.4f} "
            f"max={s.max:.4f} P(>alpha)={s.frac_gt_alpha:.3f}"
        )
    print(f"outputs written to {args.out_dir}")
    return _EXIT_OK


def _cmd_adversary(args) -> int:
    if args.method not in ("full", "jk"):
        raise ConfigError(f"method must be 'full' or 'jk', got {args.method!r}")
    mode = ADVERSARY_FULL if args.method == "full" else ADVERSARY_JK
    resolved = {
        "mode": mode,
        "n": args.n,
        "n_test": args.n_test,
        "dims": [1],
        "alpha": args.alpha,
        "trials": args.trials,
        "master_seed": args.seed,
        "clock_M": args.clock_M,
    }
    config = _experiment_config(resolved, d=1)
    clock = config.clock_config()
    if clock.M1 == 0:
        print(
            f"warning: M1 = 0 at n={config.n} (the level correction exceeds "
            "alpha); the adversarial demonstration degenerates",
            file=sys.stderr,
        )

    outputs = {"trials_csv": "adversary_trials.csv"}
    manifest = _manifest("adversary", resolved, outputs, _now(), args.workers)
    with _staged_outputs(args.out_dir) as staging:
        manifest.write(os.path.join(staging, _MANIFEST))
        records = run_trials(config, workers=args.workers)
        write_trials_csv(records, os.path.join(staging, outputs["trials_csv"]))
        manifest.finished = _now()
        manifest.write(os.path.join(staging, _MANIFEST))

    collapse_frac = sum(r.alpha_hat >= 0.99 for r in records) / len(records)
    event_frac = sum(r.events.all_three for r in records) / len(records)
    floor = adversarial_floor(config.alpha, config.n)
    floor_note = " [VACUOUS]" if floor.vacuous else ""
    print(
        f"adversary {args.method}: n={config.n}, M={clock.M}, M1={clock.M1}, "
        f"trials={config.trials}"
    )
    print(f"  P(alpha_hat >= 0.99) = {collapse_frac:.4f}")
    print(f"  all-three-events rate = {event_frac:.4f}  (M1/M = {clock.M1 / clock.M:.4f})")
    print(f"  theoretical floor = {floor.value:.4f}{floor_note}")
    return _EXIT_OK


# --option: (row name, size parameters, bound function, result -> (value, flag))
_BOUNDS = {
    "split": (
        "split_pac", ("delta", "n1"), split_pac_bound,
        lambda v: (v, _upper_bound_flag(v)),
    ),
    "cvplus": (
        "cvplus_pac", ("delta", "K", "m"), cvplus_pac_bound,
        lambda v: (v, _upper_bound_flag(v)),
    ),
    "floor": (
        "adversarial_floor", ("n",), adversarial_floor,
        lambda f: (f.value, "VACUOUS" if f.vacuous else ""),
    ),
    "corrected": (
        "corrected_alpha_split", ("delta", "n1"), corrected_alpha_split,
        lambda c: (None, "INFEASIBLE") if c is INFEASIBLE else (c, ""),
    ),
}


def _bound_rows(args) -> list[dict]:
    if args.alpha is None:
        raise ConfigError("bounds queries require --alpha")
    rows = []
    for option, (bound, names, compute, value_and_flag) in _BOUNDS.items():
        if not getattr(args, option):
            continue
        missing = [name for name in names if getattr(args, name) is None]
        if missing:
            raise ConfigError(f"this bound needs {missing} to be set")
        params = {name: getattr(args, name) for name in ("alpha", *names)}
        try:
            value, flag = value_and_flag(compute(*params.values()))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        rows.append({"bound": bound, "value": value, "flag": flag, "params": params})
    if not rows:
        raise ConfigError(
            "select at least one of --split, --cvplus, --floor, --corrected"
        )
    return rows


def _upper_bound_flag(value: float) -> str:
    if value >= 1.0:
        return "VACUOUS"
    if value >= 0.8:
        return "VACUOUS-NEAR-1"
    return ""


def _cmd_bounds(args) -> int:
    rows = _bound_rows(args)
    if args.json:
        print(json.dumps({"bounds": rows}, indent=2))
        return _EXIT_OK
    for row in rows:
        value = "INFEASIBLE" if row["value"] is None else f"{row['value']:.6f}"
        flag = f"  [{row['flag']}]" if row["flag"] else ""
        params = ", ".join(f"{k}={v}" for k, v in row["params"].items())
        print(f"{row['bound']:<24} {value}{flag}    ({params})")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverkit",
        description="Distribution-free prediction intervals and "
        "training-conditional coverage experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    default_out = os.environ.get(OUT_DIR_ENV, ".")

    sim = sub.add_parser("simulate", help="run a batch of trials")
    sim.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sim.add_argument("--config", help="flat key=value config file", default=None)
    sim.add_argument("--from-manifest", default=None,
                     help="re-run the configuration stored in a manifest")
    sim.add_argument("--out-dir", default=default_out)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--mode", choices=[RIDGE_SIM, ADVERSARY_FULL, ADVERSARY_JK],
                     default=None)
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--n-test", dest="n_test", type=int, default=None)
    sim.add_argument("--dims", type=lambda s: [int(p) for p in s.split(",")],
                     default=None, help="comma-separated feature dimensions")
    sim.add_argument("--alpha", type=float, default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--methods", default=None,
                     help="comma-separated subset of split,full,jackknife+,cv+")
    sim.add_argument("--ridge-penalty", dest="ridge_penalty", type=float,
                     default=None)
    sim.add_argument("--cv-folds", dest="cv_folds", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--clock-M", dest="clock_M", type=int, default=None)
    sim.set_defaults(func=_cmd_simulate)

    adv = sub.add_parser("adversary", help="clock-algorithm demonstration")
    adv.add_argument("--method", required=True, help="'full' or 'jk'")
    adv.add_argument("--n", type=int, required=True)
    adv.add_argument("--trials", type=int, default=500)
    adv.add_argument("--n-test", dest="n_test", type=int, default=1000)
    adv.add_argument("--alpha", type=float, default=0.1)
    adv.add_argument("--seed", type=int, default=0)
    adv.add_argument("--clock-M", dest="clock_M", type=int, default=None)
    adv.add_argument("--out-dir", default=default_out)
    adv.add_argument("--workers", type=int, default=1)
    adv.set_defaults(func=_cmd_adversary)

    bnd = sub.add_parser("bounds", help="closed-form bound queries")
    bnd.add_argument("--split", action="store_true")
    bnd.add_argument("--cvplus", action="store_true")
    bnd.add_argument("--floor", action="store_true")
    bnd.add_argument("--corrected", action="store_true")
    bnd.add_argument("--alpha", type=float, default=None)
    bnd.add_argument("--delta", type=float, default=None)
    bnd.add_argument("--n1", type=int, default=None)
    bnd.add_argument("--K", type=int, default=None)
    bnd.add_argument("--m", type=int, default=None)
    bnd.add_argument("--n", type=int, default=None)
    bnd.add_argument("--json", action="store_true")
    bnd.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except BrokenProcessPool as exc:
        print(f"error: a worker process failed: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
