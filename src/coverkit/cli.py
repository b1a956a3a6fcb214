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
from ._blas import pinned_libraries
from .bounds import (
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
    _RIDGE_ONLY,
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
        "methods": ["split", "full", "jackknife+", "cv+"],
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
        "methods": ["split", "full", "jackknife+", "cv+"],
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

# `coverkit adversary`: one clock run at d = 1; --n has no default
_ADVERSARY_DEFAULTS = {
    "n_test": 1000,
    "dims": [1],
    "alpha": 0.1,
    "trials": 500,
    "master_seed": 0,
}


class ConfigError(Exception):
    """Invalid configuration: maps to exit code 2."""


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _name_list(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


# config key -> (flag, parser of a flag or config-file string); the keys are
# ExperimentConfig's fields, with "dims" (one config per d) for "d"
_CONFIG_KEYS = {
    "mode": ("--mode", str),
    "n": ("--n", int),
    "n_test": ("--n-test", int),
    "dims": ("--dims", _int_list),
    "alpha": ("--alpha", float),
    "trials": ("--trials", int),
    "methods": ("--methods", _name_list),
    "ridge_penalty": ("--ridge-penalty", float),
    "cv_folds": ("--cv-folds", int),
    "master_seed": ("--seed", int),
}


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


def _base_config(args) -> dict:
    """The config ``simulate`` starts from, before its flags override it."""
    if args.from_manifest:
        try:
            return RunManifest.load_config(args.from_manifest)
        except OSError as exc:
            raise ConfigError(f"cannot read manifest: {exc}") from exc
    if args.preset:
        return PRESETS[args.preset]
    if args.config:
        return _parse_config_file(args.config)
    return PRESETS["smoke"]


def _resolve_config(base: dict, args) -> dict:
    """``base`` with the config flags set in ``args`` applied, checked and parsed."""
    # a null value (an unset key of an older manifest) counts as absent
    raw = {key: value for key, value in base.items() if value is not None}
    for key in _CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("mode") in (ADVERSARY_FULL, ADVERSARY_JK):
        # keys only the ridge mode reads: a flag is an error, and a value from
        # the smoke preset, a config file or a manifest is dropped unrecorded
        for key in _RIDGE_ONLY:
            if getattr(args, key, None) is not None:
                flag, mode = _CONFIG_KEYS[key][0], raw["mode"]
                raise ConfigError(f"{flag} has no effect in mode {mode}")
            raw.pop(key, None)
    raw.setdefault("master_seed", 0)
    for key in ("n", "n_test", "alpha", "trials", "dims"):
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
    for key, value in raw.items():
        if isinstance(value, str):  # from a config file or an older manifest
            try:
                raw[key] = _CONFIG_KEYS[key][1](value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return raw


def _experiment_configs(resolved: dict) -> list[ExperimentConfig]:
    """One config per d in ``dims``; ExperimentConfig supplies the defaults."""
    rest = {key: value for key, value in resolved.items() if key != "dims"}
    return [ExperimentConfig(d=d, **rest) for d in resolved["dims"]]


_MANIFEST = "manifest.json"


@contextlib.contextmanager
def _staged_outputs(out_dir: str, manifest: RunManifest):
    """Yield a fresh staging directory inside ``out_dir`` for a run's files.

    ``manifest`` is written there before the block runs. When the block
    succeeds, the manifest is rewritten with its end timestamp and each
    staged file replaces its namesake in ``out_dir``, the manifest last;
    whatever happens, the staging directory is then removed, so a failed
    run changes nothing in ``out_dir``. A hard-killed run therefore leaves
    a `finished: null` manifest inside a `.coverkit-staging-*` directory of
    ``out_dir``, never beside the data files.
    """
    if not os.path.isdir(out_dir):
        raise OSError(f"output directory does not exist: {out_dir}")
    staging = tempfile.mkdtemp(prefix=".coverkit-staging-", dir=out_dir)
    try:
        manifest.write(os.path.join(staging, _MANIFEST))
        yield staging
        manifest.finished = _now()
        manifest.write(os.path.join(staging, _MANIFEST))
        for name in sorted(os.listdir(staging), key=lambda name: name == _MANIFEST):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


@dataclass
class RunManifest:
    """Everything needed to re-run a file-producing command bit-identically.

    ``_staged_outputs`` writes it before any data file and moves it into
    the output directory after them. `simulate --from-manifest` replays the
    stored config.
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
        with open(path, "w", encoding="utf-8", newline="") as handle:
            json.dump(asdict(self), handle, indent=2, sort_keys=True)
            handle.write("\n")

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
    """The machine a run's data bytes came from, beyond the config.

    The library runs its linear algebra on one BLAS thread whatever the
    thread variables say (``blas_pinned`` names the OpenBLAS libraries it
    pins), so a replay on the same BLAS build writes the same bytes at any
    thread setting. The last digits of some widths can still change with
    the BLAS library or its version, which ``blas`` records.
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
        "blas_pinned": pinned_libraries(),
        "cpu_count": os.cpu_count(),
        "workers": workers,
    }


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _cmd_simulate(args) -> int:
    resolved = _resolve_config(_base_config(args), args)
    configs = _experiment_configs(resolved)

    outputs = {
        "trials_csv": "trials.csv",
        "summary_csv": "summary.csv",
        "summary_json": "summary.json",
    }
    manifest = _manifest("simulate", resolved, outputs, _now(), args.workers)
    t0 = time.monotonic()
    with _staged_outputs(args.out_dir, manifest) as staging:
        records = []
        for config in configs:
            records.extend(run_trials(config, workers=args.workers))
        report = summarize(records)

        write_trials_csv(records, os.path.join(staging, outputs["trials_csv"]))
        write_summary_csv(report, os.path.join(staging, outputs["summary_csv"]))
        write_summary_json(report, os.path.join(staging, outputs["summary_json"]))

    elapsed = time.monotonic() - t0
    print(f"simulate: {len(records)} records over {sum(c.trials for c in configs)} "
          f"trials x {len(configs)} dimension(s) in {elapsed:.1f}s")
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
    resolved = _resolve_config({**_ADVERSARY_DEFAULTS, "mode": mode}, args)
    (config,) = _experiment_configs(resolved)
    clock = config.clock_config()
    if clock.M1 == 0:
        print(
            f"warning: M1 = 0 at n={config.n} (the level correction exceeds "
            "alpha); the adversarial demonstration degenerates",
            file=sys.stderr,
        )

    outputs = {"trials_csv": "adversary_trials.csv"}
    manifest = _manifest("adversary", resolved, outputs, _now(), args.workers)
    with _staged_outputs(args.out_dir, manifest) as staging:
        records = run_trials(config, workers=args.workers)
        write_trials_csv(records, os.path.join(staging, outputs["trials_csv"]))

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
        lambda c: (c, "INFEASIBLE" if c is None else ""),
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


def _add_config_flags(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        flag, parse = _CONFIG_KEYS[key]
        parser.add_argument(flag, dest=key, type=parse, help=f"sets config key {key}")


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
    _add_config_flags(sim, _CONFIG_KEYS)
    sim.set_defaults(func=_cmd_simulate)

    adv = sub.add_parser("adversary", help="clock-algorithm demonstration")
    adv.add_argument("--method", required=True, help="'full' or 'jk'")
    _add_config_flags(adv, ("n", "n_test", "alpha", "trials", "master_seed"))
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
