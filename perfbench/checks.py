"""Correctness checks on what the workloads produce.

Every check is a function that takes outputs (parsed files, arrays, or
callables that answer a definition) and returns a list of failure
messages; an empty list means the output passed. None compares against a
stored copy of earlier output: each holds the program to an independent
computation in this package's own numpy code, to a generic construction
of ``coverkit.conformal``, or to a property the method must have.

Tolerances are stated where they are used.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TRIALS_HEADER = [
    "trial", "method", "mode", "n", "d", "alpha", "alpha_hat", "mean_width",
    "e_max", "e_mod", "e_unif",
]
SUMMARY_HEADER = [
    "method", "d", "mean", "median", "max", "frac_gt_alpha", "frac_gt_0.2",
    "frac_gt_0.99",
]
RIDGE_METHODS = ("split", "full", "jackknife+", "cv+")

# alpha_hat is a count over n_test: a label sitting within rounding of an
# interval endpoint may flip between two exact computations, so the
# reference recomputation allows two such labels per trial.
ALPHA_HAT_SLACK_LABELS = 2
# Widths from the Gram-identity engine and from refitting agree to solver
# precision; 1e-6 relative leaves room for the near-singular d = n case.
WIDTH_RTOL = 1e-6
# Own numpy refits against coverkit's refits (jackknife+, cv+ endpoints).
ENDPOINT_RTOL = 1e-6
SUMMARY_RTOL = 1e-12


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# -- paper-sim: files -----------------------------------------------------------


def parse_trials_csv(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    rows = [dict(zip(header, row)) for row in reader]
    return header, rows


def check_trial_rows(
    header, rows, *, n: int, n_test: int, d: int, alpha: float, trials: int,
    methods=RIDGE_METHODS, mode: str = "ridge_sim",
) -> list[str]:
    """Each row well formed; alpha_hat a count over n_test in [0, 1]; each
    width positive and finite (+inf allowed for full conformal); one row
    per (trial, method)."""
    failures = []
    if list(header) != TRIALS_HEADER:
        return [f"trials.csv header {header!r}"]
    seen = set()
    for i, row in enumerate(rows):
        where = f"trials.csv row {i + 1}"
        try:
            trial, method = int(row["trial"]), row["method"]
            alpha_hat = float(row["alpha_hat"])
            width = float(row["mean_width"])
            fields_ok = (
                row["mode"] == mode and int(row["n"]) == n
                and int(row["d"]) == d and float(row["alpha"]) == alpha
            )
        except (KeyError, ValueError, TypeError) as exc:
            failures.append(f"{where}: unparsable ({exc})")
            continue
        if not fields_ok:
            failures.append(f"{where}: mode/n/d/alpha do not match the config")
        if method not in methods:
            failures.append(f"{where}: unknown method {method!r}")
        if not 0.0 <= alpha_hat <= 1.0:
            failures.append(f"{where}: alpha_hat {alpha_hat} outside [0, 1]")
        count = alpha_hat * n_test
        if abs(count - round(count)) > 1e-6:
            failures.append(f"{where}: alpha_hat {alpha_hat} is not a count over {n_test}")
        # full conformal's exact set is unbounded at some test points near
        # d = n (its own residual's slope is among the k smallest), which
        # makes the mean width +inf; every other method's width is finite
        unbounded_ok = method == "full" and width == math.inf
        if not (width > 0.0 and (math.isfinite(width) or unbounded_ok)):
            failures.append(f"{where}: mean_width {width} not finite and positive")
        if mode == "ridge_sim" and any(row[k] for k in ("e_max", "e_mod", "e_unif")):
            failures.append(f"{where}: event flags set on a ridge trial")
        seen.add((trial, method))
    expected = {(t, m) for t in range(trials) for m in methods}
    if seen != expected or len(rows) != len(expected):
        failures.append(
            f"trials.csv holds {len(rows)} rows for {len(seen)} (trial, method) "
            f"pairs, expected {len(expected)}"
        )
    return failures


def summary_from_rows(rows, alpha: float) -> dict:
    """Per-(method, d) aggregates recomputed from trials.csv rows."""
    groups: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        groups.setdefault((row["method"], int(row["d"])), []).append(
            float(row["alpha_hat"])
        )
    out = {}
    for key, values in groups.items():
        ordered = sorted(values)
        size = len(ordered)
        mid = size // 2
        med = ordered[mid] if size % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
        out[key] = {
            "mean": math.fsum(ordered) / size,
            "median": med,
            "max": ordered[-1],
            "frac_gt_alpha": sum(v > alpha for v in ordered) / size,
            "frac_gt_0.2": sum(v > 0.2 for v in ordered) / size,
            "frac_gt_0.99": sum(v >= 0.99 for v in ordered) / size,
            "ecdf": ordered,
        }
    return out


_SUMMARY_FIELDS = ("mean", "median", "max", "frac_gt_alpha", "frac_gt_0.2", "frac_gt_0.99")


def check_summary_csv(text: str, expected: dict) -> list[str]:
    failures = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if header != SUMMARY_HEADER:
        return [f"summary.csv header {header!r}"]
    seen = set()
    for row in reader:
        rec = dict(zip(header, row))
        try:
            key = (rec["method"], int(rec["d"]))
        except (KeyError, ValueError):
            failures.append(f"summary.csv row {row!r} unparsable")
            continue
        seen.add(key)
        if key not in expected:
            failures.append(f"summary.csv has a row for {key} with no trials")
            continue
        for name in _SUMMARY_FIELDS:
            got = float(rec[name])
            if not _close(got, expected[key][name], SUMMARY_RTOL):
                failures.append(
                    f"summary.csv {key} {name}={got} but trials.csv gives "
                    f"{expected[key][name]}"
                )
    if seen != set(expected):
        failures.append(f"summary.csv covers {sorted(seen)}, trials.csv {sorted(expected)}")
    return failures


def check_summary_json(text: str, expected: dict) -> list[str]:
    failures = []
    try:
        entries = json.loads(text)["summaries"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"summary.json unparsable ({exc})"]
    seen = set()
    for entry in entries:
        key = (entry.get("method"), entry.get("d"))
        seen.add(key)
        if key not in expected:
            failures.append(f"summary.json has an entry for {key} with no trials")
            continue
        for name in _SUMMARY_FIELDS:
            if not _close(float(entry[name]), expected[key][name], SUMMARY_RTOL):
                failures.append(
                    f"summary.json {key} {name}={entry[name]} but trials.csv "
                    f"gives {expected[key][name]}"
                )
        if list(entry.get("ecdf", [])) != expected[key]["ecdf"]:
            failures.append(f"summary.json {key} ecdf is not the sorted alpha_hat values")
    if seen != set(expected):
        failures.append(f"summary.json covers {sorted(seen)}, trials.csv {sorted(expected)}")
    return failures


def check_split_pac(rows, limit: float) -> list[str]:
    """Split conformal's alpha_hat never exceeds its PAC bound at tiny delta."""
    return [
        f"split alpha_hat {row['alpha_hat']} at d={row['d']} trial {row['trial']} "
        f"exceeds the PAC bound {limit:.4f}"
        for row in rows
        if row["method"] == "split" and float(row["alpha_hat"]) > limit
    ]


def check_reference(rows, reference: dict, n_test: int) -> list[str]:
    """Rows agree with the generic refit constructions on re-derived trials.

    ``reference`` maps (d, trial, method) to (alpha_hat, mean_width).
    """
    failures = []
    by_key = {(int(r["d"]), int(r["trial"]), r["method"]): r for r in rows}
    for key, (ref_alpha, ref_width) in reference.items():
        row = by_key.get(key)
        if row is None:
            failures.append(f"no trials.csv row for re-derived {key}")
            continue
        alpha_hat, width = float(row["alpha_hat"]), float(row["mean_width"])
        if abs(alpha_hat - ref_alpha) > ALPHA_HAT_SLACK_LABELS / n_test + 1e-12:
            failures.append(
                f"{key}: alpha_hat {alpha_hat} but the generic construction "
                f"gives {ref_alpha}"
            )
        if not _close(width, ref_width, WIDTH_RTOL):
            failures.append(
                f"{key}: mean_width {width} but the generic construction "
                f"gives {ref_width}"
            )
    return failures


# -- clock-n5000 ----------------------------------------------------------------


def clock_parameters(n: int, M: int, alpha: float) -> tuple[int, float, int]:
    """(M1, y_star, rank k) from the paper's formulas, in own code."""
    from scipy.stats import norm

    M1 = max(0, math.floor(M * (alpha - math.sqrt(2.0 * math.log(n) / n) - 2.0 / n)))
    y_star = float(norm.ppf(1.0 - 0.5 / n**2))
    k = math.ceil((1.0 - alpha) * (n + 1) - 1e-9)
    return M1, y_star, k


def clock_cells(x: np.ndarray, M: int) -> np.ndarray:
    return np.clip(np.floor(M * np.asarray(x, dtype=float)[:, 0]).astype(np.int64), 0, M - 1)


def clock_events(x, y, *, M: int, M1: int, y_star: float, k: int) -> tuple[bool, bool, bool]:
    """The three events, computed independently of coverkit.adversary.

    e_unif: every circular run of M - M1 consecutive cells holds at least
    k training points (k > n means no run can, so the event fails). Counts
    come from the sorted cells and two binary searches per start cell.
    """
    cells = clock_cells(x, M)
    n = cells.size
    e_max = bool(np.max(np.abs(y)) < y_star)
    e_mod = int(cells.sum()) % M < M1
    if k > n:
        return e_max, e_mod, False
    width = M - M1
    doubled = np.sort(np.concatenate([cells, cells + M]))
    starts = np.arange(M)
    counts = np.searchsorted(doubled, starts + width, "left") - np.searchsorted(
        doubled, starts, "left"
    )
    return e_max, e_mod, bool(counts.min() >= k)


def check_event_flags(rows, own_events: dict) -> list[str]:
    """``own_events`` maps (mode, trial) to the recomputed (e_max, e_mod, e_unif)."""
    failures = []
    for row in rows:
        key = (row["mode"], int(row["trial"]))
        flags = tuple(row[f] == "1" for f in ("e_max", "e_mod", "e_unif"))
        if any(row[f] not in ("0", "1") for f in ("e_max", "e_mod", "e_unif")):
            failures.append(f"{key}: event flags {flags} are not 0/1")
        elif key not in own_events:
            failures.append(f"{key}: no recomputed events")
        elif flags != own_events[key]:
            failures.append(f"{key}: flags {flags} but the training set gives {own_events[key]}")
    return failures


def check_collapse(rows) -> list[str]:
    """Where all three events hold, coverage collapses: alpha_hat >= 0.99."""
    return [
        f"{row['mode']} trial {row['trial']}: all three events hold but "
        f"alpha_hat = {row['alpha_hat']}"
        for row in rows
        if row["e_max"] == row["e_mod"] == row["e_unif"] == "1"
        and float(row["alpha_hat"]) < 0.99
    ]


def check_equal_bounds(label: str, got, reference) -> list[str]:
    """Exact equality of (lower, upper) endpoint arrays."""
    (lo, hi), (ref_lo, ref_hi) = got, reference
    if np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi):
        return []
    bad = int(np.count_nonzero((lo != ref_lo) | (hi != ref_hi)))
    return [f"{label}: {bad} of {len(lo)} probes differ from the generic construction"]


def check_set_endpoints(label: str, lower, upper, member, eps) -> list[str]:
    """Each probe's set [lower, upper] against the set's definition.

    ``member(i, y)`` evaluates the definition at probe i and label y. Just
    inside each endpoint must be in the set, just outside must not.
    """
    failures = []
    for i, (lo, hi) in enumerate(zip(lower, upper)):
        step = eps * max(1.0, abs(lo), abs(hi))
        inside = [lo + step, hi - step] if hi - lo > 2 * step else []
        outside = [lo - step, hi + step]
        if not all(member(i, y) for y in inside) or any(member(i, y) for y in outside):
            failures.append(f"{label}: probe {i} set [{lo}, {hi}] disagrees with the definition")
    return failures


# -- library-api ----------------------------------------------------------------


def ridge_beta(x: np.ndarray, y: np.ndarray, penalty: float) -> np.ndarray:
    """Ridge coefficients by a direct numpy solve (primal or dual form)."""
    n, d = x.shape
    if d <= n:
        return np.linalg.solve(x.T @ x + penalty * np.eye(d), x.T @ y)
    return x.T @ np.linalg.solve(x @ x.T + penalty * np.eye(n), y)


def affine_residuals(x, y, x_new, penalty):
    """One refit on the data augmented with (x_new, label): residuals are
    affine in the label, r_i = a_i + b_i * label, and r_new = a0 + b0 * label."""
    n = x.shape[0]
    x_aug = np.vstack([x, x_new[None, :]])
    rhs = np.zeros((n + 1, 2))
    rhs[:n, 0] = y
    rhs[n, 1] = 1.0
    beta = ridge_beta(x_aug, rhs, penalty)
    fitted = x_aug @ beta
    resid = rhs - fitted
    return resid[:n, 0], resid[:n, 1], resid[n, 0], resid[n, 1]


def conformal_member(affine, label: float, k: int) -> bool:
    """Rank test: the label's own residual is at most the k-th smallest of
    all n + 1 residuals, i.e. at most k - 1 training residuals lie strictly
    below it."""
    a, b, a0, b0 = affine
    own = abs(a0 + b0 * label)
    return int(np.count_nonzero(np.abs(a + b * label) < own)) <= k - 1


def check_exact_set(label: str, intervals: np.ndarray, member, y_true: float, eps: float) -> list[str]:
    """The exact full-conformal set against the definition: at the true
    label, and just inside and just outside every finite endpoint. Points
    within ``eps`` (relative) of an endpoint are not judged."""
    ends = intervals.ravel()
    finite = ends[np.isfinite(ends)]

    def in_set(y):
        return bool(np.any((y >= intervals[:, 0]) & (y <= intervals[:, 1])))

    def away(y):
        return finite.size == 0 or np.min(np.abs(finite - y)) > eps * max(1.0, abs(y))

    probes = [y_true] if away(y_true) else []
    for end in finite:
        step = 4 * eps * max(1.0, abs(end))
        probes.extend(p for p in (end - step, end + step) if away(p))
    wrong = [y for y in probes if in_set(y) != member(y)]
    if wrong:
        return [f"{label}: membership disagrees with the definition at {wrong[:3]}"]
    return []


def check_grid_vs_exact(label: str, grid_intervals, exact_intervals, points, step) -> list[str]:
    """Grid set within one grid step of the exact set: membership may differ
    only next to an exact boundary, and every exact boundary has a grid
    boundary within one step."""

    def contains(intervals, y):
        if intervals.size == 0:
            return np.zeros(y.shape, bool)
        return ((y[:, None] >= intervals[:, 0]) & (y[:, None] <= intervals[:, 1])).any(1)

    exact_ends = exact_intervals.ravel()
    grid_ends = grid_intervals.ravel()
    mismatch = contains(exact_intervals, points) != contains(grid_intervals, points)
    near = np.abs(points[:, None] - exact_ends[None, :]).min(axis=1) <= step + 1e-9
    matched = grid_ends.size > 0 and all(
        np.min(np.abs(grid_ends - b)) <= step + 1e-9 for b in exact_ends
    )
    if np.any(mismatch & ~near) or not matched:
        return [f"{label}: grid set is not within one step of the exact set"]
    return []


def plus_endpoints(mu: np.ndarray, resid: np.ndarray, k: int):
    """Jackknife+/cv+ endpoints by sorting: mu[i, t] is the i-th deleted
    model at point t. Lower is the k-th largest of mu - R, upper the k-th
    smallest of mu + R."""
    n = resid.size
    low = np.sort(mu - resid[:, None], axis=0)[n - k]
    up = np.sort(mu + resid[:, None], axis=0)[k - 1]
    return low, up


def check_endpoints(label: str, got, reference, rtol: float = ENDPOINT_RTOL) -> list[str]:
    (lo, hi), (ref_lo, ref_hi) = got, reference
    scale = np.maximum(1.0, np.maximum(np.abs(ref_lo), np.abs(ref_hi)))
    bad = (np.abs(lo - ref_lo) > rtol * scale) | (np.abs(hi - ref_hi) > rtol * scale)
    if np.any(bad):
        return [f"{label}: {int(bad.sum())} of {len(lo)} endpoints differ from own refits"]
    return []
