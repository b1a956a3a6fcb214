"""Quick tests of the benchmark itself (about a minute):

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload runs two rounds at toy size and must pass its own checks;
then each check is fed a deliberately corrupted output and must fail.
"""

from __future__ import annotations

import copy
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import layers  # noqa: E402
from common import Tracer, load_coverkit  # noqa: E402
from workloads import (  # noqa: E402
    PARTS, Clock, ClockSizes, LibraryApi, LibrarySizes, PaperSim, PaperSizes,
)

load_coverkit()

TOY = {
    PaperSim: PaperSizes(n=40, n_test=50, dims=(5, 10, 40, 80), trials=2, check_dims=(10, 40)),
    Clock: ClockSizes(
        n=2000, n_test=200, trials=3, probes=100, collapse_calls=1, rate_trials=100,
        endpoint_probes=5,
    ),
    LibraryApi: LibrarySizes(
        n=40, d=40, batch=10, cv_folds=4, cv_calls=2, grid_queries=1, grid_points=400
    ),
}


def _run(cls, tmp_path_factory, tracer=None):
    workload = cls(7, tmp_path_factory.mktemp(cls.name), tracer or Tracer(False), TOY[cls])
    workload.setup()
    parts = [workload.run_round(r) for r in range(2)]
    return workload, parts


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    return _run(PaperSim, tmp_path_factory)


@pytest.fixture(scope="module")
def clock(tmp_path_factory):
    return _run(Clock, tmp_path_factory)


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    return _run(LibraryApi, tmp_path_factory, Tracer(True))


@pytest.mark.parametrize("name", ["paper", "clock", "library"])
def test_toy_workload_runs_clean(name, request):
    workload, parts = request.getfixturevalue(name)
    assert workload.failed == 0
    assert workload.attempted == 2 * 4
    assert all(set(p) == set(PARTS) and all(v > 0 for v in p.values()) for p in parts)
    assert workload.check() == []


def _corrupted(workload):
    clone = copy.copy(workload)
    for attr in ("round_files", "outputs", "collapse", "rates"):
        if hasattr(workload, attr):
            setattr(clone, attr, copy.deepcopy(getattr(workload, attr)))
    return clone


def _edit_trials(text: str, row: int, column: str, edit) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = edit(cells[header.index(column)])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _fails(workload, fragment: str):
    failures = workload.check()
    assert any(fragment in f for f in failures), failures


# -- paper-sim --------------------------------------------------------------------


def test_paper_alpha_hat_off_the_count_grid(paper):
    w = _corrupted(paper[0])
    files = w.round_files[0][10]
    files["trials.csv"] = _edit_trials(
        files["trials.csv"], 1, "alpha_hat", lambda v: repr(float(v) + 0.001)
    )
    _fails(w, "is not a count over")


def test_paper_alpha_hat_shift_disagrees_with_reference_and_summary(paper):
    w = _corrupted(paper[0])
    files = w.round_files[0][40]
    step = 3 / w.sizes.n_test
    # row 2 is trial 0's full conformal, which the reference recomputes
    files["trials.csv"] = _edit_trials(
        files["trials.csv"], 2, "alpha_hat", lambda v: repr(min(1.0, float(v) + step))
        if float(v) + step <= 1 else repr(float(v) - step)
    )
    _fails(w, "but the generic construction gives")
    _fails(w, "but trials.csv gives")


def test_paper_width_not_positive(paper):
    w = _corrupted(paper[0])
    files = w.round_files[0][10]
    files["trials.csv"] = _edit_trials(files["trials.csv"], 3, "mean_width", lambda v: "-1.0")
    _fails(w, "not finite and positive")


def test_paper_summary_row_disagrees(paper):
    w = _corrupted(paper[0])
    files = w.round_files[0][10]
    lines = files["summary.csv"].splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 0.01)  # the mean
    lines[1] = ",".join(cells)
    files["summary.csv"] = "\n".join(lines) + "\n"
    _fails(w, "summary.csv")


def test_paper_summary_json_ecdf_disagrees(paper):
    w = _corrupted(paper[0])
    files = w.round_files[0][10]
    files["summary.json"] = files["summary.json"].replace('"ecdf": [', '"ecdf": [0.5, ', 1)
    _fails(w, "ecdf")


def test_paper_split_above_pac_bound(paper):
    rows = [{"method": "split", "alpha_hat": "0.5", "d": "10", "trial": "0"}]
    assert checks.check_split_pac(rows, limit=0.3)
    assert not checks.check_split_pac(rows, limit=0.6)


def test_paper_later_round_differs(paper):
    w = _corrupted(paper[0])
    w.round_files[1][10]["summary.csv"] += "extra\n"
    _fails(w, "outputs differ from round 0")


# -- clock-n5000 ------------------------------------------------------------------


def test_clock_flipped_event_flag(clock):
    w = _corrupted(clock[0])
    w.round_files[0]["jk"] = _edit_trials(
        w.round_files[0]["jk"], 1, "e_max", lambda v: "0" if v == "1" else "1"
    )
    _fails(w, "but the training set gives")


def test_clock_collapse_missing():
    row = {"mode": "adversary_jk", "trial": "0", "e_max": "1", "e_mod": "1",
           "e_unif": "1", "alpha_hat": "0.5"}
    assert checks.check_collapse([row])
    assert not checks.check_collapse([{**row, "alpha_hat": "1.0"}])


def test_clock_swapped_jackknife_endpoint():
    lo, hi = np.array([0.0, 1.0]), np.array([2.0, 3.0])
    swapped = (np.array([2.0, 1.0]), np.array([0.0, 3.0]))
    assert checks.check_equal_bounds("jk", swapped, (lo, hi))
    assert not checks.check_equal_bounds("jk", (lo, hi), (lo.copy(), hi.copy()))


def test_clock_full_bounds_endpoint_moved():
    # definition: the set is [-1, 1] at every probe
    def member(i, y):
        return -1.0 <= y <= 1.0

    assert not checks.check_set_endpoints("full", [-1.0], [1.0], member, eps=1e-9)
    assert checks.check_set_endpoints("full", [-1.0], [1.1], member, eps=1e-9)
    assert checks.check_set_endpoints("full", [-0.9], [1.0], member, eps=1e-9)


def test_clock_event_rates_disagree(clock):
    w = _corrupted(clock[0])
    rates = w.rates[0]
    w.rates[0] = type(rates)(
        p_mod=rates.p_mod + 0.01, p_max=rates.p_max, p_unif=rates.p_unif,
        p_all=rates.p_all, trials=rates.trials,
    )
    _fails(w, "own counts give")


def test_clock_collapse_check_false(clock):
    w = _corrupted(clock[0])
    w.collapse[0] = (True, False)
    _fails(w, "collapse_check on an event training set")


# -- library-api ------------------------------------------------------------------


def test_library_exact_boundary_moved(library):
    w = _corrupted(library[0])
    # near d = n some sets are unbounded; move the first finite endpoint
    t, pset = next(
        (t, p) for t, p in enumerate(w.outputs[0]["exact"])
        if np.isfinite(p.intervals).any()
    )
    moved = pset.intervals.copy()
    row, col = np.argwhere(np.isfinite(moved))[0]
    lo, hi = moved[row]
    inward = min(hi - lo, 1.0) / 4  # shrink the interval: no collisions
    moved[row, col] += inward if col == 0 else -inward
    w.outputs[0]["exact"][t] = type(pset)(moved)
    _fails(w, f"full_conformal_ridge_exact query {t}")


def test_library_grid_off_by_steps(library):
    w = _corrupted(library[0])
    pset = w.outputs[0]["grid"][0]
    step = w.grid_problems[0][3].resolution
    w.outputs[0]["grid"][0] = type(pset)(pset.intervals + 5 * step)
    _fails(w, "grid set is not within one step")


@pytest.mark.parametrize("key,label", [("jk", "jackknife_plus_bounds"), ("cv", "cv_plus_bounds")])
def test_library_swapped_endpoint(library, key, label):
    w = _corrupted(library[0])
    lo, hi = (a.copy() for a in w.outputs[0][key])
    lo[0], hi[0] = hi[0], lo[0]
    w.outputs[0][key] = (lo, hi)
    _fails(w, f"{label}: 1 of")


def test_library_spans_recorded(library):
    tracer = library[0].tracer
    assert tracer.durations("conformal.jackknife_plus_bounds")
    # one ridge fit per leave-one-out model, beneath the jackknife+ span
    jk = next(s for s in tracer.spans if s.name == "conformal.jackknife_plus_bounds")
    fits = [s for s in tracer.spans if s.name == "regressors.ridge_fit" and s.parent == jk.span_id]
    assert len(fits) == TOY[LibraryApi].n


# -- tracer and layer suite -------------------------------------------------------


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer = tracer.durations("outer")[0]
    inner = tracer.durations("inner")[0]
    assert math.isclose(tracer.self_times("outer")[0], outer - inner)


def test_layer_suite_reports_every_metric(tmp_path):
    sizes = layers.LayerSizes(
        n=40, n_test=50, dims=(10, 20, 40, 80), cv_folds=4, trials=1, pool_d=40,
        pool_trials=2, draw_reps=1, summary_trials=4, import_reps=1,
        clock_n=2000, clock_probes=50, clock_reps=1, fit_n=20, fit_d=20, fit_reps=1,
    )
    metrics, bases = layers.measure(Tracer(True), 3, tmp_path, sizes)
    full = dict(zip(sizes.dims, layers.LayerSizes().dims))
    names = {
        re.sub(r"\.d(\d+)$", lambda m: f".d{full[int(m.group(1))]}", name)
        for name in metrics
    }
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in spec["per_layer"]}
    assert all(v > 0 for v, _ in metrics.values())
    assert set(bases) == {"single_process_s_per_trial", "two_worker_s_per_trial"}
