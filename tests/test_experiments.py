import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import Dataset, make_folds
from coverkit.conformal import (
    cv_plus_bounds,
    full_conformal_ridge_sets,
    jackknife_plus_bounds,
    split_conformal,
)
from coverkit.experiments import (
    ADVERSARY_FULL,
    ADVERSARY_JK,
    METHOD_CV,
    METHOD_FULL,
    METHOD_JACKKNIFE,
    METHOD_SPLIT,
    ExperimentConfig,
    TrialRecord,
    _RidgeTrial,
    _interval_cover,
    _score,
    adversary_training_set,
    generate_linear_gaussian,
    random_unit_vector,
    run_trials,
    summarize,
    write_summary_csv,
    write_summary_json,
    write_trials_csv,
)
from coverkit.adversary import check_events
from coverkit.regressors import RidgeConfig
from test_conformal import _untagged, full_conformal_ridge_reference

SMOKE = ExperimentConfig(
    n=40, n_test=200, d=10, alpha=0.1, trials=8, master_seed=11, cv_folds=4
)


class TestDataGeneration:
    def test_beta_norm_exact(self):
        beta = math.sqrt(10.0) * random_unit_vector(64, np.random.default_rng(0))
        assert np.dot(beta, beta) == pytest.approx(10.0, abs=1e-9)

    def test_zero_beta_marginal(self):
        n = 4000
        data = generate_linear_gaussian(n, 3, np.zeros(3), seed=5)
        assert abs(data.y.mean()) < 4 / math.sqrt(n)

    def test_bit_identical_given_seed(self):
        a = generate_linear_gaussian(50, 4, np.ones(4), seed=9)
        b = generate_linear_gaussian(50, 4, np.ones(4), seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            generate_linear_gaussian(10, 3, np.ones(4), seed=0)


class TestEstimateMiscoverage:
    """The scorer behind every engine and adversary method, on intervals."""

    def test_extremes(self):
        y = np.arange(4.0)
        whole_line = (np.full(4, -np.inf), np.full(4, np.inf))
        assert _score(*_interval_cover(*whole_line, y)) == (0.0, math.inf)
        crossed = (np.full(4, 1.0), np.full(4, -1.0))  # lower > upper: empty
        assert _score(*_interval_cover(*crossed, y)) == (1.0, 0.0)

    def test_half(self):
        y = np.array([0.0, 0.0, 5.0, 5.0])
        intervals = (np.full(4, -1.0), np.full(4, 1.0))
        assert _score(*_interval_cover(*intervals, y)) == (0.5, 2.0)

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            _score(*_interval_cover(np.empty(0), np.empty(0), np.empty(0)))


class TestConfigValidation:
    def test_cv_divisibility(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                n=41, n_test=10, d=2, alpha=0.1, trials=1, master_seed=0, cv_folds=4
            )

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                n=10, n_test=10, d=2, alpha=0.1, trials=1, master_seed=0,
                methods=("bogus",),
            )

    def test_positive_penalty_required(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                n=10, n_test=10, d=2, alpha=0.1, trials=1, master_seed=0,
                methods=(METHOD_SPLIT,), ridge_penalty=0.0,
            )

    def test_split_needs_two_points(self):
        # split trains on n // 2 points and calibrates on the rest
        with pytest.raises(ValueError, match="n >= 2"):
            ExperimentConfig(
                n=1, n_test=10, d=2, alpha=0.1, trials=1, master_seed=0,
                methods=(METHOD_SPLIT,),
            )

    @pytest.mark.parametrize("mode", [ADVERSARY_FULL, ADVERSARY_JK])
    def test_clock_modes_need_d_1(self, mode):
        # the clock sampler draws one feature, so any other d is a relabel
        with pytest.raises(ValueError, match="d = 1"):
            ExperimentConfig(
                n=100, n_test=10, d=2, alpha=0.5, trials=1, master_seed=0, mode=mode
            )


    @pytest.mark.parametrize("mode", [ADVERSARY_FULL, ADVERSARY_JK])
    @pytest.mark.parametrize(
        "knob", [{"methods": ("nonsense",)}, {"ridge_penalty": -1.0}, {"cv_folds": 7}]
    )
    def test_clock_modes_reject_ridge_only_fields(self, mode, knob):
        # the clock trials read none of them, so a value other than the
        # default could only be a mistake
        with pytest.raises(ValueError, match="no effect in mode"):
            ExperimentConfig(
                n=100, n_test=10, d=1, alpha=0.5, trials=2, master_seed=0, mode=mode,
                **knob,
            )
        ExperimentConfig(
            n=100, n_test=10, d=1, alpha=0.5, trials=2, master_seed=0, mode=mode,
            methods=list(ExperimentConfig.methods), ridge_penalty=1e-4, cv_folds=20,
        )


class TestEngineAgainstGenericConstructions:
    """The trial engine's shortcuts must reproduce the reference paths."""

    @pytest.fixture(params=[6, 24, 40], ids=["d<n", "d=n", "d>n"])
    def instance(self, request):
        d = request.param
        rng = np.random.default_rng(100 + d)
        n, n_test, penalty, alpha = 24, 9, 1e-4, 0.1
        x = rng.standard_normal((n, d))
        beta = rng.standard_normal(d)
        y = x @ beta + rng.standard_normal(n)
        xt = rng.standard_normal((n_test, d))
        yt = xt @ beta + rng.standard_normal(n_test)
        train, test = Dataset(x, y), Dataset(xt, yt)
        return train, test, _RidgeTrial(train, test, penalty, alpha), penalty, alpha

    def test_split(self, instance):
        train, test, engine, penalty, alpha = instance
        result = split_conformal(
            train.subset(range(12)), train.subset(range(12, 24)),
            _untagged(RidgeConfig(penalty)), alpha,
        )
        miss, width = engine.split(12)
        assert width == pytest.approx(2 * result.radius, rel=1e-9)
        preds = result.model(test.x)
        ref_miss = float(np.mean(np.abs(test.y - preds) > result.radius))
        assert miss == ref_miss

    def test_jackknife(self, instance):
        train, test, engine, penalty, alpha = instance
        lo, up = jackknife_plus_bounds(
            train, test.x, _untagged(RidgeConfig(penalty)), alpha
        )
        miss, width = engine.jackknife()
        assert miss == float(np.mean(~((test.y >= lo) & (test.y <= up))))
        assert width == pytest.approx(float(np.mean(up - lo)), rel=1e-8)

    def test_cv(self, instance):
        train, test, engine, penalty, alpha = instance
        folds = make_folds(24, 4, seed=3)
        lo, up = cv_plus_bounds(
            train, test.x, _untagged(RidgeConfig(penalty)), alpha, folds
        )
        miss, width = engine.cv(folds)
        assert miss == float(np.mean(~((test.y >= lo) & (test.y <= up))))
        assert width == pytest.approx(float(np.mean(up - lo)), rel=1e-8)

    def test_full_conformal(self, instance):
        train, test, engine, penalty, alpha = instance
        miss, width = engine.full_conformal()
        sets = [
            full_conformal_ridge_reference(train, test.x[t], RidgeConfig(penalty), alpha)
            for t in range(len(test))
        ]
        ref_miss = float(np.mean([test.y[t] not in sets[t] for t in range(len(test))]))
        ref_width = float(np.mean([s.total_width for s in sets]))
        assert miss == ref_miss
        assert width == pytest.approx(ref_width, rel=1e-8)


class TestFullConformalScoring:
    """The trial scores full conformal in one pass per chunk: membership by
    the set's definition, widths from sets built only until one is
    unbounded; the public exact sets are the oracle."""

    CASES = pytest.mark.parametrize(
        "n, d, alpha, unbounded",
        [(40, 10, 0.1, 0), (40, 30, 0.1, 1), (40, 40, 0.1, 287), (9, 12, 0.05, 300)],
        ids=["d<n", "one-unbounded-row", "d=n", "rank-overflow"],
    )

    @staticmethod
    def _problem(n, d, alpha):
        # 300 test points: five chunks; the one unbounded row is in the last
        rng = np.random.default_rng(n + d)
        x, xt = rng.standard_normal((n, d)), rng.standard_normal((300, d))
        beta = rng.standard_normal(d)
        train = Dataset(x, x @ beta + rng.standard_normal(n))
        test = Dataset(xt, xt @ beta + rng.standard_normal(300))
        sets = full_conformal_ridge_sets(train, test.x, RidgeConfig(1e-4), alpha)
        return _RidgeTrial(train, test, 1e-4, alpha), sets

    @CASES
    def test_matches_the_public_sets(self, n, d, alpha, unbounded):
        engine, sets = self._problem(n, d, alpha)
        inside, set_widths = sets.contains(engine.test.y), sets.widths()
        assert np.count_nonzero(np.isinf(set_widths)) == unbounded
        covered, widths = engine.backend.conformal_scores(alpha, engine.test.y)
        assert np.array_equal(covered, inside)
        if unbounded:
            assert widths == math.inf
        else:
            assert np.array_equal(widths, set_widths)
        miss = float(np.mean(~inside))
        assert engine.full_conformal() == (miss, float(np.mean(set_widths)))

    @CASES
    def test_one_pass_per_chunk(self, monkeypatch, n, d, alpha, unbounded):
        import coverkit.conformal as conformal

        engine, sets = self._problem(n, d, alpha)
        chunks = math.ceil(300 / conformal._SWEEP_ROWS)
        unbounded_rows = np.flatnonzero(np.isinf(sets.widths()))
        first_unbounded = unbounded_rows[0] // conformal._SWEEP_ROWS if unbounded else chunks
        calls = {"coefficients": 0, "sets": 0}
        coefficients, crossing_sets = conformal._RidgeBackend._coefficients, conformal._crossing_sets

        def counted_coefficients(backend, rows):
            calls["coefficients"] += 1
            return coefficients(backend, rows)

        def counted_sets(*args):
            calls["sets"] += 1
            return crossing_sets(*args)

        monkeypatch.setattr(conformal._RidgeBackend, "_coefficients", counted_coefficients)
        monkeypatch.setattr(conformal, "_crossing_sets", counted_sets)
        engine.full_conformal()
        assert calls == {"coefficients": chunks, "sets": first_unbounded}


@st.composite
def _engine_problems(draw):
    """(n, d, K, penalty, alpha, seed, duplicate): d = n a third of the time and
    d = n - 1 another third, K any divisor of n; with ``duplicate`` the first
    training point is repeated."""
    n = draw(st.integers(4, 24))
    d = draw(st.one_of(st.just(n), st.just(n - 1), st.integers(1, 2 * n)))
    K = draw(st.sampled_from([k for k in range(2, n + 1) if n % k == 0]))
    penalty = 10.0 ** draw(st.floats(-4.0, 1.0))
    alpha = draw(st.floats(0.01, 0.6))  # below 1/(n+1) the rank overflows
    return n, d, K, penalty, alpha, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


class TestEngineProperties:
    """Every engine method against its generic construction, at random sizes."""

    @settings(max_examples=40, deadline=None)
    @given(_engine_problems())
    @example((24, 24, 2, 1e-4, 0.1, 0, False))  # d = n, two folds
    @example((12, 12, 12, 1e-4, 0.1, 1, True))  # d = n, singleton folds: K = n
    @example((9, 30, 3, 1e-2, 0.05, 2, False))  # rank 10 of 9 overflows but for split
    @example((24, 23, 4, 1e-4, 0.1, 3, False))  # d = n - 1: the last primal shape
    @example((60, 3, 20, 1e-4, 0.1, 4, True))  # n >> d, primal
    def test_engine_matches_generic(self, problem):
        n, d, K, penalty, alpha, seed, duplicate = problem
        rng = np.random.default_rng(seed)
        x, xt = rng.standard_normal((n, d)), rng.standard_normal((7, d))
        beta = rng.standard_normal(d)
        y = x @ beta + rng.standard_normal(n)
        if duplicate:
            x[1], y[1] = x[0], y[0]
        train = Dataset(x, y)
        test = Dataset(xt, xt @ beta + rng.standard_normal(7))
        algo = _untagged(RidgeConfig(penalty))
        folds = make_folds(n, K, seed=seed % 1000)
        engine = _RidgeTrial(train, test, penalty, alpha)

        def stats(lo, up):
            miss = float(np.mean(~((test.y >= lo) & (test.y <= up))))
            return miss, float(np.mean(np.maximum(up - lo, 0.0)))

        n0 = n // 2
        split = split_conformal(
            train.subset(range(n0)), train.subset(range(n0, n)), algo, alpha
        )
        preds = split.model(test.x)
        sets = [
            full_conformal_ridge_reference(train, xt_row, RidgeConfig(penalty), alpha)
            for xt_row in test.x
        ]
        jk = jackknife_plus_bounds(train, test.x, algo, alpha)
        cv = cv_plus_bounds(train, test.x, algo, alpha, folds)
        reference = {
            "split": (
                float(np.mean(np.abs(test.y - preds) > split.radius)),
                2 * split.radius,
            ),
            "full": (
                float(np.mean([y not in s for s, y in zip(sets, test.y)])),
                float(np.mean([s.total_width for s in sets])),
            ),
            "jackknife": stats(*jk),
            "cv": stats(*cv),
        }
        got = {
            "split": engine.split(n0),
            "full": engine.full_conformal(),
            "jackknife": engine.jackknife(),
            "cv": engine.cv(folds),
        }
        for method, (ref_miss, ref_width) in reference.items():
            miss, width = got[method]
            assert miss == ref_miss, method
            assert width == pytest.approx(ref_width, rel=1e-8), method

    @settings(max_examples=20, deadline=None)
    @given(_engine_problems())
    def test_cv_with_singleton_folds_is_jackknife(self, problem):
        n, d, _, penalty, alpha, seed, _ = problem
        rng = np.random.default_rng(seed)
        train = Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
        test = Dataset(rng.standard_normal((7, d)), rng.standard_normal(7))
        engine = _RidgeTrial(train, test, penalty, alpha)
        miss, width = engine.cv(make_folds(n, n, seed=0))
        jk_miss, jk_width = engine.jackknife()
        assert miss == jk_miss
        assert width == pytest.approx(jk_width, rel=1e-12)


class TestRunTrials:
    def test_smoke_all_methods(self):
        records = run_trials(SMOKE)
        assert len(records) == SMOKE.trials * 4
        assert {r.method for r in records} == {
            METHOD_SPLIT, METHOD_FULL, METHOD_JACKKNIFE, METHOD_CV,
        }
        assert all(0.0 <= r.alpha_hat <= 1.0 for r in records)
        assert all(r.mean_width >= 0.0 for r in records)
        assert all(r.events is None for r in records)

    def test_reproducible(self):
        assert run_trials(SMOKE) == run_trials(SMOKE)

    def test_worker_count_does_not_change_results(self):
        small = ExperimentConfig(
            n=20, n_test=50, d=4, alpha=0.1, trials=4, master_seed=3, cv_folds=4
        )
        assert run_trials(small, workers=1) == run_trials(small, workers=2)

    @pytest.mark.parametrize("workers", [0, -5])
    def test_fewer_than_one_worker_raises(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_trials(SMOKE, workers=workers)

    def test_adversary_mode_carries_events(self):
        config = ExperimentConfig(
            n=100, n_test=50, d=1, alpha=0.5, trials=6, master_seed=2,
            mode=ADVERSARY_JK,
        )
        records = run_trials(config)
        assert len(records) == 6
        assert all(r.method == METHOD_JACKKNIFE for r in records)
        assert all(r.events is not None for r in records)
        # the stored training draw is re-derivable
        clock = config.clock_config()
        for r in records[:3]:
            train = adversary_training_set(config, r.trial)
            assert check_events(train, clock, config.alpha) == r.events

    def test_adversary_full_mode(self):
        config = ExperimentConfig(
            n=80, n_test=40, d=1, alpha=0.5, trials=4, master_seed=8,
            mode=ADVERSARY_FULL,
        )
        records = run_trials(config)
        assert all(r.method == METHOD_FULL for r in records)


class TestStatisticalSanity:
    def test_split_width_decreases_with_holdout_size(self):
        # larger holdouts pull the calibrated quantile rank down toward the
        # 1-alpha population quantile, so radii shrink in distribution
        from coverkit import constant_algorithm, split_conformal

        algo = constant_algorithm(0.0)
        radii = {}
        for n1 in (20, 400):
            rng = np.random.default_rng(13)
            values = []
            for _ in range(300):
                holdout = Dataset(np.zeros((n1, 1)), rng.standard_normal(n1))
                train = Dataset(np.zeros((2, 1)), np.zeros(2))
                values.append(split_conformal(train, holdout, algo, 0.1).radius)
            radii[n1] = float(np.mean(values))
        assert radii[400] < radii[20]

    def test_split_marginal_consistency(self):
        config = ExperimentConfig(
            n=40, n_test=400, d=5, alpha=0.1, trials=40, master_seed=17,
            methods=(METHOD_SPLIT,), cv_folds=4,
        )
        values = np.array([r.alpha_hat for r in run_trials(config)])
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert values.mean() <= 0.1 + 3 * se


class TestSummarize:
    def _record(self, alpha_hat, method="split", d=5, trial=0):
        return TrialRecord(
            trial=trial, method=method, mode="ridge_sim", n=10, d=d,
            alpha=0.1, alpha_hat=alpha_hat, mean_width=1.0,
        )

    def test_single_record(self):
        report = summarize([self._record(0.1)])
        entry = report.entries[0]
        assert entry.mean == entry.median == entry.max == 0.1

    def test_two_records(self):
        report = summarize([self._record(0.0, trial=0), self._record(0.2, trial=1)])
        entry = report.entries[0]
        assert entry.mean == pytest.approx(0.1)
        assert entry.ecdf == (0.0, 0.2)

    def test_groups_by_method_and_d(self):
        records = [
            self._record(0.1, method="split", d=5),
            self._record(0.5, method="jackknife+", d=5),
            self._record(0.9, method="split", d=10),
        ]
        report = summarize(records)
        assert len(report.entries) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestFileFormats:
    def _records(self):
        from coverkit.adversary import EventReport

        return [
            TrialRecord(
                trial=0, method="split", mode="ridge_sim", n=10, d=5,
                alpha=0.1, alpha_hat=0.25, mean_width=2.5,
            ),
            TrialRecord(
                trial=1, method="jackknife+", mode="adversary_jk", n=10, d=1,
                alpha=0.1, alpha_hat=1.0, mean_width=0.5,
                events=EventReport(e_max=True, e_mod=False, e_unif=True),
            ),
        ]

    def test_trials_csv_schema(self, tmp_path):
        path = tmp_path / "trials.csv"
        write_trials_csv(self._records(), path)
        raw = path.read_bytes()
        assert b"\r" not in raw  # LF endings
        rows = list(csv.reader(raw.decode("utf-8").splitlines()))
        assert rows[0] == [
            "trial", "method", "mode", "n", "d", "alpha", "alpha_hat",
            "mean_width", "e_max", "e_mod", "e_unif",
        ]
        assert rows[1][8:] == ["", "", ""]  # absent events -> empty fields
        assert rows[2][8:] == ["1", "0", "1"]  # booleans as 0/1
        assert float(rows[1][6]) == 0.25

    def test_summary_csv_schema(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(summarize(self._records()), path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == [
            "method", "d", "mean", "median", "max",
            "frac_gt_alpha", "frac_gt_0.2", "frac_gt_0.99",
        ]
        assert len(rows) == 3

    def test_summary_json_mirrors_csv_plus_ecdf(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json(summarize(self._records()), path)
        payload = json.loads(path.read_text())
        entry = payload["summaries"][0]
        assert set(entry) == {
            "method", "d", "mean", "median", "max",
            "frac_gt_alpha", "frac_gt_0.2", "frac_gt_0.99", "ecdf",
        }
        assert entry["ecdf"] == sorted(entry["ecdf"])
