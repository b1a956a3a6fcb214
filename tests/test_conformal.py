import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import (
    Dataset,
    GridSpec,
    constant_algorithm,
    cv_plus,
    full_conformal_grid,
    full_conformal_ridge_exact,
    holdout_pvalue,
    jackknife_plus,
    make_folds,
    oracle_pvalue,
    ridge_algorithm,
    split_conformal,
)
from coverkit.conformal import SplitSpec, affine_conformal_sets, default_grid
from coverkit.core import RegressionAlgorithm
from coverkit.regressors import RidgeConfig, constant_fit

ZERO = constant_algorithm(0.0)


def _dataset(y_values, d=1):
    y = np.asarray(y_values, dtype=float)
    return Dataset(np.arange(len(y), dtype=float)[:, None] * np.ones((1, d)), y)


def _random_ridge_instance(seed, n, d, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    beta = rng.standard_normal(d) / math.sqrt(d)
    y = x @ beta + noise * rng.standard_normal(n)
    return Dataset(x, y), rng.standard_normal(d)


class TestSplitConformal:
    def test_forced_order_statistics(self):
        train = _dataset([0.0, 0.0])
        holdout = _dataset([1.0, 2.0, 3.0, 4.0])
        result = split_conformal(train, holdout, ZERO, alpha=0.5)
        assert result.radius == 3.0
        ps = result.prediction_set(np.array([10.0]))
        assert np.allclose(ps.intervals, [[-3.0, 3.0]])

    def test_overflow_gives_real_line(self):
        result = split_conformal(_dataset([0.0]), _dataset([1, 2, 3]), ZERO, alpha=0.1)
        assert math.isinf(result.radius)
        assert result.prediction_set(np.array([0.0])).is_real_line

    def test_paper_scale_index(self):
        rng = np.random.default_rng(0)
        train = _dataset(rng.standard_normal(250))
        holdout = _dataset(rng.standard_normal(250))
        result = split_conformal(train, holdout, ZERO, alpha=0.1)
        assert result.radius == np.sort(np.abs(holdout.y))[226 - 1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            split_conformal(_dataset([1.0], d=2), _dataset([1.0], d=3), ZERO, 0.1)

    def test_empty_rejected(self):
        empty = Dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(ValueError):
            split_conformal(empty, _dataset([1.0]), ZERO, 0.1)


class TestFullConformalGrid:
    def test_constant_zero_hand_enumeration(self):
        # y kept iff |y| <= 3rd smallest of {1,2,3,4,|y|}
        train = _dataset([1.0, 2.0, 3.0, 4.0])
        ps = full_conformal_grid(
            train, [0.0], ZERO, alpha=0.5, grid=GridSpec(-6, 6, 0.01)
        )
        assert ps.intervals.shape == (1, 2)
        assert ps.intervals[0, 0] == pytest.approx(-3.0, abs=0.011)
        assert ps.intervals[0, 1] == pytest.approx(3.0, abs=0.011)

    def test_symmetry_enforced(self):
        asym = RegressionAlgorithm(
            fit_fn=lambda data, seed=None: constant_fit(data, 0.0),
            symmetric=False,
            name="asym",
        )
        train = _dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            full_conformal_grid(train, [0.0], asym, 0.5, grid=GridSpec(-2, 2, 0.1))
        ps = full_conformal_grid(
            train, [0.0], asym, 0.5, grid=GridSpec(-9, 9, 0.1), allow_asymmetric=True
        )
        assert not ps.is_empty

    def test_boundary_truncation_warns(self):
        train = _dataset([1.0, 2.0, 3.0, 4.0])
        with pytest.warns(UserWarning, match="grid boundary"):
            full_conformal_grid(train, [0.0], ZERO, 0.5, grid=GridSpec(-1, 1, 0.1))

    def test_overflow_real_line(self):
        train = _dataset([1.0, 2.0, 3.0])
        ps = full_conformal_grid(train, [0.0], ZERO, 0.1, grid=GridSpec(-1, 1, 0.1))
        assert ps.is_real_line

    def test_default_grid_covers_labels(self):
        train = _dataset([-5.0, 0.0, 5.0, 10.0])
        grid = default_grid(train)
        assert grid.lo < -5 and grid.hi > 10
        widened = default_grid(train, y_star=20.0)
        assert widened.lo <= -60 and widened.hi >= 60


class TestFullConformalRidgeExact:
    def test_single_point_contains_its_label(self):
        train = Dataset(np.array([[1.0, 0.5]]), np.array([2.0]))
        ps = full_conformal_ridge_exact(train, [1.0, 0.5], RidgeConfig(0.0), alpha=0.5)
        assert 2.0 in ps

    def test_agrees_with_grid_on_random_instances(self):
        for seed in range(8):
            train, x_new = _random_ridge_instance(seed, n=18, d=3)
            exact = full_conformal_ridge_exact(train, x_new, RidgeConfig(1e-4), 0.1)
            lo = exact.intervals[0, 0] - 0.2
            hi = exact.intervals[-1, 1] + 0.2
            step = 1e-3
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                grid = full_conformal_grid(
                    train, x_new, ridge_algorithm(RidgeConfig(1e-4)), 0.1,
                    grid=GridSpec(lo, hi, step),
                )
            assert grid.intervals.shape == exact.intervals.shape
            assert np.all(np.abs(grid.intervals - exact.intervals) <= step + 1e-9)

    def test_marginal_coverage_small_monte_carlo(self):
        # coverage of the exact path over i.i.d. draws should be in
        # [1 - alpha, 1 - alpha + 1/(n+1)] up to Monte Carlo error
        rng = np.random.default_rng(77)
        n, d, alpha, trials = 9, 2, 0.2, 800
        covered = 0
        for _ in range(trials):
            x = rng.standard_normal((n + 1, d))
            y = x @ np.ones(d) + rng.standard_normal(n + 1)
            train = Dataset(x[:n], y[:n])
            ps = full_conformal_ridge_exact(train, x[n], RidgeConfig(1e-4), alpha)
            covered += y[n] in ps
        rate = covered / trials
        se = math.sqrt(0.2 * 0.8 / trials)
        assert 1 - alpha - 3 * se <= rate <= 1 - alpha + 1 / (n + 1) + 3 * se

    def test_overflow_real_line(self):
        train = _dataset([1.0, 2.0])
        ps = full_conformal_ridge_exact(train, [0.0], RidgeConfig(1e-4), alpha=0.1)
        assert ps.is_real_line


@st.composite
def _affine_rows(draw, exact=False):
    """(a, b, a0, b0, alpha) for m rows; small integers make ties and
    identical lines likely. With ``exact`` the other values are multiples of
    1/64, so that two lines are either identical or visibly apart and
    residuals compare in floating point as they do in exact arithmetic."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    fine = st.integers(-64000, 64000).map(lambda v: v / 64) if exact else st.floats(
        -1e3, 1e3
    )
    values = draw(st.sampled_from([st.integers(-2, 2).map(float), fine]))

    def array(*shape):
        size = int(np.prod(shape))
        drawn = draw(st.lists(values, min_size=size, max_size=size))
        return np.array(drawn).reshape(shape)

    return array(m, n), array(m, n), array(m), array(m), draw(st.floats(0.01, 0.99))


class TestAffineSweep:
    """The batched exact sweep behind both full-conformal ridge paths."""

    @settings(max_examples=300, deadline=None)
    @given(_affine_rows())
    @example((np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.5))
    def test_batch_rows_match_single_calls(self, problem):
        a, b, a0, b0, alpha = problem
        batch = affine_conformal_sets(a, b, a0, b0, alpha)
        widths, labels = batch.widths(), a0 + 0.5
        inside = batch.contains(labels)
        for t in range(a.shape[0]):
            single = affine_conformal_sets(a[t], b[t], a0[t], b0[t], alpha)
            single = single.prediction_set(0)
            assert np.array_equal(batch.prediction_set(t).intervals, single.intervals)
            # summing eight or more pieces may round differently
            assert widths[t] == pytest.approx(single.total_width, rel=1e-12)
            assert inside[t] == (labels[t] in single)

    @settings(max_examples=300, deadline=None)
    @given(_affine_rows(exact=True))
    def test_set_is_the_definition(self, problem):
        # membership away from the boundaries is the strict under-cut count
        a, b, a0, b0, alpha = problem
        n = a.shape[1]
        k = math.ceil((1 - alpha) * (n + 1) - 1e-9)
        batch = affine_conformal_sets(a, b, a0, b0, alpha)
        y = np.linspace(-2e3, 2e3, 101) + 0.37
        for t in range(a.shape[0]):
            pset = batch.prediction_set(t)
            own = np.abs(a0[t] + b0[t] * y)[:, None]
            undercuts = np.sum(np.abs(a[t] + b[t] * y[:, None]) < own, axis=1)
            member = (k > n) | (undercuts <= k - 1)
            ends = pset.intervals[np.isfinite(pset.intervals)]
            gap = np.abs(y[:, None] - ends[None, :]).min(axis=1, initial=np.inf)
            away = gap > 1e-6 * np.maximum(1.0, np.abs(y))
            assert np.array_equal(pset.contains(y)[away], member[away])

    def test_identical_lines_give_the_whole_line(self):
        a0, b0 = np.array([0.5]), np.array([2.0])
        a = np.array([[0.5, -0.5, 0.5]])  # a_i + b_i y = +-(a0 + b0 y)
        b = np.array([[2.0, -2.0, 2.0]])
        assert affine_conformal_sets(a, b, a0, b0, 0.5).prediction_set(0).is_real_line

    def test_parallel_lines_apart_by_less_than_rounding(self):
        # |1.6e-112 + y| and |y| are equal in floating point wherever
        # |y| > 1e-95, yet the first under-cuts the second below -0.8e-112
        a, b = np.array([[0.0, 1.6e-112]]), np.ones((1, 2))
        pset = affine_conformal_sets(a, b, 0.0, 1.0, 0.7).prediction_set(0)
        assert pset.intervals.tolist() == [[-0.8e-112, math.inf]]

    def test_zero_slopes_give_the_whole_line_or_nothing(self):
        a, b = np.array([[1.0, 2.0, 3.0, 4.0]]), np.zeros((1, 4))
        # two training residuals (1 and 2) under-cut the constant 2.5
        assert affine_conformal_sets(a, b, 2.5, 0.0, 0.5).prediction_set(0).is_real_line
        assert affine_conformal_sets(a, b, 2.5, 0.0, 0.9).prediction_set(0).is_empty

    def test_unbounded_at_the_interpolation_threshold(self):
        # d = n: the augmented fit nearly interpolates the new point, whose
        # residual then stays below most others for every large label
        for seed in range(5):
            for d, bounded in ((20, False), (5, True)):
                train, x_new = _random_ridge_instance(seed, n=20, d=d)
                pset = full_conformal_ridge_exact(train, x_new, RidgeConfig(1e-4), 0.1)
                assert math.isfinite(pset.total_width) == bounded
                assert (1e300 in pset) != bounded

    def test_overflow_gives_the_whole_line_everywhere(self):
        batch = affine_conformal_sets(np.ones((3, 5)), np.ones((3, 5)), np.zeros(3),
                                      np.ones(3), alpha=0.01)  # rank 6 of 5
        assert all(batch.prediction_set(t).is_real_line for t in range(3))
        assert np.all(batch.widths() == math.inf) and batch.contains(np.zeros(3)).all()

    @pytest.mark.parametrize(
        "n, d, penalty", [(12, 12, 1e-2), (10, 20, 1e-1), (12, 4, 1.0)]
    )
    def test_agrees_with_grid_at_any_dimension(self, n, d, penalty):
        # the refitting grid is the sweep's only independent check
        step = 2e-3
        for seed in range(3):
            train, x_new = _random_ridge_instance(seed, n=n, d=d)
            exact = full_conformal_ridge_exact(train, x_new, RidgeConfig(penalty), 0.2)
            ends = exact.intervals[np.isfinite(exact.intervals)]
            lo, hi = (ends.min() - 0.5, ends.max() + 0.5) if ends.size else (-5.0, 5.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # unbounded sets touch the grid ends
                grid = full_conformal_grid(
                    train, x_new, ridge_algorithm(RidgeConfig(penalty)), 0.2,
                    grid=GridSpec(lo, hi, step),
                )
            points = np.linspace(lo, hi, 997)
            near = np.abs(points[:, None] - ends[None, :]).min(axis=1, initial=np.inf)
            mismatch = exact.contains(points) != grid.contains(points)
            assert not np.any(mismatch & (near > step + 1e-9))
            grid_ends = grid.intervals.ravel()
            assert all(np.min(np.abs(grid_ends - e)) <= step + 1e-9 for e in ends)


class TestJackknifePlus:
    def test_forced_order_statistics(self):
        train = _dataset([1.0, 2.0, 3.0, 4.0])
        ps = jackknife_plus(train, [0.0], ZERO, alpha=0.5)
        assert np.allclose(ps.intervals, [[-3.0, 3.0]])

    def test_overflow_real_line(self):
        train = _dataset([1.0, 2.0, 3.0, 4.0])
        assert jackknife_plus(train, [0.0], ZERO, alpha=0.1).is_real_line

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            jackknife_plus(_dataset([1.0]), [0.0], ZERO, alpha=0.5)

    def test_cv_with_singleton_folds_coincides(self):
        train, x_new = _random_ridge_instance(5, n=12, d=4)
        folds = make_folds(12, 12, seed=1)
        algo = ridge_algorithm(RidgeConfig(1e-3))
        jk = jackknife_plus(train, x_new, algo, alpha=0.2)
        cv = cv_plus(train, x_new, algo, alpha=0.2, folds=folds)
        np.testing.assert_allclose(jk.intervals, cv.intervals, atol=1e-12)


class TestCvPlus:
    def test_constant_algorithm_matches_jackknife_any_k(self):
        train = _dataset([1.0, 2.0, 3.0, 4.0])
        for folds in (make_folds(4, 2, 0), make_folds(4, 4, 0)):
            ps = cv_plus(train, [0.0], ZERO, alpha=0.5, folds=folds)
            assert np.allclose(ps.intervals, [[-3.0, 3.0]])

    def test_partition_must_match(self):
        train = _dataset([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            cv_plus(train, [0.0], ZERO, 0.5, folds=make_folds(6, 2, 0))

    def test_empty_intersection_returned_as_empty_set(self):
        # two fold models predicting opposite far-apart constants, each
        # fitting its own fold's labels perfectly: at k=2 the lower order
        # statistic crosses above the upper one
        class Flip:
            def __init__(self):
                self.calls = 0

            def __call__(self, data, seed=None):
                self.calls += 1
                return constant_fit(data, 1e6 if self.calls % 2 else -1e6)

        algo = RegressionAlgorithm(fit_fn=Flip(), symmetric=False, name="flip")
        folds = make_folds(4, 2, 0)
        y = np.where(folds.assignments == 0, 1e6, -1e6)
        train = Dataset(np.arange(4.0)[:, None], y)
        ps = cv_plus(train, [0.0], algo, alpha=0.7, folds=folds)
        assert ps.is_empty


class TestMonotonicityInAlpha:
    def test_all_methods_nested(self):
        train, x_new = _random_ridge_instance(11, n=16, d=3)
        algo = ridge_algorithm(RidgeConfig(1e-3))
        folds = make_folds(16, 4, 0)
        probes = np.linspace(-8, 8, 401)
        previous = {}
        for alpha in (0.05, 0.1, 0.2, 0.4, 0.6):
            sets = {
                "split": split_conformal(
                    train.subset(range(8)), train.subset(range(8, 16)), algo, alpha
                ).prediction_set(x_new),
                "full": full_conformal_ridge_exact(
                    train, x_new, RidgeConfig(1e-3), alpha
                ),
                "jk": jackknife_plus(train, x_new, algo, alpha),
                "cv": cv_plus(train, x_new, algo, alpha, folds),
            }
            for name, ps in sets.items():
                if name in previous:
                    inside_now = ps.contains(probes)
                    inside_before = previous[name].contains(probes)
                    assert not np.any(inside_now & ~inside_before), (name, alpha)
                previous[name] = ps


class TestPValues:
    def test_holdout_examples(self):
        model = constant_fit(Dataset(np.empty((0, 1)), np.empty(0)), 0.0)
        residuals = [1.0, 2.0, 3.0, 4.0]
        assert holdout_pvalue(residuals, model, [0.0], 2.5).value == 0.5
        assert holdout_pvalue(residuals, model, [0.0], 0.0).value == 1.0
        assert holdout_pvalue(residuals, model, [0.0], 9.0).value == 0.0

    def test_ties_qualify(self):
        model = constant_fit(Dataset(np.empty((0, 1)), np.empty(0)), 0.0)
        assert holdout_pvalue([1.0, 2.0], model, [0.0], 2.0).value == 0.5

    def test_empty_rejected(self):
        model = constant_fit(Dataset(np.empty((0, 1)), np.empty(0)), 0.0)
        with pytest.raises(ValueError):
            holdout_pvalue([], model, [0.0], 1.0)

    def test_oracle_same_arithmetic(self):
        model = constant_fit(Dataset(np.empty((0, 1)), np.empty(0)), 0.0)
        oracle = _dataset([1.0, -2.0, 3.0, -4.0])
        assert oracle_pvalue(model, oracle, [0.0], 2.5) == 0.5
        assert oracle_pvalue(model, oracle, [0.0], 0.0) == 1.0

    def test_oracle_super_uniformity_smoke(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((50, 3))
        beta = np.ones(3)
        model_data = Dataset(x, x @ beta + rng.standard_normal(50))
        model = ridge_algorithm(RidgeConfig(1e-3)).fit(model_data)
        oracle_x = rng.standard_normal((4000, 3))
        oracle = Dataset(oracle_x, oracle_x @ beta + rng.standard_normal(4000))
        fresh_x = rng.standard_normal((2000, 3))
        fresh_y = fresh_x @ beta + rng.standard_normal(2000)
        thresholds = np.abs(fresh_y - model(fresh_x))
        oracle_resid = np.sort(np.abs(oracle.y - model(oracle.x)))
        pvals = 1.0 - np.searchsorted(oracle_resid, thresholds, side="left") / 4000
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert np.mean(pvals <= a) <= a + 0.04

    def test_oracle_pvalue_matches_vectorized_route(self):
        rng = np.random.default_rng(22)
        model = constant_fit(Dataset(np.empty((0, 1)), np.empty(0)), 0.25)
        oracle = Dataset(rng.standard_normal((500, 1)), rng.standard_normal(500))
        oracle_resid = np.sort(np.abs(oracle.y - 0.25))
        for y in (0.0, 0.5, 1.7):
            direct = oracle_pvalue(model, oracle, [0.0], y)
            threshold = abs(y - 0.25)
            vectorized = 1.0 - np.searchsorted(oracle_resid, threshold, side="left") / 500
            assert direct == pytest.approx(vectorized, abs=1e-12)


class TestSpecTypes:
    def test_split_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0, 5, 0.1)
        with pytest.raises(ValueError):
            SplitSpec(5, 5, 1.0)
        assert SplitSpec(5, 6, 0.1).n == 11

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1e-9)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 0.1)
