import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coverkit.regressors
from coverkit import (
    Dataset,
    GridSpec,
    constant_algorithm,
    cv_plus,
    cv_plus_bounds,
    full_conformal_grid,
    full_conformal_ridge_exact,
    full_conformal_ridge_sets,
    jackknife_plus,
    jackknife_plus_bounds,
    make_folds,
    ridge_algorithm,
    ridge_fit,
    split_conformal,
)
import coverkit.conformal
from coverkit.conformal import (
    _crossings,
    _members,
    _swept_sets,
    _unbounded,
    affine_conformal_sets,
    default_grid,
)
from coverkit.core import (
    FittedModel,
    PredictionSet,
    RegressionAlgorithm,
    derive_rng,
    kth_smallest,
    order_stat_index,
    plus_bounds,
)
from coverkit.regressors import RidgeConfig, _ridge_coefficients, constant_fit

ZERO = constant_algorithm(0.0)


def full_conformal_ridge_reference(
    train: Dataset,
    x_new,
    ridge: RidgeConfig,
    alpha: float,
) -> PredictionSet:
    """Exact full-conformal set for ridge regression, no grid.

    Ridge predictions are affine in any single label, so each of the n+1
    residuals is the absolute value of an affine function of the candidate
    label y. The set boundary can only move where the test point's residual
    crosses another one, and comparing those finitely many crossings gives
    the exact set as a finite union of closed intervals.

    The reference for the ridge backend: it refits on the augmented data.
    """
    if len(train) == 0:
        raise ValueError("training data must be nonempty")
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    n = len(train)
    x_aug = np.vstack([train.x, x_new[None, :]])
    rhs = np.zeros((n + 1, 2))
    rhs[:n, 0] = train.y
    rhs[n, 1] = 1.0
    betas = _ridge_coefficients(x_aug, rhs, ridge.penalty)
    beta_base, beta_dir = betas[:, 0], betas[:, 1]

    a = train.y - train.x @ beta_base
    b = -(train.x @ beta_dir)
    a0 = -float(x_new @ beta_base)
    b0 = 1.0 - float(x_new @ beta_dir)
    return affine_conformal_sets(a, b, a0, b0, alpha).prediction_set(0)


def full_conformal_grid_reference(
    train: Dataset,
    x_new,
    algo: RegressionAlgorithm,
    alpha: float,
    grid: GridSpec,
    seed=None,
) -> PredictionSet:
    """Grid full conformal with one augmented dataset per candidate label.

    The reference for ``full_conformal_grid``: the same rank test and the
    same widening of each run of kept grid points by one step.
    """
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    ys = grid.values()
    n = len(train)
    k = order_stat_index(n, alpha)
    if k > n:
        return PredictionSet.real_line()

    included = np.zeros(ys.size, dtype=bool)
    for j, y in enumerate(ys):
        aug = train.append(x_new, y)
        model = algo.fit(aug, seed)
        residuals = np.abs(aug.y - np.asarray(model(aug.x)))
        included[j] = residuals[-1] <= kth_smallest(residuals, k)

    if not included.any():
        return PredictionSet.empty()
    idx = np.flatnonzero(included)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    run_starts = np.concatenate(([0], breaks + 1))
    run_ends = np.concatenate((breaks, [idx.size - 1]))
    step = grid.resolution
    pairs = [
        (ys[idx[s]] - step, ys[idx[e]] + step) for s, e in zip(run_starts, run_ends)
    ]
    return PredictionSet.from_intervals(pairs)


def _nearest_mean_fit(data: Dataset, seed=None):
    """Mean label of the three nearest training points: symmetric, not ridge."""
    x, y = data.x, data.y

    def predict(z):
        z2 = np.atleast_2d(z)
        dist = np.sum((z2[:, None, :] - x[None, :, :]) ** 2, axis=2)
        out = np.mean(y[np.argsort(dist, axis=1)[:, :3]], axis=1)
        return out if z.ndim > 1 else float(out[0])

    return FittedModel(predict=predict)


def _untagged(cfg):
    """Ridge without the tag that selects the backend: the refit oracle."""
    return RegressionAlgorithm(
        fit_fn=lambda data, seed=None: ridge_fit(data, cfg), symmetric=True
    )


def jackknife_plus_reference(train: Dataset, x_eval, algo, alpha: float):
    """Jackknife+ endpoints from n leave-one-out refits, written out."""
    n = len(train)
    models = [algo.fit(train.subset(np.arange(n) != i)) for i in range(n)]
    mu_eval = np.stack([np.asarray(m(x_eval)) for m in models])
    mu_own = np.array([float(models[i](train.x[i])) for i in range(n)])
    return plus_bounds(mu_eval.T, np.abs(train.y - mu_own), alpha)


def _is_real_line(ps: PredictionSet) -> bool:
    return ps.intervals.tolist() == [[-math.inf, math.inf]]


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
        assert _is_real_line(result.prediction_set(np.array([0.0])))

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
        assert _is_real_line(ps)

    @pytest.mark.parametrize("instance", [0, 1])
    def test_ridge_matches_reference_at_criterion_8_scale(self, instance):
        rng = derive_rng(808, instance)
        x = rng.standard_normal((30, 5))
        y = x @ (rng.standard_normal(5) / math.sqrt(5)) + rng.standard_normal(30)
        train, x_new = Dataset(x, y), rng.standard_normal(5)
        exact = full_conformal_ridge_exact(train, x_new, RidgeConfig(1e-4), 0.1)
        lo, hi = exact.intervals[0, 0] - 0.25, exact.intervals[-1, 1] + 0.25
        grid = GridSpec(lo, hi, (hi - lo) / 4000)
        algo = ridge_algorithm(RidgeConfig(1e-4))
        got = full_conformal_grid(train, x_new, algo, 0.1, grid=grid)
        ref = full_conformal_grid_reference(train, x_new, algo, 0.1, grid)
        assert not got.is_empty
        assert np.array_equal(got.intervals, ref.intervals)

    def test_non_ridge_algorithm_matches_reference(self):
        train, x_new = _random_ridge_instance(4, n=19, d=2)
        algo = RegressionAlgorithm(fit_fn=_nearest_mean_fit, symmetric=True)
        grid = default_grid(train)
        got = full_conformal_grid(train, x_new, algo, 0.2, grid=grid)
        ref = full_conformal_grid_reference(train, x_new, algo, 0.2, grid)
        assert not got.is_empty
        assert np.array_equal(got.intervals, ref.intervals)

    def test_fit_that_writes_into_its_data_raises(self):
        def scribble(data, seed=None):
            data.x[-1, 0] += 1.0
            return constant_fit(data, 0.0)

        algo = RegressionAlgorithm(fit_fn=scribble, symmetric=True)
        train = _dataset([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="read-only"):
            full_conformal_grid(train, [0.0], algo, 0.5, grid=GridSpec(-6, 6, 0.01))
        assert np.array_equal(train.x[:, 0], np.arange(4.0))

    def test_default_grid_covers_labels(self):
        train = _dataset([-5.0, 0.0, 5.0, 10.0])
        grid = default_grid(train)
        assert grid.lo < -5 and grid.hi > 10


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
        assert _is_real_line(ps)


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


_COARSE = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]


@st.composite
def _interval_or_swept_rows(draw):
    """(a, b, a0, b0, alpha) for small m and n: either coefficients from a
    few values (ties, zero slopes, identical lines), or ridge-shaped rows
    b = -s B, b0 = s over training residuals of 0 or 1e-12 among others.
    A ridge row is an interval row when every |B_i| < 1, so the row scales
    of B on both sides of 1 mix interval rows and swept rows."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    alpha = draw(st.floats(0.01, 0.99))

    def array(elements, *shape):
        size = int(np.prod(shape))
        drawn = draw(st.lists(elements, min_size=size, max_size=size))
        return np.array(drawn, dtype=float).reshape(shape)

    if draw(st.booleans()):
        coarse = st.sampled_from(_COARSE)
        return array(coarse, m, n), array(coarse, m, n), array(coarse, m), array(
            coarse, m
        ), alpha
    s = array(st.floats(0.1, 2.0), m)
    pred = array(st.floats(-10.0, 10.0), m)
    scale = array(st.sampled_from([0.5, 0.99, 1.0, 1.5, 3.0]), m)
    big_b = array(st.floats(-1.0, 1.0), m, n) * scale[:, None]
    residuals = array(st.sampled_from([0.0, 1e-12]) | st.floats(-5.0, 5.0), n)
    a = residuals + (s * pred)[:, None] * big_b
    return a, -s[:, None] * big_b, -s * pred, s, alpha


def _labels_around_crossings(lows, highs):
    """(m, 2n + 1) labels: one inside each gap between a row's distinct
    finite crossings and one beyond each end, so every piece of the sweep
    gets a label; 0.37 where a row has fewer gaps."""
    roots = np.concatenate([lows, highs], axis=1)
    roots = np.sort(np.where(np.isfinite(roots), roots, np.nan), axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rows with no finite crossing
        first, last = np.nanmin(roots, axis=1), np.nanmax(roots, axis=1)
    gaps = np.where(roots[:, 1:] > roots[:, :-1], roots[:, :-1] / 2 + roots[:, 1:] / 2, np.nan)
    ends = (first - 1 - np.abs(first))[:, None], (last + 1 + np.abs(last))[:, None]
    labels = np.concatenate([ends[0], gaps, ends[1]], axis=1)
    return np.where(np.isfinite(labels), labels, 0.37)


def _count_against_sweep(a, b, a0, b0, alpha) -> tuple[int, int]:
    """Check ``_unbounded`` and ``_members`` against the swept sets;
    returns the labels excluded as near a crossing and the labels checked.

    A label is near a crossing when some training residual equals its own
    to 1e-9 relative. The two are then within rounding however far the
    crossing lies: |1.7e-124 + y| and |y| compare equal for every |y| > 1e-107.
    Identical lines give equal residuals exactly and never under-cut.
    """
    k = order_stat_index(a.shape[1], alpha)
    batch = affine_conformal_sets(a, b, a0, b0, alpha)
    assert np.array_equal(_unbounded(*_crossings(a, b, a0, b0), k), np.isinf(batch.widths()))
    a0_col, b0_col = a0[:, None], b0[:, None]
    identical = ((a == a0_col) & (b == b0_col)) | ((a == -a0_col) & (b == -b0_col))
    checked = excluded = 0
    for y in _labels_around_crossings(*_crossings(a, b, a0, b0)[:2]).T:
        with np.errstate(over="ignore", invalid="ignore"):  # labels near 1e308
            terms = np.abs(a) + np.abs(b * y[:, None]) + np.abs(a0_col) + np.abs(b0 * y)[:, None]
            apart = np.abs(np.abs(a + b * y[:, None]) - np.abs(a0 + b0 * y)[:, None])
            away = ((apart > 1e-9 * terms) | identical).all(axis=1)
            inside = _members(a, b, a0, b0, y, k)
        assert np.array_equal(inside[away], batch.contains(y)[away])
        checked, excluded = checked + y.size, excluded + np.count_nonzero(~away)
    return excluded, checked


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

    @settings(max_examples=300, deadline=None)
    @given(_affine_rows())
    @example((np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.5))
    @example((np.ones((3, 5)), np.ones((3, 5)), np.zeros(3), np.ones(3), 0.01))
    @example(([[0.0], [1.7e-124]], [[0.0], [1.0]], [0.0, 0.0], [0.0, 1.0], 0.5))
    def test_count_is_the_swept_set(self, problem):
        # the trial's full-conformal scoring: membership as the under-cut
        # count at the label, boundedness as the counts at +-inf
        a, b, a0, b0, alpha = problem
        _count_against_sweep(*map(np.asarray, (a, b, a0, b0)), alpha)

    def test_count_excludes_few_labels(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 2000, 12))
        a0, b0 = rng.standard_normal((2, 2000))
        excluded, checked = _count_against_sweep(a, b, a0, b0, 0.3)
        assert checked == 2000 * 25 and excluded <= 5

    def test_identical_lines_give_the_whole_line(self):
        a0, b0 = np.array([0.5]), np.array([2.0])
        a = np.array([[0.5, -0.5, 0.5]])  # a_i + b_i y = +-(a0 + b0 y)
        b = np.array([[2.0, -2.0, 2.0]])
        sets = affine_conformal_sets(a, b, a0, b0, 0.5)
        assert _is_real_line(sets.prediction_set(0))

    def test_parallel_lines_apart_by_less_than_rounding(self):
        # |1.6e-112 + y| and |y| are equal in floating point wherever
        # |y| > 1e-95, yet the first under-cuts the second below -0.8e-112
        a, b = np.array([[0.0, 1.6e-112]]), np.ones((1, 2))
        pset = affine_conformal_sets(a, b, 0.0, 1.0, 0.7).prediction_set(0)
        assert pset.intervals.tolist() == [[-0.8e-112, math.inf]]

    def test_zero_slopes_give_the_whole_line_or_nothing(self):
        a, b = np.array([[1.0, 2.0, 3.0, 4.0]]), np.zeros((1, 4))
        # two training residuals (1 and 2) under-cut the constant 2.5
        sets = affine_conformal_sets(a, b, 2.5, 0.0, 0.5)
        assert _is_real_line(sets.prediction_set(0))
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
        assert all(_is_real_line(batch.prediction_set(t)) for t in range(3))
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

    @settings(max_examples=500, deadline=None)
    @given(_interval_or_swept_rows())
    def test_interval_rows_equal_the_general_sweep(self, problem):
        a, b, a0, b0, alpha = problem
        got = affine_conformal_sets(a, b, a0, b0, alpha)
        k = order_stat_index(a.shape[1], alpha)
        want = _swept_sets(*_crossings(a, b, a0, b0), k)
        assert np.array_equal(got.lower, want.lower)
        assert np.array_equal(got.upper, want.upper)
        assert np.array_equal(got.row, want.row)

    def test_interval_and_swept_rows_alternate(self, monkeypatch):
        # own residual |y|; a constant training residual c gives the interval
        # row [-c, c], and |3y - a| under-cuts it between a/4 and a/2, which
        # leaves a swept row of two half-lines
        a = np.array([[1.0], [3.0], [2.0], [6.0], [0.5]])
        b = np.array([[0.0], [-3.0], [0.0], [-3.0], [0.0]])
        swept_rows = []

        def recorded(lows, highs, under, k):
            swept_rows.append(under.shape[0])
            return _swept_sets(lows, highs, under, k)

        monkeypatch.setattr(coverkit.conformal, "_swept_sets", recorded)
        batch = affine_conformal_sets(a, b, np.zeros(5), np.ones(5), 0.5)
        assert swept_rows == [2]
        inf = math.inf
        assert batch.row.tolist() == [0, 1, 1, 2, 3, 3, 4]
        assert batch.lower.tolist() == [-1.0, -inf, 1.5, -2.0, -inf, 3.0, -0.5]
        assert batch.upper.tolist() == [1.0, 0.75, inf, 2.0, 1.5, inf, 0.5]


class TestJackknifePlus:
    def test_forced_order_statistics(self):
        train = _dataset([1.0, 2.0, 3.0, 4.0])
        ps = jackknife_plus(train, [0.0], ZERO, alpha=0.5)
        assert np.allclose(ps.intervals, [[-3.0, 3.0]])

    def test_overflow_real_line(self):
        train = _dataset([1.0, 2.0, 3.0, 4.0])
        assert _is_real_line(jackknife_plus(train, [0.0], ZERO, alpha=0.1))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            jackknife_plus(_dataset([1.0]), [0.0], ZERO, alpha=0.5)

    @pytest.mark.parametrize("algo", [
        _untagged(RidgeConfig(0.0)),
        _untagged(RidgeConfig(1e-3)),
        ridge_algorithm(RidgeConfig(1e-3)),
        constant_algorithm(0.5),
    ], ids=["untagged-0", "untagged-1e-3", "tagged-1e-3", "constant"])
    def test_equals_the_leave_one_out_loop(self, algo):
        for n, d in ((12, 3), (12, 12), (10, 25)):
            train, x_eval, _ = _ridge_draw(n, d, seed=n + d)
            got = jackknife_plus_bounds(train, x_eval, algo, 0.2)
            ref = jackknife_plus_reference(train, x_eval, algo, 0.2)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))

    def test_refits_n_times_whatever_the_tag(self):
        # the refit contract the benchmark pins: a ridge tag does not send
        # jackknife+ to the backend, as it does cv+
        calls = []

        def counted(data, seed=None):
            calls.append(len(data))
            return ridge_fit(data, RidgeConfig(1e-3))

        algo = dataclasses.replace(ridge_algorithm(RidgeConfig(1e-3)), fit_fn=counted)
        train, x_eval, _ = _ridge_draw(12, 12, seed=0)
        jackknife_plus_bounds(train, x_eval, algo, 0.2)
        assert calls == [11] * 12

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


@st.composite
def _ridge_problems(draw):
    """(n, d, K, penalty, alpha, seed) on both sides of the backend's shape
    rule: d = n - 1 (the last primal shape) and d = n (dual) a third of the
    time each, K any divisor of n."""
    n = draw(st.integers(4, 24))
    d = draw(st.one_of(st.just(n - 1), st.just(n), st.integers(1, 2 * n)))
    K = draw(st.sampled_from([k for k in range(2, n + 1) if n % k == 0]))
    penalty = 10.0 ** draw(st.floats(-4.0, 0.0))
    alpha = draw(st.floats(0.05, 0.5))
    return n, d, K, penalty, alpha, draw(st.integers(0, 2**32 - 1))


def _ridge_draw(n, d, seed, m=7):
    rng = np.random.default_rng(seed)
    x, beta = rng.standard_normal((n + m, d)), rng.standard_normal(d)
    y = x @ beta + rng.standard_normal(n + m)
    return Dataset(x[:n], y[:n]), x[n:], y[n:]


def _assert_close(got, ref, rel=1e-8):
    """Equal infinities; finite values within rel of the problem's scale."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    finite = ref[np.isfinite(ref)]
    scale = float(np.max(np.abs(finite), initial=1.0))
    np.testing.assert_allclose(got, ref, rtol=rel, atol=rel * scale)


# both forms and their edges: n >> d, d = n - 1, d = n, d > n
_FORM_EXAMPLES = [
    (60, 3, 20, 1e-4, 0.1, 0),
    (24, 23, 4, 1e-4, 0.1, 1),
    (24, 24, 24, 1e-4, 0.1, 2),
    (12, 30, 3, 1e-2, 0.2, 3),
]


def _with_examples(test):
    for problem in _FORM_EXAMPLES:
        test = example(problem)(test)
    return test


class TestRidgeBackend:
    """The shared ridge backend against refits, in both of its forms."""

    @settings(max_examples=60, deadline=None)
    @given(_ridge_problems())
    @_with_examples
    def test_tagged_cv_plus_matches_refits(self, problem):
        n, d, K, penalty, alpha, seed = problem
        train, x_eval, y_eval = _ridge_draw(n, d, seed)
        cfg, folds = RidgeConfig(penalty), make_folds(n, K, seed % 1000)
        lo, up = cv_plus_bounds(train, x_eval, ridge_algorithm(cfg), alpha, folds)
        ref_lo, ref_up = cv_plus_bounds(train, x_eval, _untagged(cfg), alpha, folds)
        covered = (y_eval >= lo) & (y_eval <= up)
        assert np.array_equal(covered, (y_eval >= ref_lo) & (y_eval <= ref_up))
        _assert_close(lo, ref_lo)
        _assert_close(up, ref_up)
        _assert_close(np.maximum(up - lo, 0.0), np.maximum(ref_up - ref_lo, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(_ridge_problems())
    @_with_examples
    def test_sets_match_augmented_refits(self, problem):
        n, d, _, penalty, alpha, seed = problem
        train, x_eval, y_eval = _ridge_draw(n, d, seed)
        cfg = RidgeConfig(penalty)
        batch = full_conformal_ridge_sets(train, x_eval, cfg, alpha)
        widths, inside = batch.widths(), batch.contains(y_eval)
        for t, x_new in enumerate(x_eval):
            ref = full_conformal_ridge_reference(train, x_new, cfg, alpha)
            assert inside[t] == (y_eval[t] in ref)
            _assert_close(batch.prediction_set(t).intervals, ref.intervals)
            assert widths[t] == pytest.approx(ref.total_width, rel=1e-8)

    @pytest.mark.parametrize("n", [12, 24, 60])
    def test_square_designs_at_a_tiny_penalty(self, n):
        # at d = n the primal leverages reach 1 and I - x_H W_H cancels, which
        # is why d = n stays in the dual form
        cfg = RidgeConfig(1e-8)
        for seed in range(4):
            train, x_eval, _ = _ridge_draw(n, n, seed)
            for K in (n, n // 2):
                folds = make_folds(n, K, seed)
                got = cv_plus_bounds(train, x_eval, ridge_algorithm(cfg), 0.1, folds)
                ref = cv_plus_bounds(train, x_eval, _untagged(cfg), 0.1, folds)
                for endpoints, ref_endpoints in zip(got, ref):
                    _assert_close(endpoints, ref_endpoints)

    @pytest.mark.parametrize("n, d", [(30, 5), (20, 20), (10, 25)])
    def test_batch_row_equals_one_point_call(self, n, d):
        train, x_eval, _ = _ridge_draw(n, d, seed=n + d, m=70)  # two sweep chunks
        batch = full_conformal_ridge_sets(train, x_eval, RidgeConfig(1e-3), 0.2)
        for t, x_new in enumerate(x_eval):
            one = full_conformal_ridge_exact(train, x_new, RidgeConfig(1e-3), 0.2)
            _assert_close(batch.prediction_set(t).intervals, one.intervals, rel=1e-12)

    @pytest.mark.parametrize("penalty", [1e-3, 0.0])
    def test_no_evaluation_points(self, penalty):
        train, _, _ = _ridge_draw(12, 3, seed=0)
        none, cfg = np.empty((0, 3)), RidgeConfig(penalty)
        batch = full_conformal_ridge_sets(train, none, cfg, 0.2)
        assert batch.m == 0 and batch.row.size == batch.lower.size == 0
        assert batch.widths().size == 0 and batch.contains(np.empty(0)).size == 0
        with pytest.raises(ValueError):
            full_conformal_ridge_sets(train, none, cfg, 1.5)  # alpha outside (0, 1)

    def test_penalty_zero_refits(self, monkeypatch):
        calls = []

        def counted(data, config):
            calls.append(config.penalty)
            return ridge_fit(data, config)

        monkeypatch.setattr(coverkit.regressors, "ridge_fit", counted)
        train, x_eval, _ = _ridge_draw(12, 3, seed=5)
        folds = make_folds(12, 4, seed=0)
        cv_plus_bounds(train, x_eval, ridge_algorithm(RidgeConfig(0.0)), 0.2, folds)
        assert calls == [0.0] * 4
        cv_plus_bounds(train, x_eval, ridge_algorithm(RidgeConfig(1e-3)), 0.2, folds)
        assert calls == [0.0] * 4  # the backend fits nothing through ridge_fit
        batch = full_conformal_ridge_sets(train, x_eval, RidgeConfig(0.0), 0.2)
        for t, x_new in enumerate(x_eval):
            ref = full_conformal_ridge_reference(train, x_new, RidgeConfig(0.0), 0.2)
            assert np.array_equal(batch.prediction_set(t).intervals, ref.intervals)


class TestPredictionSetBatch:
    def test_point_out_of_range(self):
        batch = affine_conformal_sets(np.ones((2, 3)), np.ones((2, 3)), np.zeros(2),
                                      np.ones(2), alpha=0.5)
        assert batch.prediction_set(1).total_width >= 0
        for t in (2, 7, -1):
            with pytest.raises(IndexError):
                batch.prediction_set(t)


class TestEvaluationPointChecks:
    """Evaluation points of the wrong width are rejected with one message."""

    train = Dataset(np.arange(12.0).reshape(4, 3), np.arange(4.0))
    folds = make_folds(4, 2, seed=0)

    @pytest.mark.parametrize("name, call", [
        ("full_conformal_ridge_exact",
         lambda tr, x: full_conformal_ridge_exact(tr, x[0], RidgeConfig(1e-3), 0.5)),
        ("full_conformal_ridge_sets",
         lambda tr, x: full_conformal_ridge_sets(tr, x, RidgeConfig(1e-3), 0.5)),
        ("cv_plus_bounds", lambda tr, x: cv_plus_bounds(
            tr, x, ridge_algorithm(RidgeConfig(1e-3)), 0.5,
            TestEvaluationPointChecks.folds)),
        ("cv_plus_bounds untagged", lambda tr, x: cv_plus_bounds(
            tr, x, _untagged(RidgeConfig(1e-3)), 0.5, TestEvaluationPointChecks.folds)),
        ("jackknife_plus_bounds", lambda tr, x: jackknife_plus_bounds(
            tr, x, ridge_algorithm(RidgeConfig(1e-3)), 0.5)),
        ("full_conformal_grid", lambda tr, x: full_conformal_grid(
            tr, x[0], ZERO, 0.5, grid=GridSpec(-1, 1, 0.1))),
    ])
    def test_wrong_width(self, name, call):
        with pytest.raises(ValueError, match="dimension mismatch: expected 3, got 4"):
            call(self.train, np.ones((2, 4)))

    def test_single_point_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match=r"need 1 dimensions, got shape \(1, 3\)"):
            full_conformal_ridge_exact(
                self.train, np.ones((1, 3)), RidgeConfig(1e-3), 0.5
            )


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


class TestSpecTypes:
    def test_grid_guard(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1e-9)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 0.1)
