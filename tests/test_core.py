import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import (
    Dataset,
    FoldPartition,
    PredictionSet,
    constant_algorithm,
    kth_smallest,
    make_folds,
    order_stat_index,
    plus_bounds,
    ridge_algorithm,
)
from coverkit.regressors import ClockConfig, RidgeConfig, adversary_full_algorithm


class TestOrderStatIndex:
    def test_spec_examples(self):
        assert order_stat_index(9, 0.1) == 9
        assert order_stat_index(500, 0.1) == 451
        assert order_stat_index(3, 0.1) == 4  # n + 1: the whole line
        assert order_stat_index(250, 0.1) == 226

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                order_stat_index(10, alpha)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            order_stat_index(0, 0.1)

    def test_matches_exact_rational_arithmetic(self):
        # decimal alphas are not exactly representable in binary; the result
        # must still match real-number ceil((1-alpha)(n+1))
        for alpha in (0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.9):
            frac = 1 - Fraction(str(alpha))
            for n in range(1, 200):
                expected = math.ceil(frac * (n + 1))
                assert order_stat_index(n, alpha) == expected, (n, alpha)


class TestSelection:
    def test_examples(self):
        assert kth_smallest([3, 1, 2], 2) == 2
        assert kth_smallest([1, 1, 2], 2) == 1  # multiplicity preserved
        assert kth_smallest([5], 1) == 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kth_smallest([1, 2], 3)
        with pytest.raises(ValueError):
            kth_smallest([1, 2], 0)

    def test_matches_sorting(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = rng.integers(0, 10, size=rng.integers(1, 30)).astype(float)
            k = int(rng.integers(1, values.size + 1))
            assert kth_smallest(values, k) == np.sort(values)[k - 1]

    def test_within_range_at_conformal_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            values = rng.standard_normal(rng.integers(2, 40))
            k = order_stat_index(values.size, 0.25)
            if k > values.size:
                continue
            v = kth_smallest(values, k)
            assert values.min() <= v <= values.max()


@st.composite
def _plus_problems(draw):
    """(mu, residuals, alpha) with small integers for ties, or spread floats."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    values = draw(
        st.sampled_from([st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)])
    )
    mu = np.array(draw(st.lists(values, min_size=m * n, max_size=m * n)))
    mu = mu.reshape(m, n)
    if draw(st.booleans()):
        mu = np.asfortranarray(mu)  # callers pass transposed views too
    residuals = np.abs(np.array(draw(st.lists(values, min_size=n, max_size=n))))
    return mu, residuals, draw(st.floats(0.001, 0.999))


class TestPlusBounds:
    """The one jackknife+/cv+ endpoint kernel against a full sort."""

    @settings(max_examples=300, deadline=None)
    @given(_plus_problems())
    @example((np.array([[1.0, 1.0, 2.0, 2.0]]), np.array([0.0, 1.0, 1.0, 0.0]), 0.3))
    @example((np.zeros((3, 5)), np.ones(5), 0.1))  # rank 6 of 5 overflows
    def test_matches_sorted_order_statistics(self, problem):
        mu, residuals, alpha = problem
        m, n = mu.shape
        lower, upper = plus_bounds(mu, residuals, alpha)
        assert lower.shape == upper.shape == (m,)
        k = order_stat_index(n, alpha)
        if k > n:
            assert np.all(lower == -np.inf) and np.all(upper == np.inf)
            return
        # k-th largest of mu - R, k-th smallest of mu + R, per evaluation point
        descending = -np.sort(-(mu - residuals), axis=1)
        assert np.array_equal(lower, descending[:, k - 1])
        assert np.array_equal(upper, np.sort(mu + residuals, axis=1)[:, k - 1])


class TestFolds:
    def test_small_partition(self):
        folds = make_folds(4, 2, seed=3)
        assert folds.K == 2 and folds.m == 2
        assert sorted(np.concatenate([folds.fold_indices(k) for k in range(2)]).tolist()) == [0, 1, 2, 3]

    def test_paper_scale(self):
        folds = make_folds(500, 20, seed=0)
        assert folds.K == 20
        assert all(folds.fold_indices(k).size == 25 for k in range(20))

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            make_folds(5, 2, seed=0)

    def test_deterministic_and_seed_sensitive(self):
        a = make_folds(30, 5, seed=7)
        b = make_folds(30, 5, seed=7)
        c = make_folds(30, 5, seed=8)
        assert np.array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_each_index_in_exactly_one_fold(self):
        folds = make_folds(60, 6, seed=2)
        counts = np.zeros(60, dtype=int)
        for k in range(6):
            counts[folds.fold_indices(k)] += 1
        assert np.all(counts == 1)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            FoldPartition(np.array([0, 0, 1]), K=2)  # unequal folds after K|n check
        with pytest.raises(ValueError):
            FoldPartition(np.array([0, 0, 0, 0]), K=1)


class TestPredictionSet:
    def test_merging_and_sorting(self):
        ps = PredictionSet.from_intervals([(3, 4), (0, 1), (1, 2), (6, 5)])
        assert np.allclose(ps.intervals, [[0, 2], [3, 4]])

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PredictionSet(np.array([[0.0, 1.0], [0.5, 2.0]]))
        with pytest.raises(ValueError):
            PredictionSet(np.array([[2.0, 1.0]]))

    def test_membership(self):
        ps = PredictionSet.from_intervals([(0, 1), (2, 3)])
        assert 0.5 in ps and 2.0 in ps and 3.0 in ps
        assert 1.5 not in ps and -1.0 not in ps
        got = ps.contains(np.array([0.0, 1.5, 2.5]))
        assert got.tolist() == [True, False, True]

    def test_empty_and_line(self):
        assert PredictionSet.empty().is_empty
        assert not (0.0 in PredictionSet.empty())
        line = PredictionSet.real_line()
        assert line.is_real_line and 1e300 in line
        assert PredictionSet.interval(2.0, 1.0).is_empty

    def test_centered(self):
        ps = PredictionSet.centered(1.0, 2.0)
        assert np.allclose(ps.intervals, [[-1, 3]])
        assert PredictionSet.centered(0.0, math.inf).is_real_line

    def test_width_and_open_containment(self):
        ps = PredictionSet.from_intervals([(0, 1), (2, 4)])
        assert ps.total_width == 3.0


class TestDataset:
    def test_dimension_and_length(self):
        data = Dataset(np.zeros((3, 2)), np.arange(3.0))
        assert len(data) == 3 and data.d == 2

    def test_rejects_nonfinite_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([1.0, np.nan]))

    def test_append_checks_dimension(self):
        data = Dataset(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            data.append([1.0, 2.0], 0.0)
        assert len(data.append([1.0, 2.0, 3.0], 5.0)) == 3

    def test_without(self):
        data = Dataset(np.arange(4.0)[:, None], np.arange(4.0))
        reduced = data.without(1)
        assert reduced.y.tolist() == [0.0, 2.0, 3.0]


class TestDeclaredSymmetry:
    """Fitting a permuted dataset must not change predictions anywhere."""

    def _check(self, algo, data, probes, exact):
        rng = np.random.default_rng(9)
        base = algo.fit(data)
        for _ in range(5):
            permuted = data.subset(rng.permutation(len(data)))
            model = algo.fit(permuted)
            for x in probes:
                if exact:
                    assert float(model(x)) == float(base(x))
                else:
                    # float summation order changes under row permutation
                    assert float(model(x)) == pytest.approx(float(base(x)), abs=1e-9)

    def test_constant(self):
        data = Dataset(np.random.default_rng(0).standard_normal((8, 2)), np.arange(8.0))
        self._check(constant_algorithm(1.5), data, np.zeros((3, 2)), exact=True)

    def test_clock(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.uniform(0, 1, (30, 1)), rng.standard_normal(30))
        cfg = ClockConfig(M=10, M1=3, y_star=2.0)
        probes = rng.uniform(0, 1, (20, 1))
        self._check(adversary_full_algorithm(cfg), data, probes, exact=True)

    def test_ridge(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.standard_normal((15, 4)), rng.standard_normal(15))
        probes = rng.standard_normal((5, 4))
        self._check(ridge_algorithm(RidgeConfig(0.1)), data, probes, exact=False)
