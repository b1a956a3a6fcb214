import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from coverkit import Dataset
from coverkit.regressors import (
    ClockConfig,
    RidgeConfig,
    _ridge_coefficients,
    adversary_full_fit,
    adversary_jackknife_fit,
    constant_fit,
    ridge_fit,
    uniform_cell_map,
)


def ridge_coefficients_reference(x, y, penalty):
    """Ridge coefficients through ``scipy.linalg.solve``: the refit kernel's
    reference, with its finiteness, factorization and conditioning checks."""
    n, d = x.shape
    if d <= n:
        gram = x.T @ x
        gram[np.diag_indices_from(gram)] += penalty
        return scipy.linalg.solve(gram, x.T @ y, assume_a="pos")
    kernel = x @ x.T
    kernel[np.diag_indices_from(kernel)] += penalty
    return x.T @ scipy.linalg.solve(kernel, y, assume_a="pos")


_SHAPES = {"d < n": lambda n: max(n // 3, 1), "d = n - 1": lambda n: n - 1,
           "d = n": lambda n: n, "d > n": lambda n: 2 * n + 1}


@st.composite
def _kernel_problems(draw):
    shape = draw(st.sampled_from(sorted(_SHAPES)))
    n = draw(st.integers(2, 40))
    penalty = 10.0 ** draw(st.floats(-6.0, 0.0))
    return n, _SHAPES[shape](n), penalty, draw(st.integers(0, 2**32 - 1))


def _random_instance(rng, n, d):
    x = rng.standard_normal((n, d))
    y = x @ rng.standard_normal(d) + rng.standard_normal(n)
    return Dataset(x, y)


class TestRidge:
    def test_one_point_interpolation(self):
        data = Dataset(np.array([[1.0]]), np.array([2.0]))
        model = ridge_fit(data, RidgeConfig(0.0))
        assert float(model(np.array([3.0]))) == pytest.approx(6.0, abs=1e-12)

    def test_infinite_shrinkage(self):
        data = Dataset(np.array([[1.0]]), np.array([2.0]))
        model = ridge_fit(data, RidgeConfig(1e12))
        assert abs(float(model(np.array([3.0])))) < 1e-5

    def test_dual_matches_dense_oracle_when_overparameterized(self):
        # oracle: direct (X^T X + penalty I)^-1 X^T y via dense solve
        rng = np.random.default_rng(42)
        data = _random_instance(rng, n=20, d=50)
        penalty = 1e-4
        model = ridge_fit(data, RidgeConfig(penalty))
        gram = data.x.T @ data.x + penalty * np.eye(50)
        beta_oracle = np.linalg.solve(gram, data.x.T @ data.y)
        probes = rng.standard_normal((10, 50))
        np.testing.assert_allclose(model(probes), probes @ beta_oracle, atol=1e-8)

    @pytest.mark.parametrize("n,d", [(30, 5), (10, 25), (12, 12)])
    def test_stationarity(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        data = _random_instance(rng, n, d)
        penalty = 1e-3
        model = ridge_fit(data, RidgeConfig(penalty))
        beta = np.array([float(model(e)) for e in np.eye(d)])
        xty = data.x.T @ data.y
        grad = (data.x.T @ data.x + penalty * np.eye(d)) @ beta - xty
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(xty)

    def test_rank_deficient_zero_penalty_minimum_norm(self):
        # two identical rows, d=2: infinitely many interpolants; the
        # minimum-norm one is pinned down
        x = np.array([[1.0, 1.0], [1.0, 1.0]])
        y = np.array([2.0, 2.0])
        model = ridge_fit(Dataset(x, y), RidgeConfig(0.0))
        beta = np.array([float(model(e)) for e in np.eye(2)])
        np.testing.assert_allclose(beta, [1.0, 1.0], atol=1e-10)

    def test_predictions_affine_in_single_label(self):
        # three-point collinearity in y_j underpins the exact conformal path
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 4))
        y = rng.standard_normal(12)
        probe = rng.standard_normal(4)
        preds = []
        for value in (-1.0, 0.5, 2.0):
            y2 = y.copy()
            y2[5] = value
            preds.append(float(ridge_fit(Dataset(x, y2), RidgeConfig(1e-3))(probe)))
        slope1 = (preds[1] - preds[0]) / 1.5
        slope2 = (preds[2] - preds[1]) / 1.5
        assert slope1 == pytest.approx(slope2, abs=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ridge_fit(Dataset(np.empty((0, 2)), np.empty(0)), RidgeConfig(1.0))

    @settings(max_examples=200, deadline=None)
    @given(_kernel_problems())
    @example((30, 5, 1e-4, 0))  # the grid oracle's scale
    @example((1, 3, 1e-2, 1))  # a 1 x 1 dual system
    @example((7, 1, 1e-2, 2))  # a 1 x 1 primal system
    def test_kernel_matches_reference(self, problem):
        n, d, penalty, seed = problem
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        y = x @ rng.standard_normal(d) + rng.standard_normal(n)
        got = _ridge_coefficients(x, y, penalty)
        ref = ridge_coefficients_reference(x, y, penalty)
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [2, 9])  # primal, dual
    def test_non_finite_design_rejected(self, value, d):
        # Dataset checks only the labels
        x = np.random.default_rng(8).standard_normal((5, d))
        x[2, 1] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            ridge_fit(Dataset(x, np.ones(5)), RidgeConfig(1e-3))

    def test_ill_conditioned_system_warns(self):
        # the second column is 1e4 times the first, with every Gram entry
        # exact: the penalty alone keeps the system nonsingular, and its
        # reciprocal condition number is about 1e-20
        x = 0.5 * np.array([[1.0, 1e4]] * 4)
        with pytest.warns(scipy.linalg.LinAlgWarning):
            ridge_fit(Dataset(x, np.arange(4.0)), RidgeConfig(1e-12))

    def test_failed_factorization_raises(self):
        # x^T x = [[4, 4], [4, 4]] exactly, and a penalty of 1e-300 is lost
        # against 4, so the Cholesky factorization meets a zero pivot
        with pytest.raises(np.linalg.LinAlgError):
            ridge_fit(Dataset(np.ones((4, 2)), np.arange(4.0)), RidgeConfig(1e-300))

    def test_well_conditioned_system_is_silent(self):
        data = _random_instance(np.random.default_rng(9), n=20, d=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ridge_fit(data, RidgeConfig(1e-4))

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError):
            RidgeConfig(-1.0)


class TestConstant:
    def test_constant_everywhere(self):
        data = Dataset(np.ones((3, 2)), np.arange(3.0))
        model = constant_fit(data, 0.0)
        assert float(model(np.array([5.0, -2.0]))) == 0.0

    def test_empty_data_ok(self):
        model = constant_fit(Dataset(np.empty((0, 1)), np.empty(0)), 1.0)
        assert float(model(np.array([7.0]))) == 1.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            constant_fit(Dataset(np.empty((0, 1)), np.empty(0)), float("nan"))


class TestClockIndex:
    def test_examples(self):
        cfg = ClockConfig(M=10, M1=2, y_star=1.0)
        assert cfg.cell_map(np.array([0.42])) == 4
        assert cfg.cell_map(np.array([1.0])) == 9  # boundary clamp
        assert cfg.cell_map(np.array([0.0])) == 0

    def test_batch(self):
        cfg = ClockConfig(M=5, M1=1, y_star=1.0)
        got = cfg.cell_map(np.array([[0.0], [0.5], [0.99]]))
        assert got.tolist() == [0, 2, 4]

    def test_uniformity_chi_squared(self):
        # M=50 cells, 1e5 uniform draws: the cell histogram passes a
        # chi-squared uniformity check at significance 1e-4
        rng = np.random.default_rng(123)
        cells = uniform_cell_map(50)(rng.uniform(0, 1, (100_000, 1)))
        counts = np.bincount(cells, minlength=50)
        _, pvalue = chisquare(counts)
        assert pvalue > 1e-4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClockConfig(M=1, M1=0, y_star=1.0)
        with pytest.raises(ValueError):
            ClockConfig(M=10, M1=10, y_star=1.0)
        with pytest.raises(ValueError):
            ClockConfig(M=10, M1=2, y_star=0.0)


def _dataset_with_cells(cells, M, labels=None):
    # place each x inside the wanted cell of the default Unif[0,1] map
    x = (np.asarray(cells, dtype=float) + 0.5) / M
    y = np.zeros(len(cells)) if labels is None else np.asarray(labels, float)
    return Dataset(x[:, None], y)


class TestAdversaryFits:
    def test_full_rule_arithmetic(self):
        cfg = ClockConfig(M=10, M1=2, y_star=1.0)
        data = _dataset_with_cells([4, 7, 1], 10)  # the augmented set
        model = adversary_full_fit(data, cfg)
        probe_cell1 = np.array([0.15])  # cell 1: mod(-1+12, 10) = 1 < 2
        probe_cell4 = np.array([0.45])  # cell 4: mod(-4+12, 10) = 8 >= 2
        assert float(model(probe_cell1)) == 2.0
        assert float(model(probe_cell4)) == 0.0

    def test_jackknife_rule_arithmetic(self):
        cfg = ClockConfig(M=10, M1=2, y_star=1.0)
        data = _dataset_with_cells([4, 7], 10)  # a leave-one-out set
        model = adversary_jackknife_fit(data, cfg)
        assert float(model(np.array([0.15]))) == 2.0  # mod(1+11,10)=2 >= 2
        assert float(model(np.array([0.05]))) == 0.0  # mod(0+11,10)=1 < 2

    def test_permutation_invariance_exact(self):
        cfg = ClockConfig(M=17, M1=4, y_star=3.0)
        rng = np.random.default_rng(5)
        data = Dataset(rng.uniform(0, 1, (25, 1)), rng.standard_normal(25))
        probes = rng.uniform(0, 1, (100, 1))
        for fit in (adversary_full_fit, adversary_jackknife_fit):
            base = fit(data, cfg)(probes)
            for _ in range(5):
                permuted = fit(data.subset(rng.permutation(len(data))), cfg)(probes)
                assert np.array_equal(base, permuted)

    def test_outputs_two_valued(self):
        cfg = ClockConfig(M=9, M1=3, y_star=1.5)
        rng = np.random.default_rng(6)
        data = Dataset(rng.uniform(0, 1, (12, 1)), rng.standard_normal(12))
        probes = rng.uniform(0, 1, (200, 1))
        for fit in (adversary_full_fit, adversary_jackknife_fit):
            values = np.unique(fit(data, cfg)(probes))
            assert set(values.tolist()) <= {0.0, 3.0}
