
import numpy as np
import pytest

from coverkit.bounds import (
    adversarial_floor,
    corrected_alpha_split,
    cvplus_pac_bound,
    split_pac_bound,
)


class TestSplitPacBound:
    def test_reference_value(self):
        # 0.1 + sqrt(ln 20 / 500), re-derived by hand before freezing
        assert split_pac_bound(0.1, 0.05, 250) == pytest.approx(0.177404551, abs=1e-8)

    def test_decreasing_in_n1_to_alpha(self):
        values = [split_pac_bound(0.1, 0.5, n1) for n1 in (10, 100, 10_000, 10**8)]
        assert values == sorted(values, reverse=True)
        assert values[-1] == pytest.approx(0.1, abs=1e-3)

    def test_delta_one_degenerates_to_alpha(self):
        with pytest.warns(UserWarning):
            assert split_pac_bound(0.1, 1.0, 50) == pytest.approx(0.1)

    def test_warns_outside_guarantee_range(self):
        with pytest.warns(UserWarning, match="0, 0.5"):
            split_pac_bound(0.1, 0.7, 100)

    def test_decreasing_in_delta(self):
        assert split_pac_bound(0.1, 0.01, 100) > split_pac_bound(0.1, 0.2, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_pac_bound(0.0, 0.1, 10)
        with pytest.raises(ValueError):
            split_pac_bound(0.1, 0.0, 10)
        with pytest.raises(ValueError):
            split_pac_bound(0.1, 1.5, 10)
        with pytest.raises(ValueError):
            split_pac_bound(0.1, 0.1, 0)


class TestCvplusPacBound:
    def test_reference_value(self):
        # 0.2 + sqrt(2 ln 400 / 25): nearly vacuous at this scale
        assert cvplus_pac_bound(0.1, 0.05, 20, 25) == pytest.approx(
            0.892327353, abs=1e-8
        )

    def test_large_fold_limit(self):
        assert cvplus_pac_bound(0.1, 0.05, 2, 10**6) == pytest.approx(0.2, abs=1e-2)

    def test_monotone_increasing_in_K(self):
        values = [cvplus_pac_bound(0.1, 0.05, K, 50) for K in (2, 5, 20, 100)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            cvplus_pac_bound(0.1, 0.05, 1, 10)
        with pytest.raises(ValueError):
            cvplus_pac_bound(0.1, 0.05, 5, 0)


class TestAdversarialFloor:
    def test_reference_values(self):
        big = adversarial_floor(0.1, 50_000)
        assert big.value == pytest.approx(0.0117376617, abs=1e-8)
        assert not big.vacuous
        small = adversarial_floor(0.1, 500)
        assert small.value == pytest.approx(-0.568918368, abs=1e-8)
        assert small.vacuous

    def test_always_below_alpha(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            alpha = float(rng.uniform(0.01, 0.99))
            n = int(rng.integers(2, 10**7))
            assert adversarial_floor(alpha, n).value < alpha

    def test_validation(self):
        with pytest.raises(ValueError):
            adversarial_floor(0.1, 1)


class TestCorrectedAlphaSplit:
    def test_reference_value(self):
        assert corrected_alpha_split(0.1, 0.05, 250) == pytest.approx(
            0.0225954488, abs=1e-8
        )

    def test_infeasible_when_holdout_too_small(self):
        assert corrected_alpha_split(0.1, 0.05, 10) is None

    def test_exact_algebra(self):
        alpha, delta, n1 = 0.1, 0.05, 250
        corrected = corrected_alpha_split(alpha, delta, n1)
        correction = split_pac_bound(alpha, delta, n1) - alpha
        assert corrected + correction == alpha  # exact, not approximate
