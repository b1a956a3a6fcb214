import math

import numpy as np
import pytest

from coverkit import (
    Dataset,
    check_events,
    collapse_check,
    compute_M1,
    dkw_statistic,
    order_stat_index,
)
from coverkit.adversary import (
    EventRates,
    _window_min_count,
    adversary_full_bounds,
    adversary_jackknife_bounds,
    default_clock_sampler,
    gaussian_label_quantile,
    event_rates_montecarlo,
)
from coverkit.conformal import GridSpec, full_conformal_grid, jackknife_plus_bounds
from coverkit.regressors import (
    ClockConfig,
    adversary_full_algorithm,
    adversary_jackknife_algorithm,
)


def _dataset_with_cells(cells, M, labels):
    x = (np.asarray(cells, dtype=float) + 0.5) / M
    return Dataset(x[:, None], np.asarray(labels, dtype=float))


class TestComputeM1:
    def test_reference_value(self):
        # floor(5000 * (0.1 - sqrt(2 ln 5000 / 5000) - 2/5000)) = 206,
        # re-derived independently before freezing
        assert compute_M1(5000, 5000, 0.1) == 206

    def test_small_n_clamped_to_zero(self):
        assert compute_M1(100, 100, 0.1) == 0
        assert compute_M1(1000, 1000, 0.1) == 0

    def test_always_below_M(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 10**6))
            M = int(rng.integers(2, 10**5))
            alpha = float(rng.uniform(0.01, 0.99))
            assert 0 <= compute_M1(n, M, alpha) < M

    def test_monotone_in_alpha_and_n(self):
        n, M = 5000, 5000
        values = [compute_M1(n, M, a) for a in (0.05, 0.1, 0.2, 0.4)]
        assert values == sorted(values)
        # once unclamped, growing n shrinks the correction term
        values_n = [compute_M1(n, M, 0.1) for n in (3000, 5000, 20000, 10**5)]
        assert values_n == sorted(values_n)

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_M1(1, 10, 0.1)
        with pytest.raises(ValueError):
            compute_M1(10, 1, 0.1)


class TestCheckEvents:
    def test_mod_event_hand_cases(self):
        cfg = ClockConfig(M=10, M1=2, y_star=1.0)
        low = [0.1, 0.2, 0.3]
        assert not check_events(_dataset_with_cells([4, 7, 1], 10, low), cfg, 0.1).e_mod
        assert check_events(_dataset_with_cells([4, 7, 0], 10, low), cfg, 0.1).e_mod

    def test_max_event(self):
        cfg = ClockConfig(M=10, M1=2, y_star=1.0)
        below = _dataset_with_cells([0, 1], 10, [0.5, -0.99])
        at = _dataset_with_cells([0, 1], 10, [0.5, 1.0])
        assert check_events(below, cfg, 0.5).e_max
        assert not check_events(at, cfg, 0.5).e_max  # strict inequality

    def test_all_three_is_conjunction(self):
        cfg = ClockConfig(M=4, M1=1, y_star=5.0)
        report = check_events(_dataset_with_cells([0, 0, 0, 0], 4, [0.0] * 4), cfg, 0.5)
        assert report.all_three == (report.e_max and report.e_mod and report.e_unif)

    def test_unif_fast_path_matches_naive_scan(self):
        # oracle: check every integer rotation in a wide range directly
        def naive(cells, M, M1, need):
            return all(
                int(np.sum(np.mod(cells + m, M) < M - M1)) >= need
                for m in range(-2 * M, 2 * M)
            )

        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(3, 25))
            M = int(rng.integers(2, 11))
            M1 = int(rng.integers(0, M))
            alpha = float(rng.uniform(0.05, 0.6))
            cells = rng.integers(0, M, n)
            need = order_stat_index(n, alpha)
            fast = _window_min_count(cells, M, M1) >= need
            assert fast == naive(cells, M, M1, need)


def _find_event_training_set(n, cfg, alpha, max_seeds=4000):
    for seed in range(max_seeds):
        train = default_clock_sampler(n, np.random.default_rng(seed))
        if check_events(train, cfg, alpha).all_three:
            return train, seed
    raise AssertionError("no event-satisfying draw found")


class TestCollapseCheck:
    def setup_method(self):
        self.n, self.alpha = 60, 0.5
        M = 60
        self.cfg = ClockConfig(
            M=M, M1=compute_M1(self.n, M, self.alpha),
            y_star=gaussian_label_quantile(self.n),
        )
        assert self.cfg.M1 > 0

    def test_collapse_when_events_hold(self):
        train, _ = _find_event_training_set(self.n, self.cfg, self.alpha)
        probes = np.random.default_rng(1).uniform(0, 1, (500, 1))
        assert collapse_check(train, self.cfg, self.alpha, "full", probes)
        assert collapse_check(train, self.cfg, self.alpha, "jk", probes)

    def test_rejected_when_events_fail(self):
        train, _ = _find_event_training_set(self.n, self.cfg, self.alpha)
        spoiled = Dataset(train.x, np.append(train.y[:-1], 2 * self.cfg.y_star))
        assert not check_events(spoiled, self.cfg, self.alpha).e_max
        with pytest.raises(ValueError):
            collapse_check(spoiled, self.cfg, self.alpha, "full", np.zeros((1, 1)))

    def test_unknown_method_rejected(self):
        train, _ = _find_event_training_set(self.n, self.cfg, self.alpha)
        with pytest.raises(ValueError):
            collapse_check(train, self.cfg, self.alpha, "cv", np.zeros((1, 1)))


class TestClosedFormsAgainstGenericConstructions:
    def test_jackknife_bounds_exact_match(self):
        cfg = ClockConfig(M=20, M1=3, y_star=2.5)
        rng = np.random.default_rng(11)
        train = Dataset(rng.uniform(0, 1, (40, 1)), rng.standard_normal(40))
        probes = rng.uniform(0, 1, (25, 1))
        for alpha in (0.1, 0.2, 0.5):
            lo_fast, up_fast = adversary_jackknife_bounds(train, cfg, alpha, probes)
            lo_gen, up_gen = jackknife_plus_bounds(
                train, probes, adversary_jackknife_algorithm(cfg), alpha
            )
            assert np.array_equal(lo_fast, lo_gen)
            assert np.array_equal(up_fast, up_gen)

    def test_full_bounds_match_grid_within_one_step(self):
        import warnings

        cfg = ClockConfig(M=15, M1=3, y_star=2.0)
        rng = np.random.default_rng(12)
        train = Dataset(rng.uniform(0, 1, (30, 1)), rng.standard_normal(30))
        probes = rng.uniform(0, 1, (4, 1))
        lo, up = adversary_full_bounds(train, cfg, 0.2, probes)
        step = 1e-3
        for t in range(4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ps = full_conformal_grid(
                    train, probes[t], adversary_full_algorithm(cfg), 0.2,
                    grid=GridSpec(lo[t] - 0.3, up[t] + 0.3, step),
                )
            assert abs(ps.intervals[0, 0] - lo[t]) <= step + 1e-9
            assert abs(ps.intervals[-1, 1] - up[t]) <= step + 1e-9


class TestEventRatesMonteCarlo:
    def test_rates_against_theory_small(self):
        n = M = 200
        alpha = 0.5
        M1 = compute_M1(n, M, alpha)
        cfg = ClockConfig(M=M, M1=M1, y_star=gaussian_label_quantile(n))
        rates = event_rates_montecarlo(n, cfg, alpha, trials=600, seed=99)
        se_mod = math.sqrt((M1 / M) * (1 - M1 / M) / 600)
        assert abs(rates.p_mod - M1 / M) <= 4 * se_mod
        assert rates.p_max >= 1 - 1 / n - 3 * math.sqrt(0.005 * 0.995 / 600) - 0.01
        assert rates.p_unif >= 1 - 2 / n - 0.02
        assert rates.p_all <= min(rates.p_mod, rates.p_max, rates.p_unif)

    def test_union_bound_sandwich(self):
        n = M = 150
        alpha = 0.6
        cfg = ClockConfig(
            M=M, M1=compute_M1(n, M, alpha), y_star=gaussian_label_quantile(n)
        )
        r = event_rates_montecarlo(n, cfg, alpha, trials=400, seed=5)
        assert r.p_all >= r.p_mod - (1 - r.p_max) - (1 - r.p_unif) - 1e-12

    def test_requires_enough_trials(self):
        cfg = ClockConfig(M=10, M1=1, y_star=1.0)
        with pytest.raises(ValueError):
            event_rates_montecarlo(50, cfg, 0.5, trials=50, seed=0)

    def test_deterministic_given_seed(self):
        cfg = ClockConfig(M=50, M1=5, y_star=3.0)
        a = event_rates_montecarlo(50, cfg, 0.5, trials=150, seed=3)
        b = event_rates_montecarlo(50, cfg, 0.5, trials=150, seed=3)
        assert a == b and isinstance(a, EventRates)


class TestDkwStatistic:
    def test_single_point(self):
        assert dkw_statistic([0.5]) == pytest.approx(0.5)

    def test_two_zeros(self):
        assert dkw_statistic([0.0, 0.0]) == pytest.approx(2.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(0.0, 1.0, 10_001)
        for _ in range(30):
            u = rng.uniform(0, 1, int(rng.integers(1, 40)))
            exact = dkw_statistic(u)
            brute = np.max(np.abs((u[None, :] < grid[:, None]).sum(1) - u.size * grid))
            assert exact >= brute - 1e-12
            assert exact <= brute + u.size * (grid[1] - grid[0]) + 1e-12

    def test_tail_bound_monte_carlo(self):
        # P(statistic > sqrt(n ln n / 2)) <= 2/n
        rng = np.random.default_rng(31)
        n, trials = 100, 10_000
        threshold = math.sqrt(n * math.log(n) / 2)
        exceed = sum(
            dkw_statistic(rng.uniform(0, 1, n)) > threshold for _ in range(trials)
        )
        assert exceed / trials <= 2 / n

    def test_validation(self):
        with pytest.raises(ValueError):
            dkw_statistic([])
        with pytest.raises(ValueError):
            dkw_statistic([1.2])
