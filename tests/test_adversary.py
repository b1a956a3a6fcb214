import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import (
    Dataset,
    check_events,
    collapse_check,
    compute_M1,
    order_stat_index,
    plus_bounds,
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
    uniform_cell_map,
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

    def test_empty_training_set_rejected(self):
        cfg = ClockConfig(M=10, M1=2, y_star=1.0)
        empty = Dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(ValueError, match="non-empty training set"):
            check_events(empty, cfg, 0.1)

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


# Reference closed forms: one (probes x n) matrix and a row-wise
# np.partition, O(nm) but plain enough to trust. The range order statistics
# in coverkit.adversary must select exactly the same values.


def _reference_full_bounds(
    train: Dataset, config: ClockConfig, alpha: float, probes
) -> tuple[np.ndarray, np.ndarray]:
    """Full-conformal interval endpoints under the clock-full algorithm.

    The clock fit ignores the hypothesized label, and the probe's own cell
    cancels out of the modular sum at the probe itself, so the set at each
    probe is a single interval [c - q, c + q]: c is 2*y_star or 0 depending
    on the training cells alone, and q is the rank-k training residual.
    Returns (lower, upper) arrays over the probe batch.
    """
    M, M1, y_star = config.M, config.M1, config.y_star
    cells = np.asarray(config.cell_map(train.x), dtype=np.int32)
    probe_cells = np.asarray(config.cell_map(np.atleast_2d(probes)), dtype=np.int32)
    n = len(train)
    m = probe_cells.size
    k = order_stat_index(n, alpha)
    if k > n:
        return np.full(m, -np.inf), np.full(m, np.inf)
    total = int(cells.sum())
    center = 2.0 * y_star if total % M < M1 else 0.0
    # mu at training point i when the probe is appended: depends on the
    # probe only through its cell. Rows indexed by probe so the rank
    # selection runs along contiguous memory.
    in_window = np.mod(probe_cells[:, None] - cells[None, :] + total, M) < M1
    mu_train = np.where(in_window, 2.0 * y_star, 0.0)
    abs_resid = np.abs(train.y[None, :] - mu_train)
    radius = np.partition(abs_resid, k - 1, axis=1)[:, k - 1]
    return center - radius, center + radius


def _reference_jackknife_bounds(
    train: Dataset, config: ClockConfig, alpha: float, probes
) -> tuple[np.ndarray, np.ndarray]:
    """Jackknife+ interval endpoints under the clock-jackknife algorithm.

    Leaving point i out shifts the modular sum by -cell(i); at the left-out
    point itself the shift cancels, so every leave-one-out residual is
    |y_i| or |y_i - 2*y_star| according to one shared window test, while
    the prediction at a probe depends on (probe cell - cell(i)).
    """
    M, M1, y_star = config.M, config.M1, config.y_star
    cells = np.asarray(config.cell_map(train.x), dtype=np.int32)
    probe_cells = np.asarray(config.cell_map(np.atleast_2d(probes)), dtype=np.int32)
    if len(train) < 2:
        raise ValueError("jackknife+ needs at least 2 training points")
    total = int(cells.sum())
    own_low = total % M < M1  # mu_{-i}(x_i) = 0 for every i iff this holds
    residuals = np.abs(train.y - (0.0 if own_low else 2.0 * y_star))
    in_window = np.mod(probe_cells[:, None] + total - cells[None, :], M) < M1
    mu_probe = np.where(in_window, 0.0, 2.0 * y_star)
    return plus_bounds(mu_probe, residuals, alpha)


def _one_cell_map(x):
    """Every point in cell 3."""
    return np.full(np.asarray(x).shape[0], 3)


def _squared_cell_map(M):
    def cell(x):
        first = np.asarray(x, dtype=float)[:, 0]
        return np.minimum(np.floor(M * first**2).astype(int), M - 1)

    return cell


def _shifted_cell_map(M):
    """Cells outside 0..M-1 but equal to the uniform ones modulo M."""

    def cell(x):
        return uniform_cell_map(M)(x) - M

    return cell


def _clock_problem(cells, labels, M, M1, probe_cells, alpha, y_star=1.0, cell_map=None):
    """(train, config, alpha, probes) with points at the given cell centres."""
    config = ClockConfig(M=M, M1=M1, y_star=y_star, cell_map=cell_map)
    probes = (np.asarray(probe_cells, dtype=float) + 0.5) / M
    return _dataset_with_cells(cells, M, labels), config, alpha, probes[:, None]


@st.composite
def _clock_problems(draw):
    """Small clock problems: few cells, so cells, probes and labels tie."""
    M = draw(st.integers(2, 12))
    M1 = draw(st.integers(0, M - 1))
    n = draw(st.integers(1, 40))
    y_star = draw(st.sampled_from([0.5, 1.0, 2.5]))
    special = st.sampled_from([0.0, y_star, 2 * y_star, -y_star, -2 * y_star, 1.0, -1.0])
    labels = draw(st.lists(st.one_of(special, st.floats(-5, 5)), min_size=n, max_size=n))
    cells = draw(st.lists(st.integers(0, M - 1), min_size=n, max_size=n))
    probe_cells = draw(st.lists(st.integers(0, M - 1), max_size=10))
    maps = [None, _squared_cell_map(M), _shifted_cell_map(M)]
    maps += [_one_cell_map] if M > 3 else []
    cell_map = draw(st.sampled_from(maps))
    alpha = draw(st.floats(0.01, 0.99))
    return _clock_problem(cells, labels, M, M1, probe_cells, alpha, y_star, cell_map)


def _assert_same_as_reference(problem):
    train, config, alpha, probes = problem
    pairs = [(adversary_full_bounds, _reference_full_bounds)]
    if len(train) >= 2:
        pairs.append((adversary_jackknife_bounds, _reference_jackknife_bounds))
    for fast, reference in pairs:
        lower, upper = fast(train, config, alpha, probes)
        ref_lower, ref_upper = reference(train, config, alpha, probes)
        assert np.array_equal(lower, ref_lower)
        assert np.array_equal(upper, ref_upper)
        # the same bits, down to the sign of a zero endpoint
        assert np.array_equal(np.signbit(lower), np.signbit(ref_lower))
        assert np.array_equal(np.signbit(upper), np.signbit(ref_upper))


class TestClosedFormsAgainstPartitionReference:
    """Range order statistics select exactly what the row partitions did."""

    @settings(max_examples=400, deadline=None)
    @given(_clock_problems())
    @example(  # M1 = 0: no window at all
        _clock_problem([0, 1, 2, 3, 4], [0.3, -1.2, 2.0, 0.0, 1.1], 5, 0, [0, 2, 4], 0.3)
    )
    @example(  # M1 = 4 of 6: windows ending in cells 0-2 wrap past cell 0
        _clock_problem(
            [0, 1, 5, 5, 2, 3, 4], [0.1, -0.4, 1.5, 2.2, -3.0, 0.7, 1.9], 6, 4, range(6), 0.2
        )
    )
    @example(  # several probes in one cell
        _clock_problem([1, 1, 2, 4, 0], [0.5, 1.5, -0.5, 2.5, 0.0], 5, 2, [3, 3, 3, 1, 3], 0.4)
    )
    @example(  # tied |y|, and labels at 0, y_star and 2 y_star
        _clock_problem(
            [0, 1, 2, 3, 4, 5, 6, 7], [0.0, 1.0, 2.0, -1.0, -2.0, 1.0, 2.0, 0.0], 8, 3,
            range(8), 0.25,
        )
    )
    @example(  # rank 4 of 3 overflows
        _clock_problem([0, 1, 2], [0.2, -0.1, 0.4], 4, 1, [0, 3], 0.1)
    )
    @example(  # every point in one cell
        _clock_problem(
            [0, 1, 2, 5, 6], [0.3, 1.3, -2.0, 0.0, 2.0], 7, 2, [0, 3, 6], 0.3,
            cell_map=_one_cell_map,
        )
    )
    @example(  # n = 2, the smallest jackknife+ training set
        _clock_problem([2, 5], [1.0, -0.5], 6, 3, [0, 1, 2, 3, 4, 5], 0.5)
    )
    def test_exact_match(self, problem):
        _assert_same_as_reference(problem)

    def test_exact_match_at_larger_n(self):
        # many bit levels of the selection structure, and wide windows
        rng = np.random.default_rng(21)
        for n, M, M1, alpha in ((1000, 1000, 90, 0.1), (2000, 257, 200, 0.3), (999, 1000, 0, 0.05)):
            labels = np.round(rng.standard_normal(n), 1)  # ties
            problem = _clock_problem(
                rng.integers(0, M, n), labels, M, M1, rng.integers(0, M, 300), alpha, y_star=1.5
            )
            _assert_same_as_reference(problem)


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
