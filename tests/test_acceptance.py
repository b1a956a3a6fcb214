"""End-to-end acceptance criteria.

Every test here runs a complete scenario at a pinned seed and asserts the
stated tolerance, printing one `ACCEPTANCE k ... PASS/FAIL` line (visible
with `pytest -s`, captured otherwise). The heavy scenarios (the clock
demonstrations at n=5000 and the full-scale ridge simulation) are shared
module fixtures; on a 2-vCPU machine with one BLAS thread per process the
ridge simulation (`paper_records`, 800 trials on two workers) takes about
70 s and the clock fixture about 60 s.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from coverkit import (
    Dataset,
    RidgeConfig,
    collapse_check,
    compute_M1,
    constant_algorithm,
    cv_plus,
    full_conformal_grid,
    full_conformal_ridge_exact,
    jackknife_plus,
    make_folds,
    ridge_algorithm,
    split_conformal,
)
from coverkit.bounds import cvplus_pac_bound, split_pac_bound
from coverkit.conformal import GridSpec, oracle_pvalue
from coverkit.core import derive_rng
from coverkit.experiments import (
    ADVERSARY_FULL,
    ADVERSARY_JK,
    METHOD_CV,
    METHOD_FULL,
    METHOD_JACKKNIFE,
    METHOD_SPLIT,
    ExperimentConfig,
    _RidgeTrialEngine,
    adversary_training_set,
    run_trials,
)

MASTER_SEED = 20240601


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {detail} -> {status}")
    return ok


def _binomial_se(p, n):
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


# -- shared heavy scenarios --------------------------------------------------


@pytest.fixture(scope="module")
def adversary_records():
    """500 clock trials at n = M = 5000 for each of the two target methods."""
    out = {}
    for mode in (ADVERSARY_FULL, ADVERSARY_JK):
        config = ExperimentConfig(
            n=5000, n_test=1000, d=1, alpha=0.1, trials=500,
            master_seed=MASTER_SEED, mode=mode,
        )
        out[mode] = (config, run_trials(config, workers=2))
    return out


@pytest.fixture(scope="module")
def paper_records():
    """The full simulation: 200 trials x 4 methods x d in {125,250,500,1000}."""
    by_dim = {}
    for d in (125, 250, 500, 1000):
        config = ExperimentConfig(
            n=500, n_test=1000, d=d, alpha=0.1, trials=200,
            master_seed=MASTER_SEED, cv_folds=20,
        )
        by_dim[d] = run_trials(config, workers=2)
    return by_dim


def _alpha_hats(records, method):
    return np.array([r.alpha_hat for r in records if r.method == method])


# -- criterion 1 -------------------------------------------------------------


def test_criterion_01_split_marginal_sandwich():
    """Split conformal coverage lands in [1-alpha, 1-alpha + 1/(n1+1)]."""
    n0 = n1 = 25
    d, alpha, trials = 5, 0.1, 10_000
    algo = ridge_algorithm(RidgeConfig(1e-4))
    t0 = time.monotonic()
    covered = 0
    for t in range(trials):
        rng = derive_rng(101, t)
        beta = rng.standard_normal(d)
        x = rng.standard_normal((n0 + n1 + 1, d))
        y = x @ beta + rng.standard_normal(n0 + n1 + 1)
        result = split_conformal(
            Dataset(x[:n0], y[:n0]), Dataset(x[n0:-1], y[n0:-1]), algo, alpha
        )
        covered += abs(y[-1] - float(result.model(x[-1]))) <= result.radius
    elapsed = time.monotonic() - t0
    coverage = covered / trials
    lo, hi = 1 - alpha - 0.01, 1 - alpha + 1 / (n1 + 1) + 0.01
    ok = lo <= coverage <= hi and elapsed < 60.0
    assert _report(
        1, "split marginal sandwich",
        ok, f"coverage={coverage:.4f} in [{lo:.4f}, {hi:.4f}], {elapsed:.1f}s",
    )


# -- criterion 2 -------------------------------------------------------------


def test_criterion_02_split_pac_bound():
    """Miscoverage exceeds the high-probability bound in <= delta of trials."""
    n0, n1, d = 100, 100, 20
    alpha, delta, trials, n_test = 0.1, 0.1, 1000, 2000
    bound = split_pac_bound(alpha, delta, n1)
    algo = ridge_algorithm(RidgeConfig(1e-4))
    exceed = 0
    for t in range(trials):
        rng = derive_rng(202, t)
        beta = rng.standard_normal(d)
        beta *= math.sqrt(10) / np.linalg.norm(beta)
        x = rng.standard_normal((n0 + n1 + n_test, d))
        y = x @ beta + rng.standard_normal(x.shape[0])
        result = split_conformal(
            Dataset(x[:n0], y[:n0]), Dataset(x[n0 : n0 + n1], y[n0 : n0 + n1]),
            algo, alpha,
        )
        residuals = np.abs(y[n0 + n1 :] - result.model(x[n0 + n1 :]))
        exceed += float(np.mean(residuals > result.radius)) > bound
    frac = exceed / trials
    limit = delta + 3 * _binomial_se(delta, trials)
    ok = frac <= limit
    assert _report(
        2, "split PAC bound",
        ok, f"P(alpha_hat > {bound:.4f}) = {frac:.4f} <= {limit:.4f}",
    )


# -- criterion 3 -------------------------------------------------------------


def test_criterion_03_cvplus_pac_bound():
    """CV+ miscoverage exceeds its (loose) bound in <= delta of trials."""
    K, m, d = 5, 50, 20
    n = K * m
    alpha, delta, trials, n_test = 0.1, 0.1, 500, 500
    bound = cvplus_pac_bound(alpha, delta, K, m)
    exceed = 0
    for t in range(trials):
        rng = derive_rng(303, t)
        beta = rng.standard_normal(d)
        beta *= math.sqrt(10) / np.linalg.norm(beta)
        x = rng.standard_normal((n + n_test, d))
        y = x @ beta + rng.standard_normal(n + n_test)
        engine = _RidgeTrialEngine(
            Dataset(x[:n], y[:n]), Dataset(x[n:], y[n:]), 1e-4, alpha
        )
        folds = make_folds(n, K, int(derive_rng(303, t, 1).integers(2**31)))
        miss, _ = engine.cv(folds)
        exceed += miss > bound
    frac = exceed / trials
    limit = delta + 3 * _binomial_se(delta, trials)
    ok = frac <= limit
    assert _report(
        3, "cv+ PAC bound",
        ok, f"P(alpha_hat > {bound:.4f}) = {frac:.4f} <= {limit:.4f} (expected ~0)",
    )


# -- criteria 4 and 6 (share the n=5000 clock runs) ---------------------------


def test_criterion_04_deterministic_collapse(adversary_records):
    """On every event trial, sets at 1000 fresh probes sit above y_star."""
    config, records = adversary_records[ADVERSARY_JK]
    clock = config.clock_config()
    event_trials = [r.trial for r in records if r.events.all_three]
    violations = 0
    for t in event_trials:
        train = adversary_training_set(config, t)
        probes = derive_rng(config.master_seed, t, 3).uniform(0, 1, (1000, 1))
        for method in ("full", "jk"):
            if not collapse_check(train, clock, config.alpha, method, probes):
                violations += 1
    ok = violations == 0 and len(event_trials) > 0
    assert _report(
        4, "deterministic collapse",
        ok,
        f"{len(event_trials)} event trials x 2 methods x 1000 probes, "
        f"{violations} violations",
    )


def test_criterion_06_collapse_frequency(adversary_records):
    """P(alpha_hat >= 0.99) is >= 0.02 and within 3 SE of M1/M for both methods."""
    target = compute_M1(5000, 5000, 0.1) / 5000  # = 206/5000 = 0.0412
    details = []
    ok = True
    for mode in (ADVERSARY_FULL, ADVERSARY_JK):
        config, records = adversary_records[mode]
        frac = float(np.mean([r.alpha_hat >= 0.99 for r in records]))
        band = 3 * _binomial_se(target, len(records))
        good = frac >= 0.02 and abs(frac - target) <= band
        ok = ok and good
        details.append(f"{mode}: {frac:.4f} (target {target:.4f} +/- {band:.4f})")
    assert _report(6, "collapse frequency vs M1/M", ok, "; ".join(details))


# -- criterion 5 -------------------------------------------------------------


def test_criterion_05_event_rates():
    """Event frequencies at n = M = 2000 match the three stated rates."""
    from coverkit.adversary import gaussian_label_quantile, event_rates_montecarlo
    from coverkit.regressors import ClockConfig

    n = M = 2000
    alpha, trials = 0.1, 2000
    M1 = compute_M1(n, M, alpha)
    clock = ClockConfig(M=M, M1=M1, y_star=gaussian_label_quantile(n))
    rates = event_rates_montecarlo(n, clock, alpha, trials=trials, seed=505)
    target_mod = M1 / M
    band_mod = 3 * _binomial_se(target_mod, trials)
    ok_mod = abs(rates.p_mod - target_mod) <= band_mod
    ok_max = rates.p_max >= 1 - 1 / n - 3 * _binomial_se(1 - 1 / n, trials)
    ok_unif = rates.p_unif >= 1 - 2 / n - 3 * _binomial_se(1 - 2 / n, trials)
    ok = ok_mod and ok_max and ok_unif
    assert _report(
        5, "event rates",
        ok,
        f"p_mod={rates.p_mod:.4f} (target {target_mod:.4f} +/- {band_mod:.4f}), "
        f"p_max={rates.p_max:.4f} (>= {1 - 1/n - 3*_binomial_se(1 - 1/n, trials):.4f}), "
        f"p_unif={rates.p_unif:.4f} (>= {1 - 2/n - 3*_binomial_se(1 - 2/n, trials):.4f})",
    )


# -- criterion 7 (shares the full-scale run) ----------------------------------


def test_criterion_07a_split_never_far_above_alpha(paper_records):
    """Max split miscoverage stays below alpha plus the delta=1/200 slack."""
    slack = split_pac_bound(0.1, 1 / 200, 250) - 0.1
    limit = 0.1 + slack
    worst = {
        d: float(_alpha_hats(recs, METHOD_SPLIT).max())
        for d, recs in paper_records.items()
    }
    ok = all(v <= limit for v in worst.values())
    assert _report(
        7, "a: split max over trials",
        ok, f"max alpha_hat by d {worst} all <= {limit:.4f}",
    )


def test_criterion_07b_cvplus_conservative_when_unstable(paper_records):
    """CV+ at d=500 is highly conservative: median miscoverage < 0.05."""
    med = float(np.median(_alpha_hats(paper_records[500], METHOD_CV)))
    ok = med < 0.05
    assert _report(7, "b: cv+ median at d=500", ok, f"median={med:.4f} < 0.05")


def test_criterion_07c_instability_fattens_the_tail(paper_records):
    """jackknife+/full at d=500 land far above nominal on a large fraction.

    Thresholds frozen from this implementation's first pinned-seed run: at
    least 15% of trials with alpha_hat > 0.15 for each method, and the
    d=500 tail fraction must dominate every stable dimension's by >= 0.05.
    """
    ok = True
    details = []
    for method in (METHOD_JACKKNIFE, METHOD_FULL):
        tail_unstable = float(np.mean(_alpha_hats(paper_records[500], method) > 0.15))
        tail_stable = max(
            float(np.mean(_alpha_hats(paper_records[d], method) > 0.15))
            for d in (125, 250, 1000)
        )
        good = tail_unstable >= 0.15 and tail_unstable >= tail_stable + 0.05
        ok = ok and good
        details.append(
            f"{method}: P(>0.15)@d500={tail_unstable:.3f} "
            f"(>=0.15, stable max {tail_stable:.3f})"
        )
    assert _report(7, "c: heavy tail at d=500", ok, "; ".join(details))


def test_criterion_07d_concentration_at_stable_dims(paper_records):
    """jackknife+/full medians sit within 0.03 of alpha away from d=500."""
    ok = True
    details = []
    for method in (METHOD_JACKKNIFE, METHOD_FULL):
        for d in (125, 250, 1000):
            med = float(np.median(_alpha_hats(paper_records[d], method)))
            good = abs(med - 0.1) <= 0.03
            ok = ok and good
            details.append(f"{method}@d{d}={med:.3f}")
    assert _report(7, "d: medians near alpha", ok, ", ".join(details))


# -- criterion 8 -------------------------------------------------------------


def test_criterion_08_exact_vs_grid_full_conformal():
    """Exact-path and grid-path sets agree within one grid step, 50/50."""
    step = 1e-3
    penalty, alpha = 1e-4, 0.1
    agreements = 0
    for i in range(50):
        rng = derive_rng(808, i)
        n, d = 30, 5
        x = rng.standard_normal((n, d))
        beta = rng.standard_normal(d) / math.sqrt(d)
        y = x @ beta + rng.standard_normal(n)
        train = Dataset(x, y)
        x_new = rng.standard_normal(d)
        exact = full_conformal_ridge_exact(train, x_new, RidgeConfig(penalty), alpha)
        grid_spec = GridSpec(
            exact.intervals[0, 0] - 0.25, exact.intervals[-1, 1] + 0.25, step
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gridded = full_conformal_grid(
                train, x_new, ridge_algorithm(RidgeConfig(penalty)), alpha,
                grid=grid_spec,
            )
        # membership may differ only within one step of an exact boundary
        points = grid_spec.values()
        mismatch = exact.contains(points) != gridded.contains(points)
        boundaries = exact.intervals.ravel()
        near_boundary = (
            np.abs(points[:, None] - boundaries[None, :]).min(axis=1) <= step + 1e-9
        )
        clean = not np.any(mismatch & ~near_boundary)
        # and every exact boundary must be matched by a grid boundary
        grid_bounds = gridded.intervals.ravel()
        matched = all(
            np.min(np.abs(grid_bounds - b)) <= step + 1e-9 for b in boundaries
        )
        agreements += clean and matched
    ok = agreements == 50
    assert _report(
        8, "exact vs grid full conformal", ok, f"{agreements}/50 instances agree"
    )


# -- criterion 9 -------------------------------------------------------------


def test_criterion_09_cvplus_jackknife_coincide_at_K_equals_n():
    """Singleton folds make cv+ identical to jackknife+, to 1e-12."""
    n, d, alpha = 12, 4, 0.2
    worst = 0.0
    for i in range(100):
        rng = derive_rng(909, i)
        x = rng.standard_normal((n, d))
        y = x @ rng.standard_normal(d) + rng.standard_normal(n)
        train = Dataset(x, y)
        x_new = rng.standard_normal(d)
        folds = make_folds(n, n, seed=i)
        for algo in (ridge_algorithm(RidgeConfig(1e-3)), constant_algorithm(0.0)):
            jk = jackknife_plus(train, x_new, algo, alpha)
            cv = cv_plus(train, x_new, algo, alpha, folds)
            assert jk.intervals.shape == cv.intervals.shape
            if jk.intervals.size:
                worst = max(worst, float(np.max(np.abs(jk.intervals - cv.intervals))))
    ok = worst <= 1e-12
    assert _report(
        9, "cv+ = jackknife+ at K=n", ok, f"max endpoint gap {worst:.2e} <= 1e-12"
    )


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_pvalue_validity_and_dkw_tail():
    """Population p-values are superuniform; the empirical-gap tail obeys DKW.

    The fitted model is linear and the data Gaussian, so the population
    p-value has the closed form 2*Phi(-t/sigma) with
    sigma^2 = 1 + ||beta - beta_hat||^2: an exact oracle, used both for the
    superuniformity check and as the p* in the sup over the holdout gap.
    """
    rng = derive_rng(1010, 0)
    n, d = 100, 10
    beta = rng.standard_normal(d)
    beta *= math.sqrt(10) / np.linalg.norm(beta)
    x = rng.standard_normal((n, d))
    y = x @ beta + rng.standard_normal(n)
    model = ridge_algorithm(RidgeConfig(1e-4)).fit(Dataset(x, y))
    beta_hat = np.array([float(model(e)) for e in np.eye(d)])
    sigma = math.sqrt(1.0 + float(np.sum((beta - beta_hat) ** 2)))

    def pop_pvalue(t):
        return 2.0 * norm.cdf(-np.asarray(t) / sigma)

    # the Monte Carlo estimator agrees with the closed form
    ox = rng.standard_normal((200_000, d))
    oracle = Dataset(ox, ox @ beta + rng.standard_normal(200_000))
    for y_query in (0.0, 2.0, 5.0):
        estimate = oracle_pvalue(model, oracle, np.zeros(d), y_query)
        exact = float(pop_pvalue(abs(y_query - float(model(np.zeros(d))))))
        assert abs(estimate - exact) < 0.004

    # superuniformity at 1e5 fresh points
    fx = rng.standard_normal((100_000, d))
    fy = fx @ beta + rng.standard_normal(100_000)
    pvals = pop_pvalue(np.abs(fy - model(fx)))
    grid = np.arange(0.05, 0.951, 0.05)
    excess = max(float(np.mean(pvals <= a)) - a for a in grid)
    ok_uniform = excess <= 0.005

    # DKW tail: sup_t (p*(t) - p_hat_A(t)) over 2000 fresh 200-point holdouts
    m, draws, delta = 200, 2000, 0.1
    hx = rng.standard_normal((draws, m, d))
    hy = np.einsum("tmd,d->tm", hx, beta) + rng.standard_normal((draws, m))
    residuals = np.sort(np.abs(hy - np.einsum("tmd,d->tm", hx, beta_hat)), axis=1)
    # just right of the j-th jump: p_hat drops to (#strictly greater)/m
    strictly_greater = (m - 1 - np.arange(m)) / m
    sups = np.max(pop_pvalue(residuals) - strictly_greater[None, :], axis=1)
    exceed = float(np.mean(sups > delta))
    bound = math.exp(-2 * m * delta**2)
    limit = bound + 3 * _binomial_se(bound, draws)
    ok_dkw = exceed <= limit
    ok = ok_uniform and ok_dkw
    assert _report(
        10, "p-value validity + DKW tail",
        ok,
        f"max superuniformity excess {excess:.4f} <= 0.005; "
        f"P(sup gap > {delta}) = {exceed:.4f} <= {limit:.4f}",
    )
