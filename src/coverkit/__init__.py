"""Distribution-free prediction intervals and their training-conditional
coverage: split/full conformal, jackknife+, cv+, PAC bound calculators,
coverage-collapse counterexamples, and a reproducible simulation harness.
"""

__version__ = "0.7.2"

from .adversary import (
    EventReport,
    EventRates,
    check_events,
    collapse_check,
    compute_M1,
    gaussian_label_quantile,
    event_rates_montecarlo,
)
from .bounds import (
    AdversarialFloor,
    adversarial_floor,
    corrected_alpha_split,
    cvplus_pac_bound,
    split_pac_bound,
)
from .conformal import (
    GridSpec,
    PredictionSetBatch,
    SplitConformal,
    cv_plus,
    cv_plus_bounds,
    default_grid,
    full_conformal_grid,
    full_conformal_ridge_exact,
    full_conformal_ridge_sets,
    jackknife_plus,
    jackknife_plus_bounds,
    split_conformal,
)
from .core import (
    Dataset,
    FittedModel,
    FoldPartition,
    PredictionSet,
    RegressionAlgorithm,
    kth_smallest,
    make_folds,
    order_stat_index,
    plus_bounds,
)
from .experiments import (
    ExperimentConfig,
    MethodSummary,
    SummaryReport,
    TrialRecord,
    generate_linear_gaussian,
    run_trials,
    summarize,
    write_summary_csv,
    write_summary_json,
    write_trials_csv,
)
from .regressors import (
    ClockConfig,
    RidgeConfig,
    adversary_full_algorithm,
    adversary_full_fit,
    adversary_jackknife_algorithm,
    adversary_jackknife_fit,
    constant_algorithm,
    constant_fit,
    ridge_algorithm,
    ridge_fit,
    uniform_cell_map,
)
