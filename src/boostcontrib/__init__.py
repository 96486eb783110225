"""Gradient-boosted regression trees whose predictions decompose exactly
into a bias plus per-feature contributions.

Every prediction of the ensemble satisfies, bit-for-bit reproducibly,

    prediction == bias + sum(contributions[feature] for each feature)

up to float associativity, because each tree's prediction telescopes along
its decision path: every traversed edge contributes (child mean - parent
mean), credited to the feature the parent split on. See
:mod:`boostcontrib.contrib` for the decomposition,
:mod:`boostcontrib.oracle` for independent brute-force checkers, and
:mod:`boostcontrib.experiments` for the correlation/noise/outlier studies.
"""

from .boosting import (
    MODEL_FORMAT_VERSION,
    Ensemble,
    GbdtParams,
    ModelFormatError,
    feature_importance,
    fit_gbdt,
    gbdt_predict,
    load_model,
    node_split_gain,
    predict_batch,
    save_model,
)
from .cart import (
    CartParams,
    Tree,
    best_split,
    decision_path,
    fit_cart,
    tree_predict,
)
from .contrib import (
    DecisionRecord,
    DecisionSpace,
    Explanation,
    batch_explain,
    decision_contributions,
    decision_space,
    feature_contributions,
    iter_decision_contributions,
    iter_decision_spaces,
)
from .data import (
    DataError,
    Dataset,
    OutlierSample,
    add_correlated_feature,
    add_gaussian_noise,
    load_csv,
    make_outlier,
    train_test_split,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    run_correlation_experiment,
    run_noise_experiment,
    run_outlier_experiment,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "MODEL_FORMAT_VERSION",
    "CartParams",
    "DataError",
    "Dataset",
    "DecisionRecord",
    "DecisionSpace",
    "Ensemble",
    "ExperimentConfig",
    "ExperimentReport",
    "Explanation",
    "GbdtParams",
    "ModelFormatError",
    "OutlierSample",
    "Tree",
    "add_correlated_feature",
    "add_gaussian_noise",
    "batch_explain",
    "best_split",
    "decision_contributions",
    "decision_path",
    "decision_space",
    "feature_contributions",
    "feature_importance",
    "fit_cart",
    "fit_gbdt",
    "gbdt_predict",
    "iter_decision_contributions",
    "iter_decision_spaces",
    "load_csv",
    "load_model",
    "make_outlier",
    "node_split_gain",
    "predict_batch",
    "run_correlation_experiment",
    "run_noise_experiment",
    "run_outlier_experiment",
    "save_model",
    "train_test_split",
    "tree_predict",
    "write_report",
]
