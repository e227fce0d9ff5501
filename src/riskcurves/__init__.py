"""Risk, feature and learning curves for minimum-norm linear classifiers.

The classical linear learners trained by pseudo-inverse least squares show
a characteristic risk peak where the number of features N meets the number
of training points n (equivalently alpha = n/N = 1), with the risk falling
again on both sides.  This package provides:

* ``linalg``  – SVD-backed minimum-norm and ridge least squares,
* ``learners`` – MNLR, PFLD, ridge, semi-supervised PFLD and an exact
  max-margin classifier, with prediction and 0-1 / squared risk,
* ``data``    – a seeded two-Gaussian generator, feature slicing, random
  feature augmentation, stratified splits and CSV loading,
* ``curves``  – the Monte Carlo sweep harness (feature / learning / alpha
  curves) plus peak detection,
* ``oracle``  – independent checks: normal equations, brute-force minimum
  norm, SMO soft-margin optimum, closed-form Gaussian risk,
* ``io_cli``  – JSON config, CSV/JSON/SVG emission and the command line.
"""

from ._version import __version__
from .curves import (
    CurveKind,
    CurvePoint,
    CurveResult,
    LearnerStats,
    PeakReport,
    Provenance,
    SweepSpec,
    alpha_train_size,
    detect_peak,
    interpolation_threshold,
    mix,
    run_alpha_curve,
    run_feature_curve,
    run_learning_curve,
    run_sweep,
)
from .data import (
    ColumnTransform,
    CsvSource,
    Dataset,
    GaussianSpec,
    append_random_features,
    gen_two_gaussians,
    load_csv,
    split,
    standardize,
    subsample,
    take_features,
)
from .learners import (
    LinearModel,
    MaxMargin,
    Mnlr,
    Pfld,
    Ridge,
    SemiSupPfld,
    decision_values,
    fit,
    fit_max_margin,
    fit_mnlr,
    fit_pfld,
    fit_ridge,
    fit_semisup_pfld,
    hinge_objective,
    predict,
    squared_risk,
    zero_one_risk,
)
from .linalg import (
    DEFAULT_REL_TOL,
    SvdFactorization,
    min_norm_least_squares,
    numeric_rank,
    ridge_least_squares,
    thin_svd,
)
from .oracle import (
    analytic_gaussian_risk,
    bayes_risk,
    min_norm_bruteforce,
    normal_equation_solve,
    smo_max_margin,
    std_normal_cdf,
)

__all__ = [
    "__version__",
    "CurveKind", "CurvePoint", "CurveResult", "LearnerStats", "PeakReport",
    "Provenance", "SweepSpec", "alpha_train_size", "detect_peak",
    "interpolation_threshold", "mix", "run_alpha_curve", "run_feature_curve",
    "run_learning_curve", "run_sweep",
    "ColumnTransform", "CsvSource", "Dataset", "GaussianSpec",
    "append_random_features", "gen_two_gaussians", "load_csv", "split",
    "standardize", "subsample", "take_features",
    "LinearModel", "MaxMargin", "Mnlr", "Pfld", "Ridge", "SemiSupPfld",
    "decision_values", "fit", "fit_max_margin", "fit_mnlr", "fit_pfld",
    "fit_ridge", "fit_semisup_pfld", "hinge_objective", "predict",
    "squared_risk", "zero_one_risk",
    "DEFAULT_REL_TOL", "SvdFactorization", "min_norm_least_squares",
    "numeric_rank", "ridge_least_squares", "thin_svd",
    "analytic_gaussian_risk", "bayes_risk", "min_norm_bruteforce",
    "normal_equation_solve", "smo_max_margin", "std_normal_cdf",
]
