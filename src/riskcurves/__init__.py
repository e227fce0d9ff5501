"""Risk, feature and learning curves for minimum-norm linear classifiers.

The classical linear learners trained by pseudo-inverse least squares show
a characteristic risk peak where the number of features N meets the number
of training points n (equivalently alpha = n/N = 1), with the risk falling
again on both sides.  This package provides:

* ``linalg``  – thin SVD, numeric rank and minimum-norm least squares,
* ``learners`` – the specs of MNLR, PFLD, ridge, semi-supervised PFLD and
  exact max-margin learners, ``fit``, prediction and 0-1 / squared risk,
* ``data``    – the data-source specs, a seeded two-Gaussian generator,
  random feature augmentation, CSV loading and a train-fitted column
  transform,
* ``curves``  – the Monte Carlo sweep harness (feature / learning / alpha
  curves) plus peak detection,
* ``io_cli``  – JSON config, CSV/JSON/SVG emission and the command line.

Every public name is importable from the package itself.  numpy loads on
the first numeric call: importing the package, building specs, validating
a config and ``riskcurves report`` never load it.
"""

from ._version import __version__

# Public name -> defining submodule, imported on the name's first use (PEP 562).
_EXPORTS = {
    "curves": (
        "CurveKind", "CurvePoint", "CurveResult", "LearnerStats", "PeakReport",
        "Provenance", "SweepSpec", "alpha_train_size", "detect_peak",
        "interpolation_threshold", "mix", "run_alpha_curve", "run_feature_curve",
        "run_learning_curve", "run_sweep", "square_system_threshold",
    ),
    "data": (
        "ColumnTransform", "CsvSource", "Dataset", "GaussianSpec", "SOURCES",
        "append_random_features", "gen_two_gaussians", "load_csv",
        "split_indices", "subsample_indices",
    ),
    "learners": (
        "LEARNERS", "LinearModel", "MaxMargin", "Mnlr", "Pfld", "Ridge", "SemiSupPfld",
        "decision_values", "fit", "hinge_objective", "predict", "squared_risk",
        "zero_one_risk",
    ),
    "linalg": (
        "DEFAULT_REL_TOL", "SvdFactorization", "min_norm_least_squares",
        "numeric_rank", "thin_svd",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
