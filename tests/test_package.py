"""The package's public names, which it resolves from its submodules on first use."""

import importlib
import inspect
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import riskcurves
from riskcurves import (
    Dataset,
    GaussianSpec,
    LinearModel,
    Mnlr,
    SweepSpec,
    alpha_train_size,
    append_random_features,
    gen_two_gaussians,
    hinge_objective,
    min_norm_least_squares,
    numeric_rank,
    run_sweep,
)
from riskcurves._schema import _check

SUBMODULES = ("_version", "curves", "data", "learners", "linalg")


def test_every_public_name_is_its_defining_modules_object():
    modules = [importlib.import_module(f"riskcurves.{m}") for m in SUBMODULES]
    for name in riskcurves.__all__:
        value = getattr(riskcurves, name)
        holders = [m for m in modules if hasattr(m, name)]
        assert holders, name
        assert all(getattr(m, name) is value for m in holders), name
        home = getattr(value, "__module__", None)
        if home and home.startswith("riskcurves."):  # classes and functions name their module
            assert getattr(importlib.import_module(home), name) is value, name


def test_dir_lists_the_public_names():
    assert set(riskcurves.__all__) <= set(dir(riskcurves))


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from riskcurves import *", namespace)
    for name in riskcurves.__all__:
        assert namespace[name] is getattr(riskcurves, name), name


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'riskcurves' has no attribute 'no_such_name'"):
        riskcurves.no_such_name  # noqa: B018


def test_every_public_class_and_function_has_a_docstring_of_its_own():
    for name in riskcurves.__all__:
        value = getattr(riskcurves, name)
        if inspect.isclass(value):
            doc, inherited = vars(value).get("__doc__"), {base.__doc__ for base in value.__mro__[1:]}
        elif inspect.isfunction(value):
            doc, inherited = value.__doc__, set()
        else:
            continue
        assert doc and doc.strip() and doc not in inherited, name  # an Enum inherits one
        assert not doc.startswith(f"{name}("), name  # the signature a dataclass generates


_SWEEP = SweepSpec(
    kind="feature_curve", grid=(2,), fixed_n=4, test_size=2, reps=1, learners=(Mnlr(),),
    data_source=GaussianSpec(dim=2, informative=1),
)
_DATA = Dataset(x=[[1.0], [-1.0]], y=[1, -1])

# Every numeric argument of an exported function: a call with the value, then
# the argument's name, type and lower bound under the config's number rule.
_NUMERIC_ARGUMENTS = {
    "numeric_rank-rel_tol": (lambda v: numeric_rank(np.ones(1), v), "rel_tol", float, ">", 0),
    "min_norm-rel_tol": (lambda v: min_norm_least_squares(np.eye(2), np.ones(2), v), "rel_tol", float, ">", 0),
    "run_sweep-workers": (lambda v: run_sweep(_SWEEP, workers=v), "workers", int, ">=", 1),
    "hinge_objective-c": (
        lambda v: hinge_objective(LinearModel(np.zeros(1), 0.0), _DATA.x, _DATA.y, v), "c", float, ">", 0
    ),
    "gen_two_gaussians-n": (lambda v: gen_two_gaussians(GaussianSpec(), v), "n", int, ">=", 1),
    "append_random_features-k": (lambda v: append_random_features(_DATA, v, 1.0, 0), "k", int, ">=", 1),
    "append_random_features-sigma": (lambda v: append_random_features(_DATA, 1, v, 0), "sigma", float, ">", 0),
    "alpha_train_size-alpha": (lambda v: alpha_train_size(v, 40), "alpha", float, ">", 0),
    "alpha_train_size-fixed_N": (lambda v: alpha_train_size(1.0, v), "fixed_N", int, ">=", 1),
    "LinearModel-bias": (lambda v: LinearModel(np.zeros(2), v), "bias", float, None, None),
}


@pytest.mark.parametrize(
    "value", [True, 2.5, math.nan, math.inf, 0, -1, 10**400], ids=["True", "2.5", "nan", "inf", "0", "-1", "10**400"]
)
@pytest.mark.parametrize("argument", _NUMERIC_ARGUMENTS)
def test_every_numeric_argument_follows_the_config_number_rule(argument, value):
    call, name, typ, op, low = _NUMERIC_ARGUMENTS[argument]
    try:
        _check(value, typ, name, ValueError, op, low)
    except ValueError as rejected:
        with pytest.raises(ValueError, match=f"^{re.escape(str(rejected))}$"):
            call(value)
    else:  # 2.5 for a float, or an unbounded bias of 0 or -1
        call(value)


def test_linalg_loads_no_higher_layer_and_the_schema_no_numpy():
    code = (
        "import sys\n"
        "import riskcurves._schema\n"
        "print('numpy' in sys.modules)\n"
        "import riskcurves.linalg\n"
        "print(sorted(m for m in ('learners', 'curves', 'data', 'io_cli') if f'riskcurves.{m}' in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(riskcurves.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "[]"]
