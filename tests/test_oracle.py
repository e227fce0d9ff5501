import importlib.util
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import (
    InconsistentSystem,
    SingularSystem,
    analytic_gaussian_risk,
    bayes_risk,
    min_norm_bruteforce,
    normal_equation_solve,
    std_normal_cdf,
)

from riskcurves.errors import DimensionMismatch
from riskcurves.learners import LinearModel, MaxMargin, fit, hinge_objective, predict, zero_one_risk
from riskcurves.linalg import min_norm_least_squares

# The benchmark's certified soft-margin reference, loaded by path as it is not a package.
_REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "reference.py")
_spec = importlib.util.spec_from_file_location("soft_margin_reference", _REFERENCE)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

PHI_MINUS_ONE = 0.15865525393145707  # standard normal CDF at -1


def test_std_normal_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(-1.0) - PHI_MINUS_ONE) < 1e-14
    assert abs(std_normal_cdf(1.0) + std_normal_cdf(-1.0) - 1.0) < 1e-14


def test_normal_equation_identity():
    assert_allclose(normal_equation_solve(np.eye(2), [3.0, 4.0]), [3.0, 4.0], atol=1e-12)


def test_normal_equation_overdetermined_mean():
    assert_allclose(normal_equation_solve([[1.0], [1.0]], [1.0, 3.0]), [2.0], atol=1e-12)


def test_normal_equation_cross_checks_min_norm():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    assert np.max(
        np.abs(normal_equation_solve(a, b) - min_norm_least_squares(a, b))
    ) <= 1e-8


def test_normal_equation_singular_guard():
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(SingularSystem):
        normal_equation_solve(a, [1.0, 2.0, 3.0])


def test_bruteforce_known_optimum():
    a = np.array([[1.0, 1.0]])
    b = np.array([2.0])
    coarse = np.linalg.norm(min_norm_bruteforce(a, b, 31))
    fine = np.linalg.norm(min_norm_bruteforce(a, b, 301))
    target = np.sqrt(2.0)
    assert coarse >= target - 1e-12
    assert fine >= target - 1e-12
    assert fine - target <= coarse - target + 1e-12
    assert fine - target <= 6.0 / 300.0


def test_bruteforce_square_invertible():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    exact = np.linalg.solve(a, b)
    for candidates in (5, 50):
        assert_allclose(min_norm_bruteforce(a, b, candidates), exact, atol=1e-10)


def test_bruteforce_agrees_with_pseudo_inverse():
    rng = np.random.default_rng(31)
    done = 0
    while done < 10:
        rows = rng.integers(1, 4)
        cols = rng.integers(rows + 1, 6)
        a = rng.standard_normal((rows, cols))
        b = a @ rng.uniform(-1.0, 1.0, size=cols)
        candidates = 121
        try:
            bf = min_norm_bruteforce(a, b, candidates)
        except InconsistentSystem:
            continue
        w = min_norm_least_squares(a, b)
        step = 6.0 / (candidates - 1)
        # orthonormal null basis makes the grid argmin separable, so the
        # best grid point sits within half a step per axis of the optimum
        if np.linalg.norm(bf - w) <= step:
            done += 1
        else:
            pytest.fail(f"brute force {np.linalg.norm(bf - w):.3g} beyond one grid step {step:.3g}")


def test_bruteforce_inconsistent():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InconsistentSystem):
        min_norm_bruteforce(a, np.array([0.0, 1.0]), 11)


def test_bruteforce_size_guard():
    with pytest.raises(ValueError):
        min_norm_bruteforce(np.zeros((5, 3)), np.zeros(5), 11)
    with pytest.raises(ValueError):
        min_norm_bruteforce(np.zeros((2, 7)), np.zeros(2), 11)


def test_analytic_risk_aligned_with_mean():
    mu = np.array([1.0, 0.0, 0.0])
    model = LinearModel(weights=3.0 * mu, bias=0.0)
    assert abs(analytic_gaussian_risk(model, mu) - PHI_MINUS_ONE) < 1e-12


def test_analytic_risk_orthogonal_weights():
    model = LinearModel(weights=np.array([0.0, 1.0]), bias=0.0)
    assert analytic_gaussian_risk(model, np.array([1.0, 0.0])) == 0.5


def test_analytic_risk_zero_mean_or_weights():
    model = LinearModel(weights=np.array([1.0, -2.0]), bias=0.3)
    assert analytic_gaussian_risk(model, np.zeros(2)) == 0.5
    zero = LinearModel(weights=np.zeros(2), bias=1.0)
    assert analytic_gaussian_risk(zero, np.array([1.0, 0.5])) == 0.5


def test_analytic_risk_scale_invariance():
    rng = np.random.default_rng(17)
    mu = rng.standard_normal(4)
    w = rng.standard_normal(4)
    model = LinearModel(weights=w, bias=0.7)
    base = analytic_gaussian_risk(model, mu)
    for gamma in (0.5, 2.0, 4.0, 2.0**20):  # exact for powers of two
        scaled = LinearModel(weights=gamma * w, bias=gamma * 0.7)
        assert analytic_gaussian_risk(scaled, mu) == base
    for gamma in (0.03, 7.7, 123.456):
        scaled = LinearModel(weights=gamma * w, bias=gamma * 0.7)
        assert abs(analytic_gaussian_risk(scaled, mu) - base) < 1e-12


def test_analytic_risk_dimension_mismatch():
    model = LinearModel(weights=np.ones(3), bias=0.0)
    with pytest.raises(DimensionMismatch):
        analytic_gaussian_risk(model, np.ones(2))


def test_analytic_risk_monte_carlo_consistency():
    rng = np.random.default_rng(101)
    mu = np.array([0.8, 0.3, 0.0, -0.2])
    model = LinearModel(weights=rng.standard_normal(4), bias=0.2)
    p = analytic_gaussian_risk(model, mu)
    n = 100_000
    half = n // 2
    x = np.vstack(
        [rng.standard_normal((half, 4)) + mu, rng.standard_normal((half, 4)) - mu]
    )
    y = np.concatenate([np.ones(half, dtype=int), -np.ones(half, dtype=int)])
    emp = zero_one_risk(predict(model, x), y)
    assert abs(emp - p) <= 3.0 * np.sqrt(p * (1 - p) / n)


def test_bayes_risk_is_cdf_of_negative_norm():
    mu = np.array([0.3, -0.4])
    assert bayes_risk(mu) == std_normal_cdf(-0.5)
    assert bayes_risk(np.zeros(3)) == 0.5


@st.composite
def _soft_margin_problems(draw):
    """Small two-class problems; often fewer columns than rows (rank-deficient
    Gram matrix), with repeated points and all-zero columns allowed."""
    rows = draw(st.integers(2, 10))
    cols = draw(st.integers(1, 5))
    cells = st.integers(-3, 3).map(float) | st.floats(-2.0, 2.0, allow_subnormal=False)
    x = np.array(draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    y = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=rows, max_size=rows)))
    if np.all(y == y[0]):  # both classes are needed
        y[draw(st.integers(0, rows - 1))] *= -1
    return x, y, draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_soft_margin_problems())
def test_max_margin_matches_smo_oracle(problem):
    x, y, c = problem
    ref = reference.solve(x, y, c)
    # The reference's duality gap is certified, so its primal and dual values
    # bound the optimum from above and below.
    assert ref.certified
    primal = hinge_objective(fit(MaxMargin(c=c), x, y), x, y, c)
    assert primal - ref.dual <= 1e-6 * primal
    assert abs(primal - ref.primal) <= 1e-6 * ref.primal
