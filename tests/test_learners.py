import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from oracles import whitened_reference

from riskcurves import learners
from riskcurves.data import GaussianSpec, gen_two_gaussians
from riskcurves.errors import (
    DimensionMismatch,
    NonConvergence,
    NonPositiveLambda,
    SingleClassInput,
)
from riskcurves.learners import (
    LinearModel,
    MaxMargin,
    Mnlr,
    Pfld,
    Ridge,
    SemiSupPfld,
    as_labels,
    decision_values,
    fit,
    hinge_objective,
    predict,
    squared_risk,
    zero_one_risk,
)
from riskcurves.linalg import min_norm_least_squares, thin_svd


def _balanced(rng, n, d, delta=1.5):
    half = n // 2
    mu = np.zeros(d)
    mu[0] = delta
    x = np.vstack(
        [rng.standard_normal((half, d)) + mu, rng.standard_normal((half, d)) - mu]
    )
    y = np.concatenate([np.ones(half, dtype=int), -np.ones(half, dtype=int)])
    return x, y


# -- prediction and risks ------------------------------------------------


def test_predict_signs():
    m = LinearModel(weights=np.array([1.0]), bias=0.0)
    assert_array_equal(predict(m, [[2.0], [-3.0]]), [1, -1])


def test_predict_tie_breaks_positive():
    m = LinearModel(weights=np.array([0.0]), bias=0.0)
    assert_array_equal(predict(m, [[5.0], [-5.0]]), [1, 1])


def test_predict_with_bias():
    m = LinearModel(weights=np.array([1.0, -1.0]), bias=1.0)
    assert_array_equal(predict(m, [[0.0, 2.0]]), [-1])


def test_predict_dimension_mismatch():
    m = LinearModel(weights=np.array([1.0, 2.0]), bias=0.0)
    with pytest.raises(DimensionMismatch):
        predict(m, [[1.0]])


def test_zero_one_risk_values():
    assert zero_one_risk([1, -1, 1], [1, -1, 1]) == 0.0
    assert zero_one_risk([1, -1], [-1, 1]) == 1.0
    assert zero_one_risk([1, 1, 1, -1], [1, 1, 1, 1]) == 0.25
    with pytest.raises(DimensionMismatch):
        zero_one_risk([1], [1, -1])


def test_squared_risk_values():
    assert squared_risk([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert squared_risk([0.0, 0.0], [1.0, -1.0]) == 1.0
    assert squared_risk([2.0], [0.0]) == 4.0
    with pytest.raises(DimensionMismatch):
        squared_risk([1.0], [1.0, 2.0])


# -- MNLR ------------------------------------------------------------------


def test_mnlr_symmetric_pair():
    m = fit(Mnlr(), [[1.0], [-1.0]], [1, -1])
    assert_allclose(m.weights, [1.0], atol=1e-12)
    assert abs(m.bias) < 1e-12
    assert_array_equal(predict(m, [[1.0], [-1.0]]), [1, -1])


def test_mnlr_single_point_pseudo_inverse():
    m = fit(Mnlr(), [[2.0]], [1])
    assert_allclose(m.weights, [0.4], atol=1e-12)
    assert abs(m.bias - 0.2) < 1e-12


def test_mnlr_interpolates_at_threshold():
    rng = np.random.default_rng(0)
    for d in (3, 6, 11):
        n = d + 1
        x = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        y[0], y[1] = 1, -1
        m = fit(Mnlr(), x, y)
        assert zero_one_risk(predict(m, x), y) == 0.0
        assert squared_risk(decision_values(m, x), y.astype(float)) <= 1e-16 * n


def test_mnlr_label_flip_negates_model():
    rng = np.random.default_rng(1)
    x, y = _balanced(rng, 10, 4)
    m = fit(Mnlr(), x, y)
    flipped = fit(Mnlr(), x, -y)
    assert_array_equal(flipped.weights, -m.weights)
    assert flipped.bias == -m.bias


def test_mnlr_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fit(Mnlr(), [[1.0], [2.0]], [1])


# -- PFLD ------------------------------------------------------------------


def test_pfld_symmetric_pair():
    m = fit(Pfld(), [[1.0], [-1.0]], [1, -1])
    assert_allclose(m.weights, [1.0], atol=1e-12)
    assert abs(m.bias) < 1e-12


def test_pfld_decides_as_mnlr_on_tall_balanced_cells_only():
    # on a tall cell both are the one least-squares fit with a bias; on a wide
    # cell the minimum norms of [x - mean, 1] and [x, 1] pick different fits
    data = GaussianSpec(dim=200, informative=10, separation=2.5)
    for n, cols, seed in [(40, 10, 0), (40, 30, 1), (20, 15, 2), (12, 6, 4), (20, 200, 3)]:
        train, test = gen_two_gaussians(data, n, seed), gen_two_gaussians(data, 2000, seed + 100)
        x, xt = train.x[:, :cols], test.x[:, :cols]
        differ = np.count_nonzero(predict(fit(Pfld(), x, train.y), xt) != predict(fit(Mnlr(), x, train.y), xt))
        assert (differ > 0) == (cols >= n), (n, cols, differ)


def test_pfld_translation_invariance():
    rng = np.random.default_rng(3)
    x, y = _balanced(rng, 8, 3)
    shift = np.array([5.0, -2.0, 11.0])
    xt = rng.standard_normal((20, 3))
    base = decision_values(fit(Pfld(), x, y), xt)
    shifted = decision_values(fit(Pfld(), x + shift, y), xt + shift)
    assert_allclose(shifted, base, rtol=1e-7, atol=1e-8)


def test_pfld_label_flip_negates_model():
    rng = np.random.default_rng(4)
    x, y = _balanced(rng, 10, 4)
    m, f = fit(Pfld(), x, y), fit(Pfld(), x, -y)
    assert_array_equal(f.weights, -m.weights)
    assert f.bias == -m.bias


def test_pfld_requires_both_classes():
    with pytest.raises(SingleClassInput):
        fit(Pfld(), [[1.0], [2.0]], [1, 1])


def _pfld_reference(x, y):
    """PFLD as the minimum-norm fit of ``[x - mean, 1]``, mapped back to raw features."""
    mean = x.mean(axis=0)
    w = min_norm_least_squares(np.hstack([x - mean, np.ones((len(x), 1))]), y.astype(np.float64))
    return w[:-1], w[-1] - w[:-1] @ mean


def _near_duplicate(x, rng):
    # scaled by 1e-6, with a last column that repeats the first up to 1e-13: a
    # singular value near 1e-12, kept against 1e-10 * s_1(Xc) but cut against
    # 1e-10 * sqrt(n), the largest singular value of [Xc, 1]
    x = 1e-6 * x
    return np.hstack([x, x[:, :1] + 1e-13 * rng.standard_normal((len(x), 1))])


_PFLD_CASES = {  # name: (n, N before the transform, transform)
    "n<N": (10, 25, lambda x, rng: x),
    "n=N+1": (12, 11, lambda x, rng: x),
    "n>N": (40, 5, lambda x, rng: x),
    "duplicated-wide": (10, 8, lambda x, rng: np.hstack([x, x, x[:, :2]])),
    "duplicated-tall": (40, 6, lambda x, rng: np.hstack([x, x[:, :3]])),
    "scaled-1e-6": (10, 25, lambda x, rng: 1e-6 * x),
    "scaled-1e-6-near-duplicate": (40, 5, _near_duplicate),
    "scaled-1e6": (10, 25, lambda x, rng: 1e6 * x),
    "scaled-1e6-tall": (40, 5, lambda x, rng: 1e6 * x),
}


@pytest.mark.parametrize("case", list(_PFLD_CASES))
def test_pfld_matches_the_minimum_norm_fit_of_the_centred_system(case):
    n, d, transform = _PFLD_CASES[case]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x, y = _balanced(rng, n, d)
        x = transform(x, rng)
        w_ref, b_ref = _pfld_reference(x, y)
        model = fit(Pfld(), x, y)
        assert_allclose(model.weights, w_ref, rtol=1e-10, atol=1e-10 * np.abs(w_ref).max())
        offset = np.abs(w_ref) @ np.abs(x.mean(axis=0))  # the scale of w @ mean in the bias
        assert model.bias == pytest.approx(b_ref, rel=1e-10, abs=1e-10 * (1 + offset))
        held_out = transform(_balanced(rng, 200, d)[0], rng)
        assert_array_equal(predict(model, held_out), np.where(held_out @ w_ref + b_ref >= 0, 1, -1))


def test_pfld_without_feature_columns_is_bias_only():
    y = np.array([1, 1, 1, -1])
    model = fit(Pfld(), np.empty((4, 0)), y)
    w_ref, b_ref = _pfld_reference(np.empty((4, 0)), y)
    assert model.weights.shape == (0,) and w_ref.shape == (0,)
    assert model.bias == b_ref == 0.5
    with pytest.raises(SingleClassInput):
        fit(Pfld(), np.empty((3, 0)), [1, 1, 1])


# -- ridge -----------------------------------------------------------------


def test_ridge_small_lambda_matches_mnlr_overdetermined():
    rng = np.random.default_rng(5)
    x, y = _balanced(rng, 30, 5)
    r = fit(Ridge(lam=1e-12), x, y)
    m = fit(Mnlr(), x, y)
    assert np.max(np.abs(r.weights - m.weights)) < 1e-6
    assert abs(r.bias - m.bias) < 1e-6


# the square cell n = N + 1 is left out: its smallest singular value is small
# enough there that lam = 1e-12 still shrinks the fit measurably
@pytest.mark.parametrize("n, d", [(40, 10), (40, 30), (40, 60), (20, 80)])
def test_pfld_is_the_ridgeless_limit_of_ridge(n, d):
    x, y = _balanced(np.random.default_rng(n + d), n, d)
    r, p = fit(Ridge(lam=1e-12), x, y), fit(Pfld(), x, y)
    assert np.linalg.norm(r.weights - p.weights) <= 1e-8 * np.linalg.norm(p.weights)
    assert abs(r.bias - p.bias) <= 1e-8 * abs(p.bias)


def test_ridge_huge_lambda_predicts_label_mean():
    rng = np.random.default_rng(6)
    x, y = _balanced(rng, 12, 4)
    y = y.copy()
    y[:8] = 1  # unbalanced on purpose
    m = fit(Ridge(lam=1e12), x, y)
    assert np.max(np.abs(m.weights)) < 1e-9
    assert abs(m.bias - y.mean()) < 1e-9


def test_ridge_two_point_closed_form():
    x = np.array([[1.0], [-1.0]])
    y = np.array([1, -1])
    m = fit(Ridge(lam=1.0), x, y)
    assert_allclose(m.weights, [2.0 / 3.0], atol=1e-12)
    assert abs(m.bias) < 1e-12
    # independent check through the regularized normal equations
    xc = x - x.mean(axis=0)
    w = np.linalg.solve(xc.T @ xc + 1.0 * np.eye(1), xc.T @ (y - y.mean()))
    assert_allclose(m.weights, w, atol=1e-12)


def test_ridge_shrinks_monotonically_and_continuously():
    rng = np.random.default_rng(7)
    x, y = _balanced(rng, 14, 6)
    lams = [1e-3, 1e-2, 0.1, 1.0, 10.0]
    norms = [np.linalg.norm(fit(Ridge(lam=lam), x, y).weights) for lam in lams]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    near = fit(Ridge(lam=0.1 * (1 + 1e-9)), x, y)
    base = fit(Ridge(lam=0.1), x, y)
    assert np.max(np.abs(near.weights - base.weights)) < 1e-8


def test_ridge_label_flip_negates_model():
    rng = np.random.default_rng(8)
    x, y = _balanced(rng, 10, 4)
    m, f = fit(Ridge(lam=0.3), x, y), fit(Ridge(lam=0.3), x, -y)
    assert_array_equal(f.weights, -m.weights)
    assert f.bias == -m.bias


def test_ridge_rejects_nonpositive_lambda():
    for lam in (0.0, -1.0, True):
        with pytest.raises(NonPositiveLambda):
            Ridge(lam=lam)
    with pytest.raises(NonPositiveLambda, match="^lam must be a finite float, got an integer with 5001 digits$"):
        Ridge(lam=10**5000)


# -- semi-supervised PFLD ----------------------------------------------------


def test_semisup_empty_pool_reproduces_pfld():
    rng = np.random.default_rng(9)
    xt = rng.standard_normal((30, 5))
    for n in (4, 8, 40):  # under- and over-determined regimes
        x, y = _balanced(rng, n, 5)
        vs = decision_values(fit(SemiSupPfld(unlabeled_count=0), x, y, x_unlabeled=np.zeros((0, 5))), xt)
        vp = decision_values(fit(Pfld(), x, y), xt)
        assert_allclose(vs, vp, rtol=1e-6, atol=1e-8)


def test_semisup_duplicated_points_keep_symmetric_decisions():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    y = np.array([1, -1, 1, -1])
    xt = np.array([[2.0, 0.3], [-2.0, -0.3], [0.4, 1.5], [-0.4, -1.5]])
    semis = fit(SemiSupPfld(unlabeled_count=4), x, y, x_unlabeled=x.copy())
    plain = fit(Pfld(), x, y)
    assert_array_equal(predict(semis, xt), predict(plain, xt))


def _whitening_rank(s):
    return int(np.count_nonzero(s > 1e-10 * s[0])) if s[0] > 0 else 0


def _scaled_normal(cols):
    return lambda rng, rows: rng.standard_normal((rows, cols)) * np.linspace(1.0, 3.0, cols)


def _duplicated_columns(rng, rows):
    half = rng.standard_normal((rows, 6))
    return np.hstack([half, half])


def _check_whitening(monkeypatch, n, cols, pool_rows, draw, rank):
    """A ``SemiSupPfld`` fit agrees with :func:`whitened_reference`, and takes
    no SVD when the pool keeps all its ``rank`` = ``cols`` directions (so has
    more rows than columns), as it whitens with ``R``'s inverse; any other
    pool takes one SVD, of its ``min(rows, cols) x cols`` factor ``R``."""
    rng = np.random.default_rng(cols * 1000 + pool_rows)
    x, pool, held_out = draw(rng, n), draw(rng, pool_rows), draw(rng, 200)
    y = np.resize([1, -1], n)
    seen = []

    def recording_svd(a):
        f = thin_svd(a)
        seen.append((np.shape(a), f.s))
        return f

    monkeypatch.setattr(learners, "thin_svd", recording_svd)
    model = fit(SemiSupPfld(unlabeled_count=pool_rows), x, y, x_unlabeled=pool)
    rows = n + pool_rows
    if rank == cols:
        assert seen == []
    else:
        (shape, s), = seen
        assert shape == (min(rows, cols), cols)
        assert _whitening_rank(s) == rank
    ref_rank, ref = whitened_reference(x, y, pool)
    assert ref_rank == rank
    assert_allclose(model.weights, ref.weights, rtol=1e-10)
    assert_array_equal(predict(model, held_out), predict(ref, held_out))


def _repeated_last_column(rng, rows):
    x = rng.standard_normal((rows, 10))
    x[:, -1] = x[:, 2]
    return x


@pytest.mark.parametrize(
    "n, cols, pool_rows, draw, rank",
    [
        (40, 40, 400, _scaled_normal(40), 40),  # rows = 11 cols, as in closed-form sweeps
        (20, 30, 40, _scaled_normal(30), 30),  # rows = 2 cols
        (20, 30, 39, _scaled_normal(30), 30),  # rows < 2 cols: whitens with R's inverse too
        (20, 30, 5, _scaled_normal(30), 24),  # wide and full rank: R is 25 x 30, one SVD of it
        (10, 25, 0, _scaled_normal(25), 9),  # empty pool, more columns than rows
        (20, 12, 100, _duplicated_columns, 6),  # rank-deficient pool
        (30, 10, 100, _repeated_last_column, 9),  # R is singular or fails the bound
        (10, 5, 50, lambda rng, rows: np.full((rows, 5), 0.75), 0),  # every point identical
    ],
)
def test_semisup_whitening_matches_svd_of_whole_pool(monkeypatch, n, cols, pool_rows, draw, rank):
    _check_whitening(monkeypatch, n, cols, pool_rows, draw, rank)


def _one_column_scaled_by_1e_12(rng, rows):
    x = _scaled_normal(8)(rng, rows)
    x[:, 3] *= 1e-12
    return x


def test_semisup_truncates_a_full_rank_pool_at_the_cutoff(monkeypatch):
    # a full-rank pool with a direction 1e-12 times the others: ||R||_F ||R^-1||_F
    # fails the guard at DEFAULT_REL_TOL, and the SVD of R drops that direction
    _check_whitening(monkeypatch, 20, 8, 100, _one_column_scaled_by_1e_12, 7)


@pytest.mark.parametrize(
    "spec", [Mnlr(), Pfld(), SemiSupPfld(unlabeled_count=40)], ids=["mnlr", "pfld", "semisup_pfld"]
)
def test_every_minimum_norm_fit_truncates_at_the_default_cutoff(spec):
    # one column scaled by 1e-11 lies below DEFAULT_REL_TOL (1e-10) of the largest
    # singular value and is dropped; scaled by 1e-9 it lies above and is fitted
    weights = []
    for scale in (1e-11, 1e-9):
        rng = np.random.default_rng(0)
        x, y = _balanced(rng, 30, 5)
        pool = rng.standard_normal((40, 5))
        x[:, 3] *= scale
        pool[:, 3] *= scale
        model = fit(spec, x, y, x_unlabeled=pool) if isinstance(spec, SemiSupPfld) else fit(spec, x, y)
        weights.append(abs(model.weights[3]))
    assert weights[0] < 1e-9 and weights[1] > 1e6, weights


def test_semisup_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fit(SemiSupPfld(unlabeled_count=3), [[1.0], [-1.0]], [1, -1], x_unlabeled=np.zeros((3, 2)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="unlabeled features must be finite"):
            fit(SemiSupPfld(unlabeled_count=3), [[1.0], [-1.0]], [1, -1], x_unlabeled=[[0.0], [bad], [1.0]])


@pytest.mark.parametrize("unlabeled_count", [0, 1, 3, 7])
def test_semisup_without_feature_columns_equals_pfld(unlabeled_count):
    # no feature columns: the pooled whitening has rank 0 and the fit is PFLD's bias
    x, y = np.empty((9, 0)), np.array([1, -1, 1, 1, -1, 1, -1, 1, 1])
    model = fit(SemiSupPfld(unlabeled_count=unlabeled_count), x, y, x_unlabeled=np.empty((7, 0)))
    ref = fit(Pfld(), x, y)
    assert model.weights.shape == ref.weights.shape == (0,)
    assert model.bias == ref.bias


def test_semisup_changes_weights_with_informative_pool():
    rng = np.random.default_rng(10)
    x, y = _balanced(rng, 8, 8)
    pool = rng.standard_normal((200, 8)) * np.linspace(1.0, 3.0, 8)
    semis = fit(SemiSupPfld(unlabeled_count=200), x, y, x_unlabeled=pool)
    plain = fit(Pfld(), x, y)
    assert not np.allclose(semis.weights, plain.weights)


# -- labels ------------------------------------------------------------------


@pytest.mark.parametrize(
    "labels",
    [[1, -1, 1], np.array([-1, -1], dtype=np.int8), [1.0, -1.0], np.array([True, True])],
)
def test_as_labels_accepts_plus_minus_one(labels):
    out = as_labels(labels)
    assert out.dtype == np.int64
    assert_array_equal(out, np.asarray(labels, dtype=np.int64))


@pytest.mark.parametrize(
    "labels",
    [[1, 0], [2, -1], [1, -2], [1.5, -1.0], [[1, -1], [-1, 1]], np.array([True, False])],
)
def test_as_labels_rejects_other_values(labels):
    with pytest.raises(ValueError):
        as_labels(labels)


# -- max margin --------------------------------------------------------------


def test_max_margin_symmetric_pair():
    m = fit(MaxMargin(c=10.0, max_iters=2_000), [[1.0], [-1.0]], [1, -1])
    assert m.bias == 0.0  # symmetric updates never move the bias
    assert m.weights[0] > 0
    assert_array_equal(predict(m, [[3.0], [-3.0]]), [1, -1])


def test_max_margin_separable_training_risk_zero():
    rng = np.random.default_rng(11)
    half = 15
    x = np.vstack(
        [
            rng.uniform(0.5, 2.0, size=(half, 2)),
            rng.uniform(-2.0, -0.5, size=(half, 2)),
        ]
    )
    y = np.concatenate([np.ones(half, dtype=int), -np.ones(half, dtype=int)])
    m = fit(MaxMargin(c=100.0, max_iters=5_000), x, y)
    assert zero_one_risk(predict(m, x), y) == 0.0


def test_max_margin_feature_scaling_keeps_decisions():
    rng = np.random.default_rng(12)
    half = 10
    x = np.vstack(
        [
            rng.uniform(0.5, 2.0, size=(half, 3)),
            rng.uniform(-2.0, -0.5, size=(half, 3)),
        ]
    )
    y = np.concatenate([np.ones(half, dtype=int), -np.ones(half, dtype=int)])
    xt = rng.uniform(-2.5, 2.5, size=(30, 3))
    base = fit(MaxMargin(c=100.0, max_iters=4_000), x, y)
    scaled = fit(MaxMargin(c=100.0, max_iters=4_000), 10.0 * x, y)
    assert_array_equal(predict(scaled, 10.0 * xt), predict(base, xt))


@pytest.mark.parametrize("dim, all_support", [(400, True), (1000, True), (120, False)])
def test_max_margin_equals_pfld_when_every_point_is_a_support_vector(dim, all_support):
    # With every point on the margin the soft-margin fit interpolates
    # y = X w + b with minimum ||w|| and a free bias, which is the pseudo-Fisher fit.
    ds = gen_two_gaussians(GaussianSpec(dim=dim, informative=10, separation=2.5), 40, 40)
    svm = fit(MaxMargin(), ds.x, ds.y)
    margins = ds.y * decision_values(svm, ds.x)
    pfld = fit(Pfld(), ds.x, ds.y)
    gap = max(np.max(np.abs(svm.weights - pfld.weights)), abs(svm.bias - pfld.bias))
    if all_support:
        assert np.max(np.abs(margins - 1.0)) <= 1e-8
        assert gap <= 1e-8
    else:
        assert np.sum(np.abs(margins - 1.0) <= 1e-8) < 40
        assert gap > 1e-3


def test_max_margin_validation():
    with pytest.raises(SingleClassInput):
        fit(MaxMargin(), [[1.0], [2.0]], [1, 1])
    with pytest.raises(NonConvergence):
        fit(MaxMargin(max_iters=1), [[1.0], [-1.0]], [1, -1])
    for params in (dict(c=0.0), dict(c=True), dict(max_iters=0), dict(max_iters=2.5)):
        with pytest.raises(ValueError):
            MaxMargin(**params)
    with pytest.raises(ValueError, match=r"^max_iters must be < 2\*\*63, got an integer with 5001 digits$"):
        MaxMargin(max_iters=10**5000)


def test_hinge_objective_hand_case():
    m = LinearModel(weights=np.array([1.0]), bias=0.0)
    assert hinge_objective(m, [[2.0], [-1.0]], [1, -1], c=2.0) == 0.5


def test_hinge_objective_checks_width_and_c_like_max_margin():
    m = LinearModel(weights=np.array([1.0]), bias=0.0)
    x, y = [[2.0], [-1.0]], [1, -1]
    with pytest.raises(DimensionMismatch, match="2 feature columns but model has 1 weights"):
        hinge_objective(m, [[2.0, 0.0], [-1.0, 0.0]], y, c=2.0)
    for c in (0.0, -1.0, float("nan"), float("inf"), -float("inf"), True):
        with pytest.raises(ValueError, match="^c must"):
            hinge_objective(m, x, y, c=c)
        with pytest.raises(ValueError, match="^c must"):
            MaxMargin(c=c)
    assert hinge_objective(m, x, y, c=2) == 0.5


# -- declarative specs and dispatch ------------------------------------------


def test_labels_and_custom_names():
    assert Mnlr().label == "mnlr"
    assert Pfld().label == "pfld"
    assert Ridge(lam=0.1).label == "ridge(0.1)"
    assert SemiSupPfld(unlabeled_count=400).label == "semisup_pfld(400)"
    assert MaxMargin().label == "max_margin"
    assert Mnlr(name="custom").label == "custom"


def test_fit_dispatch_matches_direct_calls():
    # the pool reaches SemiSupPfld only, which reads its first unlabeled_count rows
    rng = np.random.default_rng(15)
    x, y = _balanced(rng, 10, 4)
    pool = rng.standard_normal((12, 4))
    pairs = [
        (Mnlr(), None),
        (Pfld(), None),
        (Ridge(lam=0.5), None),
        (SemiSupPfld(unlabeled_count=6), pool[:6]),
        (MaxMargin(max_iters=500), None),
    ]
    for spec, own_pool in pairs:
        via = fit(spec, x, y, x_unlabeled=pool)
        direct = fit(spec, x, y, x_unlabeled=own_pool)
        assert_array_equal(via.weights, direct.weights)
        assert via.bias == direct.bias
    with pytest.raises(TypeError, match="unknown learner spec"):
        fit(object(), x, y)


def test_fit_checks_the_labels_once(monkeypatch):
    rng = np.random.default_rng(16)
    x, y = _balanced(rng, 10, 4)
    pool = rng.standard_normal((12, 4))
    calls = []

    def counting_as_labels(labels):
        calls.append(labels)
        return as_labels(labels)

    monkeypatch.setattr(learners, "as_labels", counting_as_labels)
    for spec in (Mnlr(), Pfld(), Ridge(lam=0.5), SemiSupPfld(unlabeled_count=4), MaxMargin(max_iters=500)):
        calls.clear()
        fit(spec, x, y, x_unlabeled=pool)
        assert len(calls) == 1, spec


def test_fit_context_with_foreign_arrays_checks_them(monkeypatch):
    rng = np.random.default_rng(17)
    x, y = _balanced(rng, 10, 4)
    other_x, other_y = _balanced(rng, 12, 4)
    pool = rng.standard_normal((12, 4))
    cell = learners._FitContext(x, y, pool)
    with pytest.raises(ValueError, match="-1 or \\+1"):
        fit(Ridge(lam=0.5), x, np.where(y > 0, 2, -1), x_unlabeled=cell)
    with pytest.raises(DimensionMismatch):
        fit(Pfld(), x[:-1], cell.y, x_unlabeled=cell)
    with pytest.raises(ValueError, match="finite"):
        fit(Mnlr(), np.where(x > 0, np.nan, x), cell.y, x_unlabeled=cell)
    calls = []
    monkeypatch.setattr(learners, "as_labels", lambda labels: calls.append(labels) or as_labels(labels))
    for spec in (Ridge(lam=0.5), Pfld()):
        alone = fit(spec, other_x, other_y, x_unlabeled=pool)
        calls.clear()
        model = fit(spec, other_x, other_y, x_unlabeled=cell)  # a fresh context of these arrays
        assert len(calls) == 1
        assert_array_equal(model.weights, alone.weights)
        assert model.bias == alone.bias
    calls.clear()
    fit(Ridge(lam=0.5), cell.x, cell.y.copy(), x_unlabeled=cell)  # equal labels, but not the context's
    assert len(calls) == 1
    calls.clear()
    fit(Ridge(lam=0.5), cell.x, cell.y, x_unlabeled=cell)
    assert calls == []


def test_fit_semisup_requires_pool():
    with pytest.raises(ValueError):
        fit(SemiSupPfld(unlabeled_count=4), [[1.0], [-1.0]], [1, -1])
    with pytest.raises(ValueError):
        SemiSupPfld(unlabeled_count=2.5)
    with pytest.raises(ValueError):
        SemiSupPfld(unlabeled_count=2**63)


def test_linear_model_validation():
    with pytest.raises(ValueError):
        LinearModel(weights=np.array([np.nan]), bias=0.0)
    with pytest.raises(ValueError, match="1-D"):
        LinearModel(weights=np.ones((2, 1)), bias=0.0)
    with pytest.raises(ValueError):
        LinearModel(weights=np.array([1.0]), bias=float("inf"))
