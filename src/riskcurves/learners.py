"""Linear two-class learners: minimum-norm regression, pseudo-Fisher,
ridge, a semi-supervised pseudo-Fisher variant, and an exact soft-margin
(max-margin) classifier.

Labels are +-1 integers.  Every fit returns an immutable
:class:`LinearModel`; prediction is ``sign(w @ x + b)`` with ``sign(0)``
resolving to +1 so risk estimates stay deterministic.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

from ._np import np
from ._schema import _check, _Checked, _param
from .errors import (
    DimensionMismatch,
    NonConvergence,
    NonPositiveLambda,
    SingleClassInput,
)
from .linalg import DEFAULT_REL_TOL, _finite_matrix, _inverse, _min_norm, _rank, thin_svd


@dataclass(frozen=True)
class LinearModel:
    """Affine decision function ``x -> w @ x + b``."""

    weights: "np.ndarray"
    bias: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _finite_matrix(self.weights, 1, "weights"))
        object.__setattr__(self, "bias", _check(self.bias, float, "bias"))


# --------------------------------------------------------------------------
# Learner specs, schema classes of ``_schema``.  Each declares its config
# ``kind``, any config key that differs from a field name (``config_keys``),
# its parameters with their defaults and lower bounds, and its fit
# (``_fit``), which reads the checked arrays of a ``_FitContext``.  A spec
# checks its parameters when built, and ``fit`` checks the arrays once.
# ``LEARNERS`` maps each kind to its spec and drives ``fit``, config parsing
# and the JSON round trip.


class _LearnerSpec(_Checked):
    @property
    def label(self) -> str:
        return self.name or self.kind


@dataclass(frozen=True)
class Mnlr(_LearnerSpec):
    """Minimum-norm linear regression on +-1 targets: the least-squares fit
    of ``[x, 1]`` with the smallest norm.  In the interpolation regime (rows
    <= features + 1 with full row rank) the training residual is exactly
    zero."""

    kind: ClassVar[str] = "mnlr"
    rel_tol: float = _param(">", 0, default=DEFAULT_REL_TOL)
    name: str | None = None

    def _fit(self, cell):
        return _mnlr(cell.x, cell.yf, self.rel_tol)


@dataclass(frozen=True)
class Pfld(_LearnerSpec):
    """Pseudo-Fisher linear discriminant, the ridgeless limit of ridge: the
    minimum-norm fit of ``[x - mean, 1]``, whose largest singular value is
    ``max(s_1, sqrt(n))`` with ``s`` those of ``x - mean``.  The centring
    shift is folded into the bias, so the model predicts from raw features;
    its decisions agree with :class:`Mnlr`'s on class-balanced data."""

    kind: ClassVar[str] = "pfld"
    rel_tol: float = _param(">", 0, default=DEFAULT_REL_TOL)
    name: str | None = None

    def _fit(self, cell):
        _require_both_classes(cell.y)
        x_mean, y_mean, f, uty = cell.centred()
        r = np.count_nonzero(f.s > self.rel_tol * max([math.sqrt(len(cell.y)), *f.s[:1]]))
        w = f.v[:, :r] @ (uty[:r] / f.s[:r])
        return LinearModel(weights=w, bias=y_mean - float(w @ x_mean))


@dataclass(frozen=True)
class Ridge(_LearnerSpec):
    """L2-regularized least squares with the bias left out of the penalty.

    Solved by centring features and targets, which is algebraically the same
    as excluding the constant column from the penalty: the optimal bias is
    ``mean(y) - mean(x) @ w``, and ``w`` is the filter ``s / (s^2 + lam)``
    applied to the SVD of the centred features.
    """

    kind: ClassVar[str] = "ridge"
    config_keys: ClassVar[dict] = {"lam": "lambda"}
    lam: float = _param(">", 0, error=NonPositiveLambda)
    name: str | None = None

    def _fit(self, cell):
        x_mean, y_mean, f, uty = cell.centred()
        w = f.v @ (f.s / (f.s**2 + self.lam) * uty)
        return LinearModel(weights=w, bias=y_mean - float(w @ x_mean))

    @property
    def label(self) -> str:
        return self.name or f"ridge({self.lam:g})"


@dataclass(frozen=True)
class SemiSupPfld(_LearnerSpec):
    """Pseudo-Fisher variant that pools unlabeled points into the preprocessing.

    Centres on the pooled mean, whitens with the pooled total-covariance SVD
    truncated at ``rel_tol``, fits MNLR in the whitened coordinates, and
    composes the transform back so the model predicts from raw features.
    With no unlabeled points this reproduces :class:`Pfld`'s decisions: the
    truncated whitening is then a bijection on the span of the training data.

    Every pool is first reduced to its triangular QR factor ``R``, which
    has ``min(rows, cols)`` rows and the pool's singular values and right
    singular vectors, and a square ``R`` is inverted once.  A cell of N
    columns reads the leading N x N block of each: the block of ``R`` is
    the ``R`` of the pool's first N columns, and, ``R`` being upper
    triangular, the block of its inverse is that block's inverse.  By
    interlacing no block is worse conditioned than ``R``, whose condition
    number is at most ``bound = ||R||_F ||R^-1||_F``; so when ``rel_tol *
    bound < 1`` the truncation keeps every direction, and the cell whitens
    with ``sqrt(rows) R_N^-1`` and takes no SVD of the pool; its whitened
    fit, when full rank, is solved by QR (``linalg._min_norm``),
    so such a cell takes no SVD at all.  That transform is the SVD
    whitening rotated, which the minimum-norm fit undoes.  A wide pool
    (whose ``R`` is not square), a singular ``R`` or a failed bound (a
    rank-deficient pool, whose truncation matters) whitens by the SVD of
    ``R``'s leading N columns, as does a pool without feature columns.  A
    sweep factors the pool once per rep, at the curve's widest cell, for
    every cell that trains on all the rep's rows, so its risks can differ
    from a ``fit`` of the cell's own arrays in the last bits.
    """

    kind: ClassVar[str] = "semisup_pfld"
    unlabeled_count: int = _param(">=", 0)
    rel_tol: float = _param(">", 0, default=DEFAULT_REL_TOL)
    name: str | None = None

    def _fit(self, cell):
        x, y = cell.x, cell.y
        if cell.pool is None:
            raise ValueError("SemiSupPfld needs an unlabeled pool")
        rows, mean, r, inverse, bound = cell.pool.factor(self.unlabeled_count)
        cols = x.shape[1]
        mean = mean[:cols]
        if self.rel_tol * bound < 1:  # full rank, nothing truncated
            transform = np.sqrt(rows) * inverse[:cols, :cols]
        else:
            f = thin_svd(r[:cols, :cols])
            sigma = f.s / np.sqrt(rows)
            rank = _rank(sigma, self.rel_tol)
            if rank == 0:  # every pooled point identical: only the bias is learnable
                return LinearModel(weights=np.zeros(cols), bias=float(y.mean()))
            transform = f.v[:, :rank] / sigma[:rank]  # d x rank
        whitened = _mnlr((x - mean) @ transform, cell.yf, self.rel_tol)
        w = transform @ whitened.weights
        return LinearModel(weights=w, bias=whitened.bias - float(w @ mean))

    @property
    def label(self) -> str:
        return self.name or f"semisup_pfld({self.unlabeled_count})"


@dataclass(frozen=True)
class MaxMargin(_LearnerSpec):
    """Exact minimizer of ``0.5 ||w||^2 + c * sum_i hinge_i`` (bias unpenalized).

    Solves the dual ``min 0.5 a^T Q a - sum(a)``, ``0 <= a <= c``,
    ``y^T a = 0``, ``Q = (y y^T) * (X X^T)``, by Mehrotra's predictor-corrector
    primal-dual interior-point method (Ferris & Munson 2002); the multiplier
    of ``y^T a = 0`` is the bias and ``w = X^T (a * y)``.  Stops at a relative
    duality gap of ``GAP_TOL``, then takes one crossover step to the exact
    active-set solution when that is no worse.  Deterministic.  ``max_iters``
    only caps the iterations: reaching it raises :class:`NonConvergence`.
    """

    kind: ClassVar[str] = "max_margin"
    c: float = _param(">", 0, default=100.0)
    max_iters: int = _param(">=", 1, default=20_000)
    name: str | None = None

    def _fit(self, cell):
        _require_both_classes(cell.y)
        x, c, yf = cell.x, self.c, cell.yf
        n = yf.shape[0]
        q = (x @ x.T) * np.outer(yf, yf)
        # Start inside the box with y^T a = 0, which every Newton step preserves;
        # z and s are the multipliers of a >= 0 and a <= c.
        pos = yf > 0
        a = (c / 2) * min(pos.sum(), n - pos.sum()) / np.where(pos, pos.sum(), n - pos.sum())
        b, z, s = 0.0, np.ones(n), np.ones(n)
        # Newton system [[Q + diag(z/a + s/t), y], [y^T, 0]]; the y border is set once
        kkt, rhs, diag = np.zeros((n + 1, n + 1)), np.empty(n + 1), np.arange(n)
        kkt[:n, n] = kkt[n, :n] = yf

        for it in range(self.max_iters + 1):
            g = q @ a
            gap, primal = _duality_gap(g, yf, a, b, c)
            if gap <= GAP_TOL * primal:
                break
            if it == self.max_iters or not np.isfinite(gap):
                raise NonConvergence(f"relative duality gap {gap / primal:.3g} after {it} iterations")
            t = c - a
            dual_res = g - 1.0 + b * yf - z + s
            kkt[:n, :n] = q
            kkt[diag, diag] += z / a + s / t
            rhs[n] = -float(yf @ a)

            def direction(r_az, r_ts):  # Newton step toward a*z = r_az, t*s = r_ts
                rhs[:n] = r_az / a - r_ts / t - dual_res
                sol = np.linalg.solve(kkt, rhs)
                da = sol[:n]
                return da, sol[n], (r_az - z * da) / a, (r_ts + s * da) / t

            def step(da, dz, ds):  # largest step in (0, 1] keeping a, t, z, s >= 0
                v, dv = np.concatenate([a, t, z, s]), np.concatenate([da, -da, dz, ds])
                neg = dv < 0
                return min(1.0, float(np.min(-v[neg] / dv[neg]))) if neg.any() else 1.0

            da, db, dz, ds = direction(-a * z, -t * s)
            alpha = step(da, dz, ds)
            mu = (a @ z + t @ s) / (2 * n)
            mu_aff = ((a + alpha * da) @ (z + alpha * dz) + (t - alpha * da) @ (s + alpha * ds)) / (2 * n)
            centering = (mu_aff / mu) ** 3 * mu
            da, db, dz, ds = direction(-a * z - da * dz + centering, -t * s + da * ds + centering)
            alpha = _TO_BOUNDARY * step(da, dz, ds)
            a, b, z, s = a + alpha * da, b + alpha * db, z + alpha * dz, s + alpha * ds

        a, b = _crossover(q, yf, a, b, z, s, c)
        return LinearModel(weights=x.T @ (a * yf), bias=b)


LEARNERS = {spec.kind: spec for spec in (Mnlr, Pfld, Ridge, SemiSupPfld, MaxMargin)}


# --------------------------------------------------------------------------
# Input validation helpers.


def _as_features(x) -> "np.ndarray":
    """2-D finite float64 features; zero columns allowed (bias-only fits)."""
    m = _finite_matrix(x, 2, "features")
    if m.shape[0] < 1:
        raise ValueError("feature matrix needs at least one row")
    return m


def as_labels(y) -> "np.ndarray":
    """1-D array of +-1 integer labels."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError("labels must be a 1-D sequence")
    out = arr.astype(np.int64)
    if not np.array_equal(out, arr):
        raise ValueError("labels must be integers -1 or +1")
    if not np.all((out == 1) | (out == -1)):
        raise ValueError("labels must be -1 or +1")
    return out


def _check_training_pair(x, y):
    xm = _as_features(x)
    ym = as_labels(y)
    if xm.shape[0] != ym.shape[0]:
        raise DimensionMismatch(
            f"{xm.shape[0]} feature rows but {ym.shape[0]} labels"
        )
    return xm, ym


def _require_both_classes(y: "np.ndarray"):
    if np.all(y == y[0]):
        raise SingleClassInput("training labels contain a single class")


# --------------------------------------------------------------------------
# Fits.  The spec bodies above read a ``_FitContext``: float64 features and
# int64 +-1 labels with one label per row, checked once per cell.


class _Pool:
    """The rows ``SemiSupPfld`` whitens with: training rows ``x`` stacked on
    the first u rows of ``unlabeled``, for each count u that a learner asks.

    A sweep builds one per rep, from all its training rows and its unlabeled
    rows cut to the widest cell's columns, and hands it to every cell that
    trains on all those rows; ``fit`` builds one from its own arrays.  The
    unlabeled rows a count reads are checked, and the pool factored, once per
    count, on its first request.
    """

    def __init__(self, x, unlabeled):
        self.x, self.unlabeled, self._factors = x, unlabeled, {}

    def factor(self, u: int):
        """``(rows, mean, r, inverse, bound)`` of the pool of the first ``u``
        unlabeled rows: its row count, column means, the QR factor ``r`` of
        the centred pool and :func:`_inverse` of it."""
        if u not in self._factors:
            xu = np.asarray(self.unlabeled, dtype=np.float64)[:u]
            if xu.size == 0:
                xu = xu.reshape(0, self.x.shape[1])
            if xu.ndim != 2 or xu.shape[1] != self.x.shape[1]:
                raise DimensionMismatch(
                    f"unlabeled features have shape {xu.shape}, expected (*, {self.x.shape[1]})"
                )
            centred = np.vstack([self.x, _finite_matrix(xu, 2, "unlabeled features")])
            mean = centred.mean(axis=0)
            centred -= mean
            r = np.linalg.qr(centred, mode="r")
            self._factors[u] = len(centred), mean, r, *_inverse(r)
        return self._factors[u]


class _FitContext:
    """A training cell that all its learners fit from: the arrays, checked
    once, their float targets ``yf`` and the :class:`_Pool` of the cell's
    unlabeled rows.  ``unlabeled`` is those rows, or a rep's pool whose
    training rows are this cell's rows, at least as wide."""

    def __init__(self, x, y, unlabeled=None):
        self.x, self.y = _check_training_pair(x, y)
        self.yf, self._centred = self.y.astype(np.float64), None
        if unlabeled is not None and not isinstance(unlabeled, _Pool):
            unlabeled = _Pool(self.x, unlabeled)
        self.pool = unlabeled

    def centred(self):
        """``(x_mean, y_mean, f, f.u.T @ (yf - y_mean))``, ``f`` the thin SVD of
        ``x - x_mean``, computed on the first call: PFLD and every ridge share it.
        With no feature columns ``f`` has k = 0, so every centred fit is bias-only."""
        if self._centred is None:
            x_mean, y_mean = self.x.mean(axis=0), float(self.yf.mean())
            f = thin_svd(self.x - x_mean)
            self._centred = x_mean, y_mean, f, f.u.T @ (self.yf - y_mean)
        return self._centred


def _mnlr(x, yf, rel_tol: float) -> LinearModel:
    """The minimum-norm fit of float targets ``yf`` with an appended bias
    column, which MNLR and semi-supervised PFLD share; the fit's arrays and
    ``rel_tol`` are checked, so it calls the solver's kernel."""
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    w = _min_norm(aug, yf, rel_tol)
    return LinearModel(weights=w[:-1], bias=float(w[-1]))


# Certified stop of the max-margin solver: (primal - dual) <= GAP_TOL * primal.
GAP_TOL = 1e-8
# Fraction of the distance to the nearest bound that an interior step takes.
_TO_BOUNDARY = 0.99


def hinge_objective(model: LinearModel, x, y, c: float) -> float:
    """Soft-margin objective ``0.5 ||w||^2 + c * sum hinge``; ``c`` is checked as ``MaxMargin``'s."""
    xm, ym = _check_training_pair(x, y)
    c = _check(c, float, "c", ValueError, ">", 0)
    margins = ym * decision_values(model, xm)
    return 0.5 * float(model.weights @ model.weights) + c * float(
        np.sum(np.maximum(0.0, 1.0 - margins))
    )


def _duality_gap(g, yf, a, b, c) -> tuple[float, float]:
    """``(primal - dual, primal)`` given ``g = Q a``: the hinge objective at
    ``w = X^T (a * y)``, whose margins are ``g + b y``, and ``sum(a) - ||w||^2 / 2``."""
    norm2 = float(a @ g)
    primal = 0.5 * norm2 + c * float(np.sum(np.maximum(0.0, 1.0 - g - b * yf)))
    return primal - float(a.sum()) + 0.5 * norm2, primal


def _crossover(q, yf, a, b, z, s, c):
    """Solve the KKT equalities on the free set that the interior point's
    complementarity pairs indicate; keep the result only if it lies in the
    box and its duality gap is no worse."""
    upper = c - a < s
    free = np.flatnonzero((a > z) & ~upper)
    ax = np.where(upper, c, 0.0)
    system = np.block([[q[np.ix_(free, free)], yf[free, None]], [yf[free], 0.0]])
    try:
        sol = np.linalg.solve(system, np.append(1.0 - q[free] @ ax, -float(yf @ ax)))
    except np.linalg.LinAlgError:
        return a, b
    ax[free], bx = sol[:-1], float(sol[-1])
    if np.all((ax >= 0.0) & (ax <= c)) and _duality_gap(q @ ax, yf, ax, bx, c)[0] <= _duality_gap(q @ a, yf, a, b, c)[0]:
        return ax, bx
    return a, b


def fit(spec, x, y, x_unlabeled=None) -> LinearModel:
    """Fit a declarative learner spec to features ``x`` and +-1 labels ``y``.

    Checks ``(x, y)`` once, then runs the spec's fit on the checked arrays.
    ``x_unlabeled`` is only consulted for :class:`SemiSupPfld`; the pool is
    truncated to ``spec.unlabeled_count`` rows (fewer are used if the pool
    is smaller, e.g. limited leftover rows of a fixed dataset).  A sweep
    passes its cell's ``_FitContext`` instead, with that context's own (checked)
    ``x`` and ``y``.
    """
    if type(spec) not in LEARNERS.values():
        raise TypeError(f"unknown learner spec {spec!r}")
    cell = x_unlabeled
    if not (isinstance(cell, _FitContext) and x is cell.x and y is cell.y):
        cell = _FitContext(x, y, cell)
    return spec._fit(cell)


# --------------------------------------------------------------------------
# Prediction and risks.


def decision_values(model: LinearModel, x) -> "np.ndarray":
    """Raw affine scores ``x @ w + b`` per row."""
    xm = _as_features(x)
    if xm.shape[1] != model.weights.shape[0]:
        raise DimensionMismatch(
            f"{xm.shape[1]} feature columns but model has {model.weights.shape[0]} weights"
        )
    return xm @ model.weights + model.bias


def _risk(values: "np.ndarray", y: "np.ndarray", metric: str) -> float:
    """Risk of decision ``values`` (or of labels) against +-1 labels ``y``,
    unchecked: the rate of ``sign(values) != y`` (sign(0) = +1) or the squared loss."""
    if metric == "zero_one":
        return np.count_nonzero((values >= 0.0) != (y > 0)) / len(y)
    return float(np.mean((values - y) ** 2))


def predict(model: LinearModel, x) -> "np.ndarray":
    """Predicted +-1 labels; sign(0) resolves to +1."""
    return np.where(decision_values(model, x) >= 0.0, 1, -1).astype(np.int64)


def zero_one_risk(pred, truth) -> float:
    """Fraction of mismatched labels."""
    p = as_labels(pred)
    t = as_labels(truth)
    if p.shape[0] != t.shape[0] or p.shape[0] < 1:
        raise DimensionMismatch(
            f"label sequences must have equal positive length, got {p.shape[0]} and {t.shape[0]}"
        )
    return _risk(p, t, "zero_one")


def squared_risk(values, targets) -> float:
    """Mean squared difference between scores and targets."""
    v = np.asarray(values, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if v.shape != t.shape or v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatch(
            f"value sequences must have equal positive length, got {v.shape} and {t.shape}"
        )
    return _risk(v, t, "squared")
