"""Certified reference optimum of the soft-margin objective.

The package's max-margin learner minimizes
``0.5 ||w||^2 + c * sum_i max(0, 1 - y_i (w @ x_i + b))`` with an
unpenalized bias.  This module solves the same problem independently, on
the dual

    min_a  0.5 a^T Q a - sum(a)   s.t.  0 <= a_i <= c,  y^T a = 0,
    Q_ij = y_i y_j x_i @ x_j,

by sequential minimal optimization with second-order working-set
selection (Fan, Chen & Lin 2005, JMLR 6), and certifies the result with the
duality gap: the primal value of ``w = X^T (a * y)`` with its best bias is
an upper bound on the optimum, the dual value of the feasible ``a`` a lower
bound.  A reference counts only when the relative gap is at most
``GAP_TOL``.

Numpy only; nothing here calls into the package.
"""

from dataclasses import dataclass

import numpy as np

GAP_TOL = 1e-6      # certified: (primal - dual) <= GAP_TOL * primal
EQ_TOL = 1e-9       # |y^T a| allowed from rounding, relative to c
KKT_TOL = 1e-12     # SMO stops when the maximal KKT violation is below this
MAX_SMO_ITERS = 100_000


@dataclass(frozen=True)
class Reference:
    primal: float      # objective at the reference (w, b): the optimum's upper bound
    dual: float        # dual objective at a feasible a: the optimum's lower bound
    rel_gap: float
    eq_residual: float
    iterations: int

    @property
    def certified(self) -> bool:
        return (
            np.isfinite(self.primal)
            and self.rel_gap <= GAP_TOL
            and self.eq_residual <= EQ_TOL
        )


def soft_margin_objective(x, y, w, b, c) -> float:
    return 0.5 * float(w @ w) + c * float(np.sum(np.maximum(0.0, 1.0 - y * (x @ w + b))))


def best_bias(x, y, w, c) -> float:
    """Exact minimizer over b of the hinge sum for fixed w.

    The sum is convex and piecewise linear in b with breakpoints at
    ``b = y_i - x_i @ w``, so the minimum is attained at one of them.
    """
    scores = x @ w
    cands = y - scores
    losses = np.maximum(0.0, 1.0 - y[None, :] * (scores[None, :] + cands[:, None])).sum(axis=1)
    return float(cands[int(np.argmin(losses))])


def _smo(k, y, c):
    n = len(y)
    q = (y[:, None] * y[None, :]) * k
    diag = np.diag(k).copy()
    a = np.zeros(n)
    grad = -np.ones(n)
    pos = y > 0
    for it in range(MAX_SMO_ITERS):
        up = np.where(pos, a < c, a > 0)
        low = np.where(pos, a > 0, a < c)
        v = -y * grad
        up_idx = np.flatnonzero(up)
        i = int(up_idx[np.argmax(v[up_idx])])
        if v[i] - v[low].min() < KKT_TOL:
            return a, it
        cand = np.flatnonzero(low & (v < v[i]))
        gain = v[i] - v[cand]
        curv = np.maximum(diag[i] + diag[cand] - 2.0 * k[i, cand], 1e-12)
        j = int(cand[np.argmin(-(gain * gain) / curv)])
        # Move y_i a_i up by s and y_j a_j down by s, keeping y^T a fixed.
        s = (v[i] - v[j]) / max(diag[i] + diag[j] - 2.0 * k[i, j], 1e-12)
        s = min(s, c - a[i] if pos[i] else a[i], a[j] if pos[j] else c - a[j])
        di, dj = y[i] * s, -y[j] * s
        a[i] = min(max(a[i] + di, 0.0), c)
        a[j] = min(max(a[j] + dj, 0.0), c)
        grad += q[:, i] * di + q[:, j] * dj
    return a, MAX_SMO_ITERS


def solve(x, y, c) -> Reference:
    """Certified soft-margin optimum for features ``x`` and +-1 labels ``y``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    a, iterations = _smo(x @ x.T, y, float(c))
    w = x.T @ (a * y)
    primal = soft_margin_objective(x, y, w, best_bias(x, y, w, c), c)
    dual = float(a.sum()) - 0.5 * float(w @ w)
    return Reference(
        primal=primal,
        dual=dual,
        rel_gap=(primal - dual) / primal if primal > 0 else np.inf,
        eq_residual=abs(float(y @ a)) / c,
        iterations=iterations,
    )
