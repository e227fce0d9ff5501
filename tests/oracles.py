"""Independent verification oracles for the tests.

Deliberately avoids the solvers' paths: the normal-equation solver uses
hand-rolled Gaussian elimination, the brute-force minimum-norm search
enumerates exact solutions on a grid, the SVD minimum-norm solve calls
numpy's SVD alone, the Gaussian risk comes in closed form rather than by
sampling, and the semi-supervised reference whitens by numpy's SVD of the
whole pool.  Tests use these to cross-check the package, so they must not
share code with it.  The max-margin learner is checked against the
certified soft-margin reference in ``perfbench/reference.py`` instead.
"""

import math

import numpy as np

from riskcurves.errors import DimensionMismatch
from riskcurves.learners import LinearModel


class SingularSystem(ValueError):
    """Normal equations are numerically singular."""


class InconsistentSystem(ValueError):
    """The linear system has no exact solution."""


# Brute-force null-space coefficients are searched inside this box; the
# minimum-norm solutions of the intended small test systems lie well inside,
# so a miss indicates a bug, not a bound.
BRUTE_FORCE_BOUND = 3.0

_MAX_CANDIDATES = 20_000_000


def std_normal_cdf(t: float) -> float:
    """Standard normal CDF via erfc; absolute error well below 1e-12."""
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def normal_equation_solve(a, b) -> np.ndarray:
    """Solve the full-rank least-squares problem via the normal equations.

    Forms ``G = a.T @ a`` and eliminates directly (partial pivoting).  Guards
    against near-singularity: the smallest eigenvalue of ``G`` must exceed
    1e-10 times the largest, otherwise SingularSystem is raised.
    """
    m = np.asarray(a, dtype=np.float64)
    rhs = np.asarray(b, dtype=np.float64)
    if m.ndim != 2 or rhs.ndim != 1:
        raise ValueError("expected a 2-D matrix and a 1-D vector")
    if m.shape[0] != rhs.shape[0]:
        raise DimensionMismatch(
            f"matrix has {m.shape[0]} rows but right-hand side has {rhs.shape[0]} entries"
        )
    g = m.T @ m
    eigs = np.linalg.eigvalsh(g)
    if eigs[-1] <= 0 or eigs[0] <= 1e-10 * eigs[-1]:
        raise SingularSystem(
            f"normal equations too close to singular (eig range {eigs[0]:.3e}..{eigs[-1]:.3e})"
        )
    n = g.shape[0]
    aug = np.hstack([g, (m.T @ rhs)[:, None]])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n].copy()


def _rref_particular_and_null(m: np.ndarray, rhs: np.ndarray, tol: float):
    """Row-reduce ``[m | rhs]``; return a particular solution and a null basis."""
    rows, cols = m.shape
    aug = np.hstack([m, rhs[:, None]]).astype(np.float64)
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = r + int(np.argmax(np.abs(aug[r:, c])))
        if abs(aug[pivot, c]) <= tol:
            continue
        if pivot != r:
            aug[[r, pivot]] = aug[[pivot, r]]
        aug[r] /= aug[r, c]
        for other in range(rows):
            if other != r and aug[other, c] != 0.0:
                aug[other] -= aug[other, c] * aug[r]
        pivot_cols.append(c)
        r += 1
    # Any leftover nonzero right-hand side marks an inconsistent system.
    for row in range(r, rows):
        if abs(aug[row, cols]) > tol:
            raise InconsistentSystem("system has no exact solution")
    x0 = np.zeros(cols)
    for i, c in enumerate(pivot_cols):
        x0[c] = aug[i, cols]
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = np.zeros((cols, len(free_cols)))
    for j, fc in enumerate(free_cols):
        basis[fc, j] = 1.0
        for i, pc in enumerate(pivot_cols):
            basis[pc, j] = -aug[i, fc]
    return x0, basis


def _orthonormalize(basis: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt; columns are independent by construction."""
    q = basis.astype(np.float64).copy()
    for j in range(q.shape[1]):
        for i in range(j):
            q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        q[:, j] /= np.linalg.norm(q[:, j])
    return q


def min_norm_bruteforce(a, b, candidates: int) -> np.ndarray:
    """Grid-search the exact solutions of a small consistent system for the
    lowest-norm one.

    Starts from a particular solution obtained by row reduction, spans the
    null space with an orthonormal basis, and evaluates every coefficient
    combination in ``[-3, 3]`` with ``candidates`` points per axis.  Every
    candidate is an exact solution, so the returned norm is always >= the
    true minimum; agreement with the pseudo-inverse answer is expected only
    up to one grid step.

    Restricted to systems of at most 4 rows and 6 columns.
    """
    m = np.asarray(a, dtype=np.float64)
    rhs = np.asarray(b, dtype=np.float64)
    if m.ndim != 2 or rhs.ndim != 1 or m.shape[0] != rhs.shape[0]:
        raise DimensionMismatch("need a matrix and a matching right-hand side")
    if m.shape[0] > 4 or m.shape[1] > 6:
        raise ValueError(f"brute force is limited to 4x6 systems, got {m.shape}")
    if candidates < 2:
        raise ValueError("need at least 2 candidates per axis")
    tol = 1e-10 * max(1.0, float(np.max(np.abs(m))), float(np.max(np.abs(rhs))))
    x0, basis = _rref_particular_and_null(m, rhs, tol)
    residual = float(np.max(np.abs(m @ x0 - rhs)))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
        raise InconsistentSystem(f"particular solution residual {residual:.3e}")
    nullity = basis.shape[1]
    if nullity == 0:
        return x0
    if candidates**nullity > _MAX_CANDIDATES:
        raise ValueError(
            f"{candidates}^{nullity} candidate combinations exceed the "
            f"{_MAX_CANDIDATES} cap; lower the resolution"
        )
    z = _orthonormalize(basis)
    # Project the null component out of the particular solution (still an
    # exact solution) so the continuous optimum sits at coefficient 0, well
    # inside the search box.
    x0 = x0 - z @ (z.T @ x0)
    axes = [np.linspace(-BRUTE_FORCE_BOUND, BRUTE_FORCE_BOUND, candidates)] * nullity
    coeffs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, nullity)
    sols = x0[None, :] + coeffs @ z.T
    best = int(np.argmin(np.einsum("ij,ij->i", sols, sols)))
    return sols[best]


def analytic_gaussian_risk(model: LinearModel, mu) -> float:
    """Expected 0-1 risk of a linear model on the +-mu Gaussian pair.

    Equal priors, identity covariance:
    ``0.5 * Phi(-(w.mu + b)/||w||) + 0.5 * Phi(-(w.mu - b)/||w||)``.
    A zero weight vector classifies at chance, so returns 0.5.
    """
    mean = np.asarray(mu, dtype=np.float64)
    if mean.ndim != 1 or mean.shape[0] != model.weights.shape[0]:
        raise DimensionMismatch(
            f"mean has {mean.shape} but model has {model.weights.shape[0]} weights"
        )
    norm = float(np.linalg.norm(model.weights))
    if norm == 0.0:
        return 0.5
    proj = float(model.weights @ mean)
    t_plus = (proj + model.bias) / norm
    t_minus = (proj - model.bias) / norm
    return 0.5 * std_normal_cdf(-t_plus) + 0.5 * std_normal_cdf(-t_minus)


def bayes_risk(mu) -> float:
    """Optimal risk for the +-mu pair: ``Phi(-||mu||)``."""
    mean = np.asarray(mu, dtype=np.float64)
    return std_normal_cdf(-float(np.linalg.norm(mean)))


def svd_min_norm(a, b, rel_tol=1e-10) -> np.ndarray:
    """The minimum-norm least-squares solution of ``a w = b`` by numpy's SVD
    alone: singular values at most ``rel_tol`` times the largest (all of a
    zero or empty spectrum) are dropped, and ``w = V_r S_r^-1 U_r^T b``."""
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=np.float64), full_matrices=False)
    keep = int(np.count_nonzero(s > rel_tol * s[0])) if s.size else 0
    return vt[:keep].T @ ((u[:, :keep].T @ np.asarray(b, dtype=np.float64)) / s[:keep])


def whitened_reference(x, y, pool, rel_tol=1e-10):
    """``(rank, model)`` of semi-supervised PFLD whitened by numpy's SVD of
    the whole centred pool ``[x; pool]``, never of a QR factor or its
    inverse: directions of singular value at most ``rel_tol`` times the
    largest are dropped, the kept ones scaled to unit pooled variance, and
    the whitened training rows fit by the minimum-norm solution of
    ``[z, 1] w = y`` under the same cutoff."""
    pooled = np.vstack([x, pool])
    mean = pooled.mean(axis=0)
    _, s, vt = np.linalg.svd(pooled - mean, full_matrices=False)
    rank = int(np.count_nonzero(s > rel_tol * s[0])) if s[0] > 0 else 0
    if rank == 0:
        return rank, LinearModel(weights=np.zeros(x.shape[1]), bias=float(np.mean(y)))
    transform = vt[:rank].T / (s[:rank] / np.sqrt(pooled.shape[0]))
    aug = np.hstack([(x - mean) @ transform, np.ones((x.shape[0], 1))])
    inner = svd_min_norm(aug, y, rel_tol)
    w = transform @ inner[:-1]
    return rank, LinearModel(weights=w, bias=float(inner[-1]) - float(w @ mean))
