"""Dense linear algebra kernel: SVD, numeric rank and minimum-norm least
squares.

Matrices are plain 2-D float64 ``numpy`` arrays, vectors 1-D.
:func:`thin_svd` and :func:`min_norm_least_squares` handle a matrix with no
rows or no columns.  :func:`_finite_matrix` is the package's one finiteness
scan.  It runs at the public edges (these two functions and ``learners``'
features, models and unlabeled pools) and before every SVD, as LAPACK can
loop without end on an infinite entry, and an overflow in a caller's
arithmetic (the mean of a column of ``1.5e308``) reaches it as one.

:func:`min_norm_least_squares` checks its arguments and calls the kernel
:func:`_min_norm`, which fits call on checked arrays.  It solves a full-rank
problem by Householder QR and takes the SVD only where the rank cutoff can
matter.  ``R``, the triangular factor of ``a`` (or of ``a^T`` when ``a`` is
wide), has the singular values of ``a``, so ``bound = ||R||_F ||R^-1||_F``
bounds its condition number; when ``rel_tol * bound < 1`` the cutoff keeps
every direction, the solution is unique, and QR gives it.  Otherwise (an
empty matrix, a singular ``R``, a bound that is not finite or fails: a
rank-deficient or ill-conditioned matrix, a coarse ``rel_tol``) the SVD
solves it and truncates.  :func:`_inverse` gives ``R^-1`` and the bound.
The QR path needs no scan: it runs a fixed number of steps, and a
non-finite entry leaves a bound that is not finite, so the SVD's scan
rejects it.

``learners`` factors a cell's centred training matrix once and applies
PFLD's filter ``1/s`` and every ridge filter ``s / (s^2 + lam)`` to that
one SVD, and reduces each semi-supervised pool once to its ``R`` and
:func:`_inverse` of it (see ``SemiSupPfld``).

A sweep runs inside :data:`single_blas_thread`, which runs numpy's BLAS on
one thread (the sweep's matrices are too small for more) and then restores
the caller's count.  ``workers`` runs reps in parallel; the output bytes do
not depend on the BLAS thread count.  A user thread calling BLAS while a
sweep runs sees one thread for that time, as the count is process-wide.
"""

import math
import threading
from dataclasses import dataclass

from ._np import np
from ._schema import _check
from .errors import ConvergenceFailure, DimensionMismatch

# Relative cutoff below which singular values count as zero.  Far below the
# noise scale of any experiment in this library.
DEFAULT_REL_TOL = 1e-10


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD ``a = u @ diag(s) @ v.T``.

    ``u`` is rows x k and ``v`` is cols x k, both with orthonormal columns;
    ``s`` holds the k = min(rows, cols) singular values, non-negative and
    non-increasing.
    """

    u: "np.ndarray"
    s: "np.ndarray"
    v: "np.ndarray"


def thin_svd(a) -> SvdFactorization:
    """Thin singular value decomposition of a dense matrix.

    A matrix with no rows or no columns factors with k = 0.  Raises
    ConvergenceFailure if the underlying iteration fails, which signals a
    pathological input rather than a recoverable condition.
    """
    m = _finite_matrix(a)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return SvdFactorization(u=u, s=s, v=vt.T)


def _finite_matrix(a, ndim: int = 2, what: str = "matrix") -> "np.ndarray":
    """``a`` as a float64 array of ``ndim`` dimensions, checked finite
    before LAPACK sees it; a failed check raises ``ValueError`` naming ``what``."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} must be finite")
    return m


def numeric_rank(s, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Number of singular values above ``rel_tol`` times the largest.

    ``s`` must be finite, non-negative and non-increasing, and ``rel_tol``
    passes the config's number rule (a finite float > 0).  Returns 0 for an
    empty or all-zero spectrum.
    """
    rel_tol = _check(rel_tol, float, "rel_tol", ValueError, ">", 0)
    sv = _finite_matrix(s, 1, "singular values")
    if sv.size == 0:
        return 0
    if np.any(sv < 0) or np.any(np.diff(sv) > 0):
        raise ValueError("singular values must be non-negative and non-increasing")
    return _rank(sv, rel_tol)


def _rank(s, rel_tol: float) -> int:
    """:func:`numeric_rank` of a spectrum :func:`thin_svd` returned, which
    needs no checks: values above ``rel_tol`` times the largest (none of an
    all-zero spectrum)."""
    return int(np.count_nonzero(s > rel_tol * s[0])) if s.size else 0


def min_norm_least_squares(a, b, rel_tol: float = DEFAULT_REL_TOL) -> "np.ndarray":
    """Least-squares solution of ``a w = b`` with minimum Euclidean norm.

    The Moore-Penrose pseudo-inverse applied to ``b``, with the rank
    taken from :func:`numeric_rank`: among all minimizers of ``||a w - b||``
    the unique one of smallest ``||w||``.  A zero matrix yields ``w = 0``.
    ``a`` and ``b`` must be finite, and ``rel_tol`` passes the config's
    number rule (a finite float > 0).

    When the triangular QR factor ``R`` certifies that the cutoff keeps
    every direction (``rel_tol * ||R||_F ||R^-1||_F < 1``, see the module
    docstring), the rank is min(rows, cols) and Householder QR solves it: a
    tall or square ``a`` factors ``[a, b]``, whose last column gives
    ``Q^T b``, and ``w = R^-1 Q^T b``; a wide one factors ``a^T = Q R``,
    and ``w = Q R^-T b``.  Every other problem is solved by the SVD as
    ``v[:, :rank] @ (u[:, :rank].T @ b / s[:rank])``.
    """
    m, rhs = _finite_matrix(a), _finite_matrix(b, 1, "right-hand side")
    if rhs.shape[0] != m.shape[0]:
        raise DimensionMismatch(f"matrix has {m.shape[0]} rows but right-hand side has {rhs.shape[0]} entries")
    return _min_norm(m, rhs, _check(rel_tol, float, "rel_tol", ValueError, ">", 0))


def _min_norm(m, rhs, rel_tol: float) -> "np.ndarray":
    """:func:`min_norm_least_squares` of a float64 matrix, a right-hand side
    of one entry per row and a checked ``rel_tol``, none of them scanned."""
    rows, cols = m.shape
    if m.size:  # QR's answer, when its bound certifies that the cutoff truncates nothing
        if rows >= cols:
            r = np.linalg.qr(np.column_stack([m, rhs]), mode="r")
            inverse, bound = _inverse(r[:cols, :cols])
        else:
            q, r = np.linalg.qr(m.T)
            inverse, bound = _inverse(r)
        if rel_tol * bound < 1:
            return inverse @ r[:cols, cols] if rows >= cols else q @ (inverse.T @ rhs)
    f = thin_svd(m)
    rank = _rank(f.s, rel_tol)
    return f.v[:, :rank] @ ((f.u[:, :rank].T @ rhs) / f.s[:rank])


def _inverse(r):
    """``(r^-1, ||r||_F ||r^-1||_F)`` of a matrix ``r``; the product bounds
    the 2-norm condition number of ``r``.  ``(None, inf)`` when ``r`` is
    empty, not square or singular, or when the bound is not finite (an
    inverse with a NaN or an infinite entry has none)."""
    if not r.size:
        return None, math.inf
    try:
        inverse = np.linalg.inv(r)  # the LU of a triangular r is r: a back substitution, upper triangular
    except np.linalg.LinAlgError:
        return None, math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # entries near 1e308 overflow the norms: no bound
        bound = float(np.linalg.norm(r) * np.linalg.norm(inverse))
    return (inverse, bound) if math.isfinite(bound) else (None, math.inf)


def _openblas_thread_funcs(numpy_dir: str) -> tuple:
    """``(get, set)`` thread-count functions of the OpenBLAS in the numpy wheel
    at ``numpy_dir``; ``()`` without one (MKL, Accelerate, a system BLAS)."""
    import ctypes
    import glob

    # numpy.libs beside the package in Linux and Windows wheels, numpy/.dylibs in macOS ones
    for path in sorted(glob.glob(numpy_dir + ".libs/*openblas*") + glob.glob(numpy_dir + "/.dylibs/*openblas*")):
        try:
            lib = ctypes.CDLL(path)  # numpy has loaded it, so this is the same library
        except OSError:
            continue
        # numpy 2 wheels, numpy 1.x wheels, plain OpenBLAS
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get, set_ = (getattr(lib, f"{prefix}{op}_num_threads{suffix}", None) for op in ("get", "set"))
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return ()


class _SingleBlasThread:
    """Runs numpy's BLAS on one thread.  The first of several concurrent sweeps
    to enter saves the thread count and sets 1; the last to leave restores it."""

    def __init__(self):
        self._lock, self._active, self.funcs = threading.Lock(), 0, None  # funcs: looked up on first entry

    def __enter__(self):
        with self._lock:
            if self.funcs is None:
                self.funcs = _openblas_thread_funcs(np.__path__[0])
            if self.funcs and self._active == 0:
                self._saved = self.funcs[0]()
                self.funcs[1](1)
            self._active += 1

    def __exit__(self, *exc):
        with self._lock:
            self._active -= 1
            if self.funcs and self._active == 0:
                self.funcs[1](self._saved)


single_blas_thread = _SingleBlasThread()
