import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import normal_equation_solve, svd_min_norm

import riskcurves
from riskcurves import linalg
from riskcurves._schema import _check
from riskcurves.errors import ConvergenceFailure, DimensionMismatch
from riskcurves.learners import LinearModel
from riskcurves.linalg import min_norm_least_squares, numeric_rank, thin_svd


def test_thin_svd_identity():
    f = thin_svd(np.eye(2))
    assert_allclose(f.s, [1.0, 1.0])


def test_thin_svd_diagonal():
    f = thin_svd(np.diag([3.0, 2.0]))
    assert_allclose(f.s, [3.0, 2.0])
    # singular vectors of a diagonal matrix are signed unit vectors
    for m in (f.u, f.v):
        assert np.all(np.isin(np.round(np.abs(m), 12), (0.0, 1.0)))
    assert_allclose(f.u @ np.diag(f.s) @ f.v.T, np.diag([3.0, 2.0]), atol=1e-12)


def test_thin_svd_row_vector():
    f = thin_svd([[1.0, 1.0]])
    assert_allclose(f.s, [np.sqrt(2.0)])


@pytest.mark.parametrize("shape", [(2, 5), (5, 2), (6, 6), (1, 4), (7, 3)])
def test_thin_svd_invariants(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    a = rng.standard_normal(shape)
    f = thin_svd(a)
    k = min(shape)
    assert f.u.shape == (shape[0], k)
    assert f.v.shape == (shape[1], k)
    assert f.s.shape == (k,)
    assert np.all(f.s >= 0) and np.all(np.diff(f.s) <= 0)
    assert np.max(np.abs(f.u.T @ f.u - np.eye(k))) <= 1e-10
    assert np.max(np.abs(f.v.T @ f.v - np.eye(k))) <= 1e-10
    recon = f.u @ np.diag(f.s) @ f.v.T
    assert np.max(np.abs(recon - a)) <= 1e-8 * max(1.0, np.max(np.abs(a)))


def test_thin_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        thin_svd([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        thin_svd([1.0, 2.0])
    for shape in ((0, 3), (3, 0)):  # empty matrices factor with k = 0
        f = thin_svd(np.zeros(shape))
        assert (f.u.shape, f.s.shape, f.v.shape) == ((shape[0], 0), (0,), (shape[1], 0))


_NON_FINITE_CASES = """
import numpy as np
from riskcurves import Pfld, fit
from riskcurves.linalg import min_norm_least_squares, thin_svd

def outcome(call, *args):
    try:
        call(*args)
    except ValueError:
        return "ValueError"
    return "returned"

for shape in ((3, 3), (40, 5), (5, 40)):
    a = np.ones(shape)
    a[0, 0] = np.inf
    print(shape, outcome(thin_svd, a), outcome(min_norm_least_squares, a, np.ones(shape[0])))
x = np.ones((6, 3))
x[:, 1] = 1.5e308  # finite, but its column mean overflows to inf
print("overflow", outcome(fit, Pfld(), x, np.array([1, -1] * 3)))
"""


def test_thin_svd_scan_stops_infinite_entries_that_hang_the_svd():
    # numpy's SVD (OpenBLAS LAPACK) has been seen not to return on these
    # matrices, so the cases run in a child process with a timeout: without
    # the finiteness scan, which min_norm_least_squares runs before its QR,
    # this test fails by timing out, not by hanging
    assert _child_lines(_NON_FINITE_CASES) == [
        "(3, 3) ValueError ValueError", "(40, 5) ValueError ValueError", "(5, 40) ValueError ValueError",
        "overflow ValueError",
    ]


def _child_lines(code: str) -> list:
    """The lines ``code`` prints in a child interpreter that must exit 0 within 60 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(riskcurves.__file__)), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[:-1]


_KERNEL_CASES = """
import traceback
import numpy as np
from riskcurves.linalg import _min_norm

for shape in ((3, 3), (40, 5), (5, 40), (1, 1)):
    for bad in (np.nan, np.inf, -np.inf):
        a = np.ones(shape)
        a[-1, 0] = bad
        try:
            _min_norm(a, np.ones(shape[0]), 1e-10)
        except ValueError as exc:
            print(exc, [frame.name for frame in traceback.extract_tb(exc.__traceback__)][-2:])
"""


def test_min_norm_kernel_leaves_a_non_finite_matrix_to_the_svd_scan():
    # the kernel scans nothing: its QR runs a fixed number of steps, and a
    # non-finite entry fails the bound, so the matrix reaches thin_svd's scan
    assert _child_lines(_KERNEL_CASES) == ["matrix must be finite ['thin_svd', '_finite_matrix']"] * 12


def test_finite_scan_passes_large_entries_and_rejects_non_finite_ones():
    big = [[1e308, 1e308]]  # finite entries whose sum overflows
    assert linalg._finite_matrix(big).tolist() == big
    assert_allclose(thin_svd(big).s, [np.sqrt(2.0) * 1e308])
    with warnings.catch_warnings():  # the QR bound overflows, silently, so the SVD solves it
        warnings.simplefilter("error")
        assert_allclose(min_norm_least_squares(np.transpose(big), [1.0, 1.0]), [1e-308])
    assert LinearModel(weights=big[0], bias=0.0).weights.tolist() == big[0]
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [np.inf, -np.inf], [1e308, np.nan]):
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            thin_svd([bad])
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            min_norm_least_squares([bad], [1.0])
        with pytest.raises(ValueError, match="^right-hand side must be finite$"):
            min_norm_least_squares(np.eye(2), bad)
        with pytest.raises(ValueError, match="^weights must be finite$"):
            LinearModel(weights=bad, bias=0.0)


def test_thin_svd_wraps_nonconvergence(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    with pytest.raises(ConvergenceFailure):
        thin_svd(np.eye(2))


def test_numeric_rank_threshold():
    assert numeric_rank(np.array([5.0, 3.0, 1e-14]), 1e-10) == 2


def test_numeric_rank_zero_matrix():
    assert numeric_rank(np.array([0.0, 0.0]), 1e-10) == 0
    assert numeric_rank(np.array([0.0, 0.0]), 0.5) == 0
    assert numeric_rank(np.array([]), 1e-10) == 0


def test_numeric_rank_single():
    assert numeric_rank(np.array([1.0]), 1e-10) == 1


_BAD_REL_TOLS = (0.0, -1e-10, float("nan"), float("inf"), -float("inf"), True, False, "1e-10", None, 10**400)


def _rule_message(rel_tol) -> str:
    """A pattern of exactly the message the config's number rule gives ``rel_tol``."""
    with pytest.raises(ValueError) as rejected:
        _check(rel_tol, float, "rel_tol", ValueError, ">", 0)
    return f"^{re.escape(str(rejected.value))}$"


def test_numeric_rank_validation():
    for rel_tol in _BAD_REL_TOLS:
        with pytest.raises(ValueError, match=_rule_message(rel_tol)):
            numeric_rank(np.array([1.0]), rel_tol)
    assert numeric_rank(np.array([1.0, 0.5]), np.float32(0.75)) == 1
    assert numeric_rank(np.array([1.0, 0.5]), 1) == 0  # an integer is accepted; 1 keeps no value
    with pytest.raises(ValueError):
        numeric_rank(np.array([1.0, 2.0]), 1e-10)  # increasing
    with pytest.raises(ValueError):
        numeric_rank(np.array([1.0, -0.5]), 1e-10)
    with pytest.raises(ValueError, match="1-D"):
        numeric_rank(np.eye(2), 1e-10)


def test_min_norm_rel_tol_validation():
    a, b = np.eye(3), np.ones(3)
    for rel_tol in _BAD_REL_TOLS:
        with pytest.raises(ValueError, match=_rule_message(rel_tol)):
            min_norm_least_squares(a, b, rel_tol)
    assert_allclose(min_norm_least_squares(a, b, np.float64(1e-10)), b)


def test_min_norm_underdetermined_row():
    assert_allclose(min_norm_least_squares([[1.0, 1.0]], [2.0]), [1.0, 1.0], atol=1e-12)


def test_min_norm_identity():
    assert_allclose(min_norm_least_squares(np.eye(2), [3.0, 4.0]), [3.0, 4.0], atol=1e-12)


def test_min_norm_rank_truncation():
    a = np.array([[2.0, 0.0], [0.0, 0.0]])
    w = min_norm_least_squares(a, [4.0, 5.0])
    assert_allclose(w, [2.0, 0.0], atol=1e-12)
    # the second equation is unsatisfiable; residual stays [0, 5]
    assert_allclose(a @ w - [4.0, 5.0], [0.0, -5.0], atol=1e-12)


def test_min_norm_zero_matrix():
    assert_allclose(min_norm_least_squares(np.zeros((3, 4)), [1.0, 2.0, 3.0]), np.zeros(4))


def test_min_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        min_norm_least_squares(np.eye(2), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="1-D"):
        min_norm_least_squares(np.eye(2), np.ones((2, 1)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            min_norm_least_squares(np.eye(2), [1.0, bad])


def test_min_norm_is_minimum_over_null_space():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rows = rng.integers(1, 4)
        cols = rng.integers(rows + 1, 7)
        a = rng.standard_normal((rows, cols))
        b = a @ rng.uniform(-1.0, 1.0, size=cols)  # consistent by construction
        w = min_norm_least_squares(a, b)
        _, s, vt = np.linalg.svd(a)
        null = vt[np.sum(s > 1e-10 * s[0]) :]
        for _ in range(5):
            v = null.T @ rng.standard_normal(null.shape[0])
            v *= rng.uniform(1e-6, 3.0) / np.linalg.norm(v)
            assert np.linalg.norm(w + v) > np.linalg.norm(w)


def test_min_norm_penrose_identity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rows = rng.integers(1, 7)
        cols = rng.integers(1, 7)
        a = rng.standard_normal((rows, cols))
        if rng.random() < 0.3:  # exercise rank deficiency too
            a[:, -1] = a[:, 0] if cols > 1 else a[:, -1]
        pinv = np.column_stack(
            [min_norm_least_squares(a, e) for e in np.eye(rows)]
        )
        assert np.max(np.abs(a @ pinv @ a - a)) <= 1e-8


def test_min_norm_matches_normal_equations():
    rng = np.random.default_rng(21)
    for _ in range(20):
        cols = rng.integers(1, 8)
        rows = cols + rng.integers(2, 8)
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal(rows)
        assert np.max(
            np.abs(min_norm_least_squares(a, b) - normal_equation_solve(a, b))
        ) <= 1e-8


def _count_svds(monkeypatch) -> list:
    """Record each ``thin_svd`` call ``min_norm_least_squares`` makes."""
    calls, real = [], linalg.thin_svd

    def counting(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(linalg, "thin_svd", counting)
    return calls


def test_min_norm_solves_full_rank_problems_by_qr(monkeypatch):
    # tall, square, wide and single-row or single-column problems with full
    # rank: the cutoff keeps every direction, so QR answers and no SVD runs
    svds = _count_svds(monkeypatch)
    rng = np.random.default_rng(29)
    for shape in ((40, 6), (40, 40), (40, 41), (40, 121), (1, 3), (3, 1)):
        a, b = rng.standard_normal(shape), rng.standard_normal(shape[0])
        ref = svd_min_norm(a, b)
        assert_allclose(min_norm_least_squares(a, b), ref, rtol=1e-10)
        # the solve must not square the scale of a: at 2**500 (with b at 2**-70)
        # R^-1 R^-T b, the normal equations' (a a^T)^-1 b, lies below the normal
        # floats, while R^-T b and w keep full precision
        assert_allclose(min_norm_least_squares(a * 2.0**500, b * 2.0**-70), ref * 2.0**-570, rtol=1e-10)
    assert svds == []


def _fallback_problems():
    rng = np.random.default_rng(31)
    repeated = rng.standard_normal((40, 6))
    repeated[:, 5] = repeated[:, 2]
    zero_column = rng.standard_normal((40, 6))
    zero_column[:, 3] = 0.0
    anisotropic = rng.standard_normal((40, 8)) * np.logspace(0, -2, 8)
    return [
        ("repeated column", repeated, rng.standard_normal(40), 1e-10),
        ("zero column", zero_column, rng.standard_normal(40), 1e-10),
        ("zero matrix", np.zeros((3, 4)), rng.standard_normal(3), 1e-10),
        ("no rows", np.zeros((0, 3)), np.zeros(0), 1e-10),
        ("no columns", np.zeros((3, 0)), rng.standard_normal(3), 1e-10),
        # full rank, but the coarse cutoff drops its small directions
        ("anisotropic at rel_tol 0.5", anisotropic, rng.standard_normal(40), 0.5),
    ]


def test_min_norm_takes_the_svd_where_the_cutoff_can_truncate(monkeypatch):
    # a rank-deficient or empty matrix, or one the cutoff truncates, fails
    # QR's certificate and gets the SVD's answer bit for bit
    svds = _count_svds(monkeypatch)
    for name, a, b, rel_tol in _fallback_problems():
        w = min_norm_least_squares(a, b, rel_tol)
        assert svds == [a.shape], name
        assert w.tobytes() == svd_min_norm(a, b, rel_tol).tobytes(), name
        svds.clear()
