"""A sweep runs numpy's BLAS on one thread and gives the caller's count back.

The thread-count asserts skip when numpy's BLAS is not an OpenBLAS the
package can control (MKL, Accelerate, a system BLAS); everything else runs
on every platform.
"""

import sys
import threading

import numpy as np
import pytest

from riskcurves import curves as cv
from riskcurves import linalg
from riskcurves.curves import SweepSpec, run_sweep
from riskcurves.data import CsvSource, GaussianSpec
from riskcurves.errors import SingleClassInput
from riskcurves.learners import MaxMargin, Mnlr, Pfld, Ridge, SemiSupPfld

FUNCS = linalg._openblas_thread_funcs(np.__path__[0])
ALL_KINDS = (Mnlr(), Pfld(), Ridge(lam=0.5), SemiSupPfld(unlabeled_count=300), MaxMargin())


def _threads():
    return FUNCS[0]() if FUNCS else None


def _require_blas():
    if not FUNCS:
        pytest.skip("numpy's BLAS exposes no thread-count functions")


@pytest.fixture
def caller_threads():
    """Set the caller's BLAS count to 2 for the test, then put back the count found."""
    if not FUNCS:
        yield
        return
    found = FUNCS[0]()
    FUNCS[1](2)
    try:
        yield
    finally:
        FUNCS[1](found)


@pytest.fixture
def seen(monkeypatch):
    """BLAS thread counts that the sweep's fits observe, in call order."""
    counts = []
    real_fit = cv.fit

    def recording_fit(spec, x, y, x_unlabeled=None):
        counts.append(_threads())
        return real_fit(spec, x, y, x_unlabeled=x_unlabeled)

    monkeypatch.setattr(cv, "fit", recording_fit)
    return counts


def _spec(**kw):
    base = dict(
        kind="feature_curve",
        grid=(2, 6, 10),
        learners=(Mnlr(), Ridge(lam=0.5)),
        data_source=GaussianSpec(dim=10, informative=3, separation=2.0),
        fixed_n=8,
        test_size=40,
        reps=4,
        base_seed=3,
    )
    base.update(kw)
    return SweepSpec(**base)


def _unlimited(monkeypatch):
    """Run later sweeps of this test without the limit."""
    scope = linalg._SingleBlasThread()
    scope.funcs = ()
    monkeypatch.setattr(cv, "single_blas_thread", scope)


@pytest.mark.parametrize("workers", [1, 2])
def test_fits_in_a_sweep_see_one_blas_thread(caller_threads, seen, workers):
    before = _threads()
    run_sweep(_spec(), workers=workers)
    assert len(seen) == 4 * 3 * 2
    _require_blas()
    assert set(seen) == {1}
    assert _threads() == before


@pytest.mark.parametrize("workers", [1, 2])
def test_caller_count_comes_back_when_a_learner_raises(caller_threads, monkeypatch, workers):
    before = _threads()
    calls = {"n": 0}
    real_fit = cv.fit

    def flaky(spec, x, y, x_unlabeled=None):
        calls["n"] += 1
        if calls["n"] == 5:
            raise SingleClassInput("boom")
        return real_fit(spec, x, y, x_unlabeled=x_unlabeled)

    monkeypatch.setattr(cv, "fit", flaky)
    with pytest.raises(SingleClassInput, match="boom"):
        run_sweep(_spec(), workers=workers)
    _require_blas()
    assert _threads() == before


def test_concurrent_sweeps_share_the_limit_and_restore_the_count(caller_threads, monkeypatch):
    # "first" ends while "second" is still fitting: the second must keep one
    # thread until it leaves too, and only then does the caller's count return
    before = _threads()
    both_inside = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    seen_at = {}
    real_fit = cv.fit

    def fit(spec, x, y, x_unlabeled=None):
        name = threading.current_thread().name
        if name not in seen_at:
            both_inside.wait()
            if name == "second":
                first_done.wait(30)
            seen_at[name] = _threads()
        return real_fit(spec, x, y, x_unlabeled=x_unlabeled)

    monkeypatch.setattr(cv, "fit", fit)
    errors = []

    def sweep():
        try:
            run_sweep(_spec())
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    threads = {name: threading.Thread(target=sweep, name=name) for name in ("first", "second")}
    for t in threads.values():
        t.start()
    threads["first"].join(60)
    assert not threads["first"].is_alive()
    first_done.set()
    threads["second"].join(60)
    assert not threads["second"].is_alive()
    assert errors == [] and set(seen_at) == {"first", "second"}
    _require_blas()
    assert seen_at == {"first": 1, "second": 1}
    assert _threads() == before


def test_many_concurrent_threaded_sweeps_keep_one_thread(caller_threads, seen):
    before = _threads()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    errors = []

    def sweeps():
        try:
            for _ in range(3):
                run_sweep(_spec(reps=3), workers=2)
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    try:
        threads = [threading.Thread(target=sweeps) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and len(seen) == 4 * 3 * 3 * 3 * 2
    _require_blas()
    assert set(seen) == {1}
    assert _threads() == before


def test_sweep_runs_when_no_blas_is_found(caller_threads, monkeypatch, tmp_path):
    limited = run_sweep(_spec(), keep_reps=True)
    # a file that matches the name but is no library counts as no BLAS
    (tmp_path / "numpy.libs").mkdir()
    (tmp_path / "numpy.libs" / "libopenblas-broken.so").write_bytes(b"not a library")
    real_lookup = linalg._openblas_thread_funcs
    assert real_lookup(str(tmp_path / "numpy")) == ()
    monkeypatch.setattr(linalg, "_openblas_thread_funcs", lambda numpy_dir: real_lookup(str(tmp_path / "numpy")))
    monkeypatch.setattr(cv, "single_blas_thread", linalg._SingleBlasThread())
    before = _threads()
    assert run_sweep(_spec(), keep_reps=True, workers=2) == limited
    assert cv.single_blas_thread.funcs == ()
    assert _threads() == before


def _csv_source(tmp_path):
    rng = np.random.default_rng(41)
    rows = [",".join([f"f{j}" for j in range(30)] + ["label"])]
    for i in range(800):
        vals = rng.normal(0.4 if i % 2 else -0.4, 1.0, size=30)
        rows.append(",".join([*(f"{v:.6f}" for v in vals), "pos" if i % 2 else "neg"]))
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return CsvSource(path=str(path), label_column="label", positive_label="pos")


CURVES = {
    "feature_curve": dict(grid=(5, 23, 24, 30), fixed_n=24),
    "learning_curve": dict(grid=(8, 20, 21, 40), fixed_n=None, fixed_N=20),
    "alpha_curve": dict(grid=(0.5, 1.05, 2.0), fixed_n=None, fixed_N=20),
}


@pytest.mark.parametrize("source", ["gaussian", "csv"])
@pytest.mark.parametrize("kind", sorted(CURVES))
def test_per_rep_risks_do_not_depend_on_the_limit(caller_threads, monkeypatch, tmp_path, kind, source):
    data = GaussianSpec(dim=30, informative=5, separation=2.0) if source == "gaussian" else _csv_source(tmp_path)
    spec = _spec(kind=kind, learners=ALL_KINDS, data_source=data, test_size=400, reps=3, **CURVES[kind])
    limited = run_sweep(spec, keep_reps=True)
    _unlimited(monkeypatch)
    assert run_sweep(spec, keep_reps=True) == limited
    assert run_sweep(spec, keep_reps=True, workers=2) == limited
