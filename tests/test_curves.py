import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import bayes_risk, whitened_reference

from riskcurves import curves as cv
from riskcurves import data, learners, linalg
from riskcurves._schema import _check
from riskcurves.curves import (
    CurvePoint,
    CurveResult,
    LearnerStats,
    Provenance,
    SweepSpec,
    alpha_train_size,
    detect_peak,
    interpolation_threshold,
    mix,
    run_alpha_curve,
    run_feature_curve,
    run_learning_curve,
    square_system_threshold,
)
from riskcurves.data import (
    ColumnTransform,
    CsvSource,
    GaussianSpec,
    gen_two_gaussians,
    load_csv,
    split_indices,
    subsample_indices,
)
from riskcurves.errors import (
    GridExceedsDimension,
    InvariantViolation,
    OutOfRange,
    SingleClassInput,
    TooFewPoints,
)
from riskcurves.io_cli import emit_json
from riskcurves.learners import (
    LEARNERS,
    MaxMargin,
    Mnlr,
    Pfld,
    Ridge,
    SemiSupPfld,
    decision_values,
    fit,
    predict,
    squared_risk,
    zero_one_risk,
)

GSPEC = GaussianSpec(dim=12, informative=3, separation=2.0)


def _sweep(**kw):
    base = dict(
        kind="feature_curve",
        grid=(2, 4, 8),
        learners=(Mnlr(),),
        data_source=GSPEC,
        fixed_n=8,
        test_size=92,
        reps=3,
        base_seed=17,
    )
    base.update(kw)
    return SweepSpec(**base)


def _rep_arrays(spec, rep, max_unlab):
    """A rep's ``(train_x, train_y, test_x, test_y, unlabeled_x)``, drawn as
    the sweep draws them: rows gathered at ``split_indices``, a CSV's
    leftover rows standardized with the train and test rows, then cut to
    ``max_unlab``."""
    src, n_train = spec.data_source, spec.train_rows()
    split_seed = mix(17, rep, cv.SEED_SPLIT)
    if isinstance(src, GaussianSpec):
        pool = gen_two_gaussians(src, n_train + spec.test_size, mix(17, rep))
        tr, te = split_indices(pool.y, n_train, split_seed)
        unlab = np.zeros((0, src.dim))
        if max_unlab:
            unlab = gen_two_gaussians(src, max_unlab, mix(17, rep, cv.SEED_UNLABELED)).x
        return pool.x[tr], pool.y[tr], pool.x[te], pool.y[te], unlab
    full = load_csv(src.path, "label", "pos")
    tr, rest = split_indices(full.y, n_train, split_seed)
    keep, left = split_indices(full.y[rest], spec.test_size, mix(17, rep, cv.SEED_SPLIT, 1))
    te = rest[keep]
    train_x, test_x, unlab = full.x[tr], full.x[te], full.x[rest[left]]
    if src.standardize:
        tf = ColumnTransform.fit(train_x)
        for x in (train_x, test_x, unlab):
            tf.apply_in_place(x)
    return train_x, full.y[tr], test_x, full.y[te], unlab[:max_unlab]


# -- seed mixing ---------------------------------------------------------


def test_mix_reference_vectors():
    # frozen reference values; a change here breaks every stored result
    assert mix(0) == 16294208416658607535
    assert mix(0, 1) == 5219921735007109793
    assert mix(0, 2) == 8504457784064988479
    assert mix(1, 1) == 6187950774067792790
    assert mix(42, 7, 3) == 9798712839613627463
    assert mix(42, 3, 7) == 15728222730068919339
    assert mix(-5, 0) == 5220515830426917058
    assert mix(20260808, 0) == 1559725028150890204


def test_mix_sensitivity():
    assert mix(3, 1) != mix(3, 2)
    assert mix(3, 1) != mix(4, 1)
    assert mix(3) != mix(4)
    assert mix(3, 1, 2) != mix(3, 2, 1)
    assert 0 <= mix(123456789, 42) < 2**64


def test_alpha_train_size_rounds_half_away_from_zero():
    assert alpha_train_size(1.0, 40) == 40
    assert alpha_train_size(0.33, 40) == 13
    assert alpha_train_size(0.25, 8) == 2
    assert alpha_train_size(2.0, 40) == 80
    assert alpha_train_size(0.0625, 40) == 3  # 2.5 rounds up, not to even


# -- SweepSpec validation --------------------------------------------------


def test_spec_rejects_bad_grids():
    with pytest.raises(InvariantViolation):
        _sweep(grid=())
    with pytest.raises(InvariantViolation, match="grid must be a sequence"):
        _sweep(grid=5)
    with pytest.raises(InvariantViolation):
        _sweep(grid=(4, 4))
    with pytest.raises(InvariantViolation):
        _sweep(grid=(8, 4))
    with pytest.raises(InvariantViolation):
        _sweep(grid=(2.5, 4))  # feature counts must be integers
    with pytest.raises(InvariantViolation):
        _sweep(kind="alpha_curve", grid=(0.0, 1.0), fixed_n=None, fixed_N=8)


def test_spec_rejects_alpha_train_sizes_below_two():
    with pytest.raises(InvariantViolation):
        _sweep(kind="alpha_curve", grid=(0.01, 1.0), fixed_n=None, fixed_N=8, test_size=92)


def test_spec_requires_matching_fixed_field():
    with pytest.raises(InvariantViolation):
        _sweep(fixed_n=None)
    with pytest.raises(InvariantViolation):
        _sweep(fixed_N=8)
    with pytest.raises(InvariantViolation):
        _sweep(kind="learning_curve", grid=(4, 8), fixed_n=8, fixed_N=None)


def test_spec_rejects_bad_counts_and_metric():
    with pytest.raises(InvariantViolation):
        _sweep(reps=0)
    with pytest.raises(InvariantViolation):
        _sweep(test_size=0)
    with pytest.raises(InvariantViolation):
        _sweep(risk_metric="absolute")
    for bad in (
        dict(reps=2.5), dict(reps=True), dict(fixed_n=8.0), dict(test_size=92.0),
        dict(base_seed=1.5), dict(learners=("mnlr",)), dict(data_source={"dim": 12}),
        dict(fixed_n=True),
        dict(kind="learning_curve", grid=(4, 8), fixed_n=None, fixed_N=True),
        # counts stay below 2**63, numpy's largest index
        dict(reps=2**63), dict(test_size=10**55), dict(fixed_n=10**55), dict(grid=(2, 2**63)),
        dict(reps=10**5000),  # beyond the digits str() converts
        dict(kind="bogus"),
    ):
        with pytest.raises(InvariantViolation):
            _sweep(**bad)
    with pytest.raises(InvariantViolation, match="^learners must be a sequence, got 5$"):
        _sweep(learners=5)
    # each entry of a field of another schema is exactly one of its classes, not a subclass
    kinds = " | ".join(cls.__name__ for cls in LEARNERS.values())
    with pytest.raises(InvariantViolation, match=f"^learners: 'mnlr' is not a {re.escape(kinds)}$"):
        _sweep(learners=(Mnlr(), "mnlr"))
    wider = type("Wider", (GaussianSpec,), {})(dim=12, informative=3)
    message = f"data_source: {wider!r} is not a GaussianSpec | CsvSource"
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        _sweep(data_source=wider)
    # the largest reps whose 3 x 1 x reps risks fit numpy's largest array; 2**63 - 1 passes the count rule, not that
    assert _sweep(reps=(2**63 - 1) // 24).reps == (2**63 - 1) // 24
    with pytest.raises(InvariantViolation, match=r"^reps=9223372036854775807 needs an array of 3 x 1 x "):
        _sweep(reps=2**63 - 1)


def test_spec_stores_numpy_integers_as_plain_ints(tmp_path):
    spec = _sweep(grid=(np.int64(2), 4), fixed_n=np.int64(8), reps=np.int64(2), base_seed=np.int64(17))
    for value in (*spec.grid, spec.fixed_n, spec.reps, spec.base_seed):
        assert type(value) is int
    emit_json(run_feature_curve(spec), tmp_path / "result.json")  # json cannot encode np.int64


def test_spec_rejects_duplicate_learner_names():
    with pytest.raises(InvariantViolation):
        _sweep(learners=(Mnlr(), Mnlr()))
    _sweep(learners=(Mnlr(), Mnlr(name="mnlr2")))  # ok


def test_spec_grid_exceeding_generator_dim():
    with pytest.raises(GridExceedsDimension):
        _sweep(grid=(2, 16))
    with pytest.raises(GridExceedsDimension):
        _sweep(kind="learning_curve", grid=(4, 8), fixed_n=None, fixed_N=16)


def test_spec_with_odd_generator_pool_runs():
    spec = _sweep(grid=(12,), reps=1, test_size=93)  # a pool of 8 + 93 rows
    result = run_feature_curve(spec)
    train_x, train_y, test_x, test_y, _ = _rep_arrays(spec, 0, 0)
    assert len(train_y) + len(test_y) == 101
    manual = zero_one_risk(predict(fit(Mnlr(), train_x, train_y), test_x), test_y)
    assert result.points[0].stats["mnlr"].mean_risk == manual
    # a learning curve that ends on the square cell n = N + 1
    square = _sweep(kind="learning_curve", grid=(4, 8, 9), fixed_n=None, fixed_N=8, test_size=92)
    assert square.train_rows() == 9
    assert all(np.isfinite(p.stats["mnlr"].mean_risk) for p in run_learning_curve(square).points)


def test_kind_names_run_a_spec_of_every_kind():
    # aliases of run_sweep, kept until the benchmark calls run_sweep itself
    assert run_feature_curve is run_learning_curve is run_alpha_curve is cv.run_sweep
    learning = _sweep(kind="learning_curve", grid=(4, 8), fixed_n=None, fixed_N=8)
    assert [p.x_value for p in run_feature_curve(learning).points] == [4.0, 8.0]


def test_spec_bounds_training_sizes_and_draws_by_numpys_largest_array():
    alpha = dict(kind="alpha_curve", fixed_n=None, fixed_N=40, data_source=GaussianSpec())
    too_many = r"^the training size at alpha=1e\+300 must be < 2\*\*63, got an integer with 302 digits$"
    with pytest.raises(InvariantViolation, match=too_many):
        _sweep(grid=(0.5, 1e300), **alpha)
    with pytest.raises(InvariantViolation, match=r"^the training size at alpha=0\.01 must be >= 2, got 0$"):
        _sweep(grid=(0.01, 1.0), **alpha)
    beyond = r"^a rep would draw {} x {} float64 values, beyond numpy's largest array \(2\*\*63 - 1 bytes\)$"
    with pytest.raises(InvariantViolation, match=beyond.format(4 * 10**18 + 92, 120)):
        _sweep(grid=(0.5, 1e17), **alpha)
    # a rep's pool of train_rows + test_size rows, and each unlabeled draw, hold at most 2**63 - 1 bytes
    one = dict(grid=(1,), data_source=GaussianSpec(dim=1, informative=1))
    largest = 2**60 - 1  # rows of one float64 column
    _sweep(test_size=largest - 8, **one)
    _sweep(learners=(SemiSupPfld(unlabeled_count=largest),), **one)
    with pytest.raises(InvariantViolation, match=beyond.format(2**60, 1)):
        _sweep(test_size=largest - 7, **one)
    with pytest.raises(InvariantViolation, match=beyond.format(2**60, 1)):
        _sweep(learners=(SemiSupPfld(unlabeled_count=2**60),), **one)
    # the sweep's risks, grid values x learners x reps float64 values, and a cell's scores, learners x
    # test_size, likewise; 3 x 3 learners take 72 bytes a rep, 9 learners 72 bytes a test row, more than a
    # drawn row's 8 columns, so these bounds are met before the draw's
    csv = CsvSource(path="absent.csv", label_column="label", positive_label="pos")
    count = (2**63 - 1) // 72 + 1
    for name, learners, shape, axes in (
        ("reps", (Mnlr(), Pfld(), Ridge(lam=1.0)), "3 x 3", "grid values x learners x reps"),
        ("test_size", tuple(Ridge(lam=float(k), name=f"r{k}") for k in range(1, 10)), "9", "learners x test_size"),
    ):
        for source in (GaussianSpec(dim=8, informative=3), csv):
            _sweep(data_source=source, learners=learners, **{name: count - 1})
            with pytest.raises(InvariantViolation, match=(
                rf"^{name}={count} needs an array of {shape} x {count} float64 values \({axes}\), "
                r"beyond numpy's largest array \(2\*\*63 - 1 bytes\)$"
            )):
                _sweep(data_source=source, learners=learners, **{name: count})


# -- the harness -----------------------------------------------------------


def test_single_point_feature_sweep_matches_manual_run():
    spec = _sweep(grid=(12,), reps=1)
    result = run_feature_curve(spec)
    pool = gen_two_gaussians(
        GaussianSpec(dim=12, informative=3, separation=2.0),
        spec.fixed_n + spec.test_size,
        mix(17, 0),
    )
    tr, te = split_indices(pool.y, spec.fixed_n, mix(17, 0, cv.SEED_SPLIT))
    model = fit(Mnlr(), pool.x[tr], pool.y[tr])
    manual = zero_one_risk(predict(model, pool.x[te]), pool.y[te])
    assert result.points[0].stats["mnlr"].mean_risk == manual


def test_single_point_learning_sweep_matches_manual_run():
    spec = _sweep(kind="learning_curve", grid=(6,), fixed_n=None, fixed_N=8, reps=1, test_size=94)
    result = run_learning_curve(spec)
    pool = gen_two_gaussians(
        GaussianSpec(dim=12, informative=3, separation=2.0), 100, mix(17, 0)
    )
    tr, te = split_indices(pool.y, 6, mix(17, 0, cv.SEED_SPLIT))
    rows = tr[subsample_indices(pool.y[tr], 6, mix(17, 0, cv.SEED_SUBSAMPLE, 6))]
    model = fit(Mnlr(), pool.x[rows, :8], pool.y[rows])
    manual = zero_one_risk(predict(model, pool.x[te, :8]), pool.y[te])
    assert result.points[0].stats["mnlr"].mean_risk == manual


def test_repeat_runs_are_bit_identical():
    spec = _sweep(learners=(Mnlr(), Ridge(lam=0.5)))
    assert run_feature_curve(spec, keep_reps=True) == run_feature_curve(spec, keep_reps=True)


def test_parallel_equals_serial():
    spec = _sweep(reps=6, learners=(Mnlr(), Ridge(lam=0.5)))
    serial = run_feature_curve(spec, keep_reps=True)
    threaded = run_feature_curve(spec, keep_reps=True, workers=4)
    assert serial == threaded


@pytest.mark.parametrize("workers", [0, -1, 2.5, 2.0, True, False, "2"])
def test_run_sweep_rejects_workers_that_are_not_a_positive_integer(workers):
    with pytest.raises(ValueError) as rejected:  # the config's number rule
        _check(workers, int, "workers", ValueError, ">=", 1)
    with pytest.raises(ValueError, match=f"^{re.escape(str(rejected.value))}$"):
        cv.run_sweep(_sweep(), workers=workers)


def test_learners_share_identical_data_per_cell():
    # two copies of the same learner must produce identical per-rep risks
    spec = _sweep(learners=(Mnlr(), Mnlr(name="again")))
    result = run_feature_curve(spec, keep_reps=True)
    assert result.rep_risks["mnlr"] == result.rep_risks["again"]


def test_aggregates_match_feature_reps():
    spec = _sweep(reps=5)
    result = run_feature_curve(spec, keep_reps=True)
    for pi, point in enumerate(result.points):
        v = np.array(result.rep_risks["mnlr"][pi])
        s = point.stats["mnlr"]
        assert abs(s.mean_risk - v.mean()) <= 1e-12
        assert abs(s.std_risk - v.std(ddof=1)) <= 1e-12
        assert abs(s.stderr_risk - v.std(ddof=1) / np.sqrt(5)) <= 1e-12
        assert s.min_risk == v.min() and s.max_risk == v.max()
        assert s.rep_count == 5


def test_single_rep_has_zero_spread():
    result = run_feature_curve(_sweep(reps=1))
    s = result.points[0].stats["mnlr"]
    assert s.std_risk == 0.0 and s.stderr_risk == 0.0
    assert s.min_risk == s.mean_risk == s.max_risk


def test_learning_and_alpha_x_values():
    lr = run_learning_curve(
        _sweep(kind="learning_curve", grid=(4, 6, 8), fixed_n=None, fixed_N=6, test_size=92)
    )
    assert [p.x_value for p in lr.points] == [4.0, 6.0, 8.0]
    ar = run_alpha_curve(
        _sweep(kind="alpha_curve", grid=(0.5, 1.0, 1.5), fixed_n=None, fixed_N=6, test_size=91)
    )
    assert [p.x_value for p in ar.points] == [0.5, 1.0, 1.5]


def test_semisup_unlabeled_pool_matches_manual_run():
    spec = _sweep(grid=(12,), reps=1, learners=(SemiSupPfld(unlabeled_count=10),))
    result = run_feature_curve(spec)
    pool = gen_two_gaussians(
        GaussianSpec(dim=12, informative=3, separation=2.0), 100, mix(17, 0)
    )
    tr, te = split_indices(pool.y, 8, mix(17, 0, cv.SEED_SPLIT))
    unlab = gen_two_gaussians(
        GaussianSpec(dim=12, informative=3, separation=2.0),
        10,
        mix(17, 0, cv.SEED_UNLABELED),
    ).x[:10]
    model = fit(SemiSupPfld(unlabeled_count=10), pool.x[tr], pool.y[tr], x_unlabeled=unlab)
    manual = zero_one_risk(predict(model, pool.x[te]), pool.y[te])
    assert result.points[0].stats["semisup_pfld(10)"].mean_risk == manual


def test_semisup_odd_pool_is_the_prefix_of_the_next_even_draw(monkeypatch):
    pools = []

    class Recording(cv._FitContext):
        def __init__(self, x, y, unlabeled=None):
            super().__init__(x, y, unlabeled)
            pools.append(self.pool.unlabeled)

    monkeypatch.setattr(cv, "_FitContext", Recording)
    spec = _sweep(reps=1, learners=(SemiSupPfld(unlabeled_count=7),))
    run_feature_curve(spec)
    eight = gen_two_gaussians(GSPEC, 8, mix(17, 0, cv.SEED_UNLABELED)).x
    # every cell shares the rep's pool, cut to the widest cell's columns
    assert len(pools) == len(spec.grid) and all(p.shape == (7, max(spec.grid)) for p in pools)
    for pool, cols in zip(pools, spec.grid):
        assert np.array_equal(pool[:, :cols], eight[:7, :cols])


def test_semisup_without_unlabeled_rows_fits_from_an_empty_pool():
    zero = SemiSupPfld(unlabeled_count=0)
    alone = run_feature_curve(_sweep(learners=(Pfld(), zero)), keep_reps=True)
    beside = run_feature_curve(_sweep(learners=(zero, SemiSupPfld(unlabeled_count=40))), keep_reps=True)
    assert alone.rep_risks["semisup_pfld(0)"] == beside.rep_risks["semisup_pfld(0)"]


def _count_calls(monkeypatch, owner, attr, counts, key=None):
    """Count calls of ``owner.attr`` in ``counts[key()]`` (``key`` defaults to the name)."""
    real = getattr(owner, attr)

    def counting(*args, **kwargs):
        k = key() if key else attr
        counts[k] = counts.get(k, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)


def test_sweep_cells_share_one_check_and_one_centred_svd(monkeypatch):
    ridges = (Ridge(lam=0.1), Ridge(lam=10.0))
    spec = _sweep(
        grid=(2, 4, 8, 12),
        learners=(Mnlr(), Pfld(), *ridges, SemiSupPfld(unlabeled_count=8), SemiSupPfld(unlabeled_count=2)),
        risk_metric="squared",
    )
    cells = len(spec.grid) * spec.reps
    fitting = {"label": None}  # the learner whose fit is running
    real_fit = cv.fit

    def labelled_fit(learner, x, y, x_unlabeled=None):
        fitting["label"] = learner.label
        try:
            return real_fit(learner, x, y, x_unlabeled=x_unlabeled)
        finally:
            fitting["label"] = None

    svds, checks = {}, {}
    monkeypatch.setattr(cv, "fit", labelled_fit)
    for owner in (learners, linalg):
        _count_calls(monkeypatch, owner, "thin_svd", svds, key=lambda: fitting["label"])
    _count_calls(monkeypatch, learners, "as_labels", checks)
    _count_calls(monkeypatch, data.Dataset, "_hold", checks)
    result = run_feature_curve(spec, keep_reps=True)

    # no label check beyond the data steps' own: a cell trusts its rep's checked arrays
    assert checks["as_labels"] == checks["_hold"]
    assert None not in svds  # no SVD outside a fit
    # full-rank MNLR and whitened SemiSupPfld fits solve by QR and take no SVD,
    # and 8 + 8 pooled rows at 12 columns whiten with R's inverse, so take none;
    # 8 + 2 pooled rows are wide at 12 columns, so each cell takes one SVD of
    # its R's columns; PFLD and both ridges share one
    assert "mnlr" not in svds and "semisup_pfld(8)" not in svds
    assert svds["semisup_pfld(2)"] == cells
    assert sum(svds.get(label, 0) for label in ("pfld", "ridge(0.1)", "ridge(10)")) == cells

    # the shared factorization leaves each ridge risk equal to a fit of its own
    for rep in range(spec.reps):
        train_x, train_y, test_x, test_y, _ = _rep_arrays(spec, rep, 0)
        for pi, cols in enumerate(spec.grid):
            x = np.ascontiguousarray(train_x[:, :cols])
            for ridge in ridges:
                model = fit(ridge, x, train_y)
                alone = squared_risk(decision_values(model, test_x[:, :cols]), test_y)
                assert result.rep_risks[ridge.label][pi][rep] == alone


def test_sweep_without_centred_learners_factors_no_centred_matrix(monkeypatch):
    spec = _sweep(learners=(Mnlr(), MaxMargin()))
    calls = {}
    for owner in (learners, linalg):
        _count_calls(monkeypatch, owner, "thin_svd", calls)
    _count_calls(monkeypatch, learners._FitContext, "centred", calls)
    run_feature_curve(spec)
    assert calls == {}  # and MNLR's full-rank cells solve by QR, taking no SVD either


def _record_pool_factors(monkeypatch):
    """The results of every ``_Pool.factor`` call, in order; a factoring that
    was done once and then reused returns the same arrays each time."""
    results, real = [], learners._Pool.factor

    def recording(pool, u):
        results.append(real(pool, u))
        return results[-1]

    monkeypatch.setattr(learners._Pool, "factor", recording)
    return results


def _distinct(arrays) -> int:
    return len({id(a) for a in arrays})  # the arrays stay alive in the record, so ids are not reused


def test_semisup_pool_is_factored_once_per_rep_and_count(monkeypatch):
    factors = _record_pool_factors(monkeypatch)
    semisup = SemiSupPfld(unlabeled_count=8)  # 8 + 8 rows at 8 columns: an 8 x 8 R
    feature = _sweep(learners=(Mnlr(), semisup))
    run_feature_curve(feature)
    assert _distinct(f[2] for f in factors) == feature.reps and all(f[2].shape == (8, 8) for f in factors)
    factors.clear()
    run_feature_curve(_sweep(learners=(semisup, SemiSupPfld(unlabeled_count=20))))
    assert _distinct(f[2] for f in factors) == 2 * feature.reps  # one factor per count
    factors.clear()
    # n = 4 and 6 subsample the 8 training rows: each such cell factors its own pool
    learning = _sweep(kind="learning_curve", grid=(4, 6, 8), fixed_n=None, fixed_N=4, learners=(semisup,))
    run_learning_curve(learning)
    assert _distinct(f[2] for f in factors) == 2 * learning.reps + learning.reps  # and n = 8 shares the rep's pool


def test_sweep_semisup_whitens_a_tall_pool_by_the_inverse_of_r(monkeypatch):
    # 8 training rows and 16 or 20 unlabeled rows are more than the widest 8
    # columns: each rep inverts R once per count, and no cell takes an SVD
    semisups = (SemiSupPfld(unlabeled_count=16), SemiSupPfld(unlabeled_count=20))
    spec = _sweep(learners=semisups)
    svds = {}
    for owner in (learners, linalg):
        _count_calls(monkeypatch, owner, "thin_svd", svds)
    factors = _record_pool_factors(monkeypatch)
    result = run_feature_curve(spec, keep_reps=True)
    assert svds == {}  # and each cell's whitened MNLR is full rank, solved by QR
    assert all(f[3] is not None and f[2].shape == f[3].shape == (8, 8) for f in factors)
    assert _distinct(f[3] for f in factors) == len(semisups) * spec.reps
    # numpy's SVD of each cell's whole pool, an independent oracle, decides alike
    for rep in range(spec.reps):
        train_x, train_y, test_x, test_y, unlab = _rep_arrays(spec, rep, 20)
        for pi, cols in enumerate(spec.grid):
            for learner in semisups:
                pool = unlab[: learner.unlabeled_count, :cols]
                _, ref = whitened_reference(train_x[:, :cols], train_y, pool)
                risk = zero_one_risk(predict(ref, test_x[:, :cols]), test_y)
                assert result.rep_risks[learner.label][pi][rep] == risk


def test_sweep_names_the_rep_of_a_non_finite_unlabeled_pool(monkeypatch):
    real_draw = cv.gen_two_gaussians

    def draw(spec, n, seed):  # the unlabeled draw, the only one of 8 rows, gets a NaN
        data = real_draw(spec, n, seed)
        return data if n != 8 else SimpleNamespace(x=np.where(np.arange(12) == 5, np.nan, data.x))

    monkeypatch.setattr(cv, "gen_two_gaussians", draw)
    with pytest.raises(ValueError, match="^unlabeled pool of rep 0: unlabeled features must be finite$"):
        run_feature_curve(_sweep(learners=(Mnlr(), SemiSupPfld(unlabeled_count=8))))


def _semisup_csv(tmp_path):
    rng = np.random.default_rng(41)
    rows = [",".join([f"f{j}" for j in range(8)] + ["label"])]
    for i in range(100):
        vals = rng.normal(0.7 if i % 2 else -0.7, 1.2, size=8)
        rows.append(",".join([*(f"{v:.6f}" for v in vals), "pos" if i % 2 else "neg"]))
    path = tmp_path / "semisup.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return CsvSource(path=str(path), label_column="label", positive_label="pos")


def _record_fits(monkeypatch):
    """``{(label, x_value, rep): model}`` of every fit ``run_sweep`` makes, filled as it runs."""
    models, real_fit_cell = {}, cv._fit_cell

    def recording(learners, cell, test_blocks, test_y, metric, x_value, rep):
        for learner in learners:
            models[learner.label, x_value, rep] = fit(learner, cell.x, cell.y, x_unlabeled=cell)
        return real_fit_cell(learners, cell, test_blocks, test_y, metric, x_value, rep)

    monkeypatch.setattr(cv, "_fit_cell", recording)
    return models


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("source", ["gaussian", "csv"])
def test_sweep_semisup_equals_fit_on_each_cells_own_arrays(monkeypatch, tmp_path, source, workers):
    # the sweep reads the leading blocks of the R and R^-1 of the rep's pool at
    # the widest 8 columns, where a fit of the cell's own arrays factors its own
    semisups = (SemiSupPfld(unlabeled_count=3), SemiSupPfld(unlabeled_count=20))
    data_source = GaussianSpec(dim=8, informative=3, separation=1.5) if source == "gaussian" else _semisup_csv(tmp_path)
    spec = _sweep(grid=(2, 5, 8), learners=semisups, data_source=data_source, fixed_n=10, test_size=60)
    models = _record_fits(monkeypatch)
    result = cv.run_sweep(spec, keep_reps=True, workers=workers)
    for rep in range(spec.reps):
        train_x, train_y, test_x, test_y, unlab = _rep_arrays(spec, rep, 20)
        for pi, cols in enumerate(spec.grid):
            x = np.ascontiguousarray(train_x[:, :cols])
            for learner in semisups:
                own = fit(learner, x, train_y, x_unlabeled=unlab[:, :cols])
                risk = zero_one_risk(predict(own, test_x[:, :cols]), test_y)
                assert result.rep_risks[learner.label][pi][rep] == risk
                swept = models[learner.label, float(cols), rep]
                np.testing.assert_allclose(swept.weights, own.weights, rtol=1e-10)
                assert abs(swept.bias - own.bias) <= 1e-10  # on the scale of the +-1 targets, often ~0


def test_semisup_decides_as_mnlr_on_every_tall_cell_and_not_past_the_threshold():
    # On a cell with N + 1 <= n, [X, 1] has full column rank, and its least-squares
    # fit is unchanged by SemiSupPfld's invertible whitening, so the two learners
    # decide alike up to the peak cell N = n - 1; past the threshold the minimum
    # norm is taken in the pool's metric and the decisions part (ROADMAP item 18)
    semisup = SemiSupPfld(unlabeled_count=400)
    spec = SweepSpec(
        kind="feature_curve", grid=(20, 30, 36, 39, 60), fixed_n=40, test_size=500, reps=3, base_seed=7,
        learners=(Mnlr(), semisup), data_source=GaussianSpec(),
    )
    risks = run_feature_curve(spec, keep_reps=True).rep_risks
    assert risks["mnlr"][:4] == risks[semisup.label][:4]
    assert risks["mnlr"][4] != risks[semisup.label][4]
    cell = gen_two_gaussians(spec.data_source, 40, 8)
    x, unlabeled = cell.x[:, :20], gen_two_gaussians(spec.data_source, 400, 9).x[:, :20]
    test_x = gen_two_gaussians(spec.data_source, 500, 10).x[:, :20]
    expected = decision_values(fit(Mnlr(), x, cell.y), test_x)
    got = decision_values(fit(semisup, x, cell.y, x_unlabeled=unlabeled), test_x)
    assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_learner_failure_identifies_cell(monkeypatch):
    calls = {"n": 0}
    real_fit = cv.fit

    def flaky(spec, x, y, x_unlabeled=None):
        calls["n"] += 1
        if calls["n"] == 4:
            raise SingleClassInput("boom")
        return real_fit(spec, x, y, x_unlabeled=x_unlabeled)

    monkeypatch.setattr(cv, "fit", flaky)
    with pytest.raises(SingleClassInput) as err:
        run_feature_curve(_sweep())
    msg = str(err.value)
    assert "mnlr" in msg and "rep=1" in msg and "x=2" in msg


def test_every_source_has_a_per_rep_draw():
    # a source the config accepts but the sweep cannot draw would fail only at run time
    assert set(cv._REP_ROWS) == set(data.SOURCES)


def _blocks_csv(tmp_path):
    """A CSV of 700 rows and 30 feature columns: enough for a test set of 600 after 10 train rows."""
    rng = np.random.default_rng(43)
    lines = [",".join([f"f{j}" for j in range(30)] + ["label"])]
    for i in range(700):
        vals = rng.normal(0.5 if i % 2 else -0.5, 1.3, size=30)
        lines.append(",".join([*(f"{v:.6f}" for v in vals), "pos" if i % 2 else "neg"]))
    path = tmp_path / "blocks.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return CsvSource(path=str(path), label_column="label", positive_label="pos")


def _blocks_source(tmp_path, source):
    if source == "gaussian":
        return GaussianSpec(dim=30, informative=3, separation=1.5)
    return replace(_blocks_csv(tmp_path), standardize=source == "csv")


@pytest.mark.parametrize("source", ["gaussian", "csv", "raw_csv"])
def test_rep_draws_are_arrays_of_their_own(tmp_path, source):
    # a rep may write its arrays and its test blocks in place, as a CSV rep standardizes them
    data_source = _blocks_source(tmp_path, source)
    spec = _sweep(grid=(2, 5, 8), data_source=data_source, fixed_n=10, test_size=600)
    draw = cv._REP_ROWS[data_source.source](spec, 5)
    reference = _rep_arrays(spec, 0, 5)
    # a CSV rep's 600 test rows are two full blocks and a partial one, a Gaussian rep's its one test array
    sizes = [600] if source == "gaussian" else [256, 256, 88]
    for _ in range(2):  # a second draw of the rep gives the same bytes
        train_x, train_y, test_blocks, test_y, unlab_x = draw(0)
        drawn = [train_x, train_y, test_y, unlab_x]
        assert [(a.shape, a.dtype) for a in drawn] == [
            ((10, 30), np.float64), ((10,), np.int64), ((600,), np.int64), ((5, 30), np.float64),
        ]
        assert [a.tobytes() for a in drawn] == [b.tobytes() for i, b in enumerate(reference) if i != 2]
        for cols in (30, 8, 30):  # one cell's pass, and the next cells'
            blocks = list(test_blocks(cols))
            assert [(b.shape, b.dtype) for b in blocks] == [((k, cols), np.float64) for k in sizes]
            assert np.concatenate(blocks).tobytes() == np.ascontiguousarray(reference[2][:, :cols]).tobytes()
            assert source == "gaussian" or all(b.flags.c_contiguous for b in blocks)
        # a CSV pass gathers fresh blocks; a Gaussian pass yields a view of the rep's own test array again
        first, second = list(test_blocks(30)), list(test_blocks(30))
        arrays = [*drawn, *first]
        if source == "gaussian":
            assert np.shares_memory(first[0], second[0])
        else:
            arrays += second
        for i, a in enumerate(arrays):
            assert a.flags.c_contiguous and a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


def test_row_blocks_start_at_multiples_of_256_and_leave_no_lone_row():
    # every test row keeps its place in a gemv kernel's row groups, and no
    # block is one row, which numpy would score by a dot product instead
    assert cv._BLOCK_ROWS % 256 == 0
    x = np.arange(700.0)[:, None]
    for rows, sizes in (
        (1, [1]), (2, [2]), (255, [255]), (256, [256]), (257, [257]), (258, [256, 2]),
        (513, [256, 257]), (600, [256, 256, 88]),
    ):
        blocks = list(cv._row_blocks(x, np.arange(rows)))
        assert [len(b) for b in blocks] == sizes
        assert np.concatenate(blocks).ravel().tolist() == list(range(rows))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("test_size", [60, 256, 257, 600])
@pytest.mark.parametrize("metric", ["zero_one", "squared"])
@pytest.mark.parametrize("source", ["gaussian", "csv", "raw_csv"])
def test_blocked_risks_equal_scoring_the_whole_test_matrix(monkeypatch, tmp_path, source, metric, test_size, workers):
    # of a CSV's test rows, 60 make one partial block, 256 one full block, 257 a
    # block with the lone last row, 600 two full blocks and 88 rows; a Gaussian
    # rep scores its one test array
    spec = _sweep(
        grid=(2, 5, 13, 30), data_source=_blocks_source(tmp_path, source), fixed_n=10, test_size=test_size,
        risk_metric=metric, learners=(Mnlr(), Ridge(lam=0.5), SemiSupPfld(unlabeled_count=6)),
    )
    models = _record_fits(monkeypatch)
    result = cv.run_sweep(spec, keep_reps=True, workers=workers)
    with linalg.single_blas_thread:  # as the sweep scores
        for rep in range(spec.reps):
            _, _, test_x, test_y, _ = _rep_arrays(spec, rep, 6)
            for pi, cols in enumerate(spec.grid):
                for learner in spec.learners:
                    model = models[learner.label, float(cols), rep]
                    scores = test_x[:, :cols] @ model.weights + model.bias
                    if metric == "zero_one":
                        whole = zero_one_risk(np.where(scores >= 0.0, 1, -1), test_y)
                    else:
                        whole = squared_risk(scores, test_y)
                    assert result.rep_risks[learner.label][pi][rep] == whole


def test_csv_source_sweep(tmp_path):
    rng = np.random.default_rng(23)
    rows = ["f1,f2,f3,label"]
    for i in range(40):
        cls = "pos" if i % 2 == 0 else "neg"
        mu = 1.0 if cls == "pos" else -1.0
        vals = rng.normal(mu, 1.0, size=3)
        rows.append(f"{vals[0]:.6f},{vals[1]:.6f},{vals[2]:.6f},{cls}")
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    source = CsvSource(path=str(path), label_column="label", positive_label="pos")
    spec = _sweep(grid=(1, 2, 3), data_source=source, fixed_n=10, test_size=20, reps=4)
    result = run_feature_curve(spec, keep_reps=True)
    assert len(result.points) == 3
    assert result == run_feature_curve(spec, keep_reps=True)
    with pytest.raises(OutOfRange):
        run_feature_curve(_sweep(grid=(1, 2), data_source=source, fixed_n=30, test_size=20))
    with pytest.raises(GridExceedsDimension):
        run_feature_curve(_sweep(grid=(1, 4), data_source=source, fixed_n=10, test_size=20))


def test_csv_leftover_pool_matches_standardize_then_slice(tmp_path):
    # 80 rows: 10 train, 20 test, 50 leftover, of which a semi-supervised learner reads 5
    rng = np.random.default_rng(29)
    rows = ["f1,f2,f3,f4,label"]
    for i in range(80):
        vals = rng.normal(0.8 if i % 3 else -0.8, 1.5, size=4)
        rows.append(",".join([*(f"{v:.6f}" for v in vals), "pos" if i % 3 else "neg"]))
    path = tmp_path / "big.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    source = CsvSource(path=str(path), label_column="label", positive_label="pos")
    learners = (SemiSupPfld(unlabeled_count=5), Mnlr())
    spec = _sweep(
        grid=(2, 4), data_source=source, fixed_n=10, test_size=20, reps=3, learners=learners, risk_metric="squared"
    )
    cases = [  # (spec, workers)
        (spec, 1),
        (spec, 2),
        (replace(spec, data_source=replace(source, standardize=False)), 1),
        # its cells below n = 10 subsample the gathered train rows
        (replace(spec, kind="learning_curve", grid=(4, 7, 10), fixed_n=None, fixed_N=4), 1),
        # no learner reads unlabeled rows, so the rep's pool is empty
        (replace(spec, learners=(Mnlr(), Ridge(lam=0.5))), 1),
    ]
    for case, workers in cases:
        result = cv.run_sweep(case, keep_reps=True, workers=workers)
        max_unlab = max(getattr(learner, "unlabeled_count", 0) for learner in case.learners)
        for rep in range(3):
            # every leftover row is standardized, then the first max_unlab kept
            train_x, train_y, test_x, test_y, unlab = _rep_arrays(case, rep, max_unlab)
            for pi, x_val in enumerate(case.grid):
                n, cols = case._cell(x_val)
                rows = slice(None) if n == 10 else subsample_indices(train_y, n, mix(17, rep, cv.SEED_SUBSAMPLE, n))
                # a cell of every train row whitens with the pool of the rep's widest rows
                widest = case._columns()
                pool = cv._Pool(train_x[:, :widest], unlab[:, :widest]) if n == 10 else unlab[:, :cols]
                cell = cv._FitContext(np.ascontiguousarray(train_x[rows, :cols]), train_y[rows], pool)
                for learner in case.learners:
                    model = fit(learner, cell.x, cell.y, x_unlabeled=cell)
                    scores = test_x[:, :cols] @ model.weights + model.bias
                    assert result.rep_risks[learner.label][pi][rep] == float(np.mean((scores - test_y) ** 2))
    alone = run_feature_curve(replace(spec, learners=(Mnlr(),)), keep_reps=True)
    assert alone.rep_risks["mnlr"] == run_feature_curve(spec, keep_reps=True).rep_risks["mnlr"]


def _wide_csv(tmp_path):
    """``(path, matrix bytes)`` of a 4000 x 30 CSV of standard normal features."""
    rng = np.random.default_rng(37)
    values = rng.standard_normal((4000, 30))
    lines = [",".join([f"f{j}" for j in range(30)] + ["cls"])]
    lines += [",".join([*map(repr, row.tolist()), "pq"[i % 2]]) for i, row in enumerate(values)]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path), values.nbytes


def _traced_peak(spec, workers=1) -> int:
    """The tracemalloc peak of ``run_sweep(spec)``, in bytes."""
    tracemalloc.start()
    try:
        cv.run_sweep(spec, workers=workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_sweep_holds_the_matrix_about_once(tmp_path):
    # a rep gathers its train and unlabeled rows once each, so the sweep's
    # peak is the load's, not a copy of every row beyond the train pool
    path, nbytes = _wide_csv(tmp_path)
    for standardize_rows in (True, False):
        source = CsvSource(path=path, label_column="cls", positive_label="p", standardize=standardize_rows)
        spec = _sweep(
            grid=(5, 10, 30), data_source=source, fixed_n=10, test_size=50, reps=2,
            learners=(Mnlr(), SemiSupPfld(unlabeled_count=20)),
        )
        peak = _traced_peak(spec)
        assert peak <= 2 * nbytes, (standardize_rows, peak / nbytes)


@pytest.mark.parametrize("workers, bound", [(1, 1.6), (2, 2.2)])
def test_csv_sweep_scores_its_test_rows_without_copying_them(tmp_path, workers, bound):
    # 3900 of the 4000 rows are each rep's test set: a running rep holds one
    # block of them and a cell's scores, not a copy of the test set
    path, nbytes = _wide_csv(tmp_path)
    source = CsvSource(path=path, label_column="cls", positive_label="p")
    spec = _sweep(grid=(5, 10, 30), data_source=source, fixed_n=10, test_size=3900, reps=2)
    peak = _traced_peak(spec, workers)
    assert peak <= bound * nbytes, peak / nbytes


def test_cell_rule_per_kind():
    # each kind maps grid value x to its cell (n, N); the training pool and
    # the feature columns a source must supply are the maxima over the grid
    cases = [
        (_sweep(grid=(2, 4, 8, 12)), [(8, 2), (8, 4), (8, 8), (8, 12)]),
        (
            _sweep(kind="learning_curve", grid=(2, 5, 8), fixed_n=None, fixed_N=8),
            [(2, 8), (5, 8), (8, 8)],
        ),
        (  # 2.5 and 4.5 round half away from zero, to 3 and 5
            _sweep(kind="alpha_curve", grid=(0.3125, 0.5625, 1.0, 1.5), fixed_n=None, fixed_N=8),
            [(3, 8), (5, 8), (8, 8), (12, 8)],
        ),
    ]
    for spec, cells in cases:
        assert [spec._cell(x) for x in spec.grid] == cells
        assert spec.train_rows() == max(n for n, _ in cells)
        assert spec._columns() == max(N for _, N in cells)


def test_interpolation_threshold_per_kind():
    assert interpolation_threshold(_sweep()) == 8.0
    assert interpolation_threshold(
        _sweep(kind="learning_curve", grid=(4, 8), fixed_n=None, fixed_N=6, test_size=92)
    ) == 6.0
    assert interpolation_threshold(
        _sweep(kind="alpha_curve", grid=(0.5, 1.0), fixed_n=None, fixed_N=6, test_size=94)
    ) == 1.0


@pytest.mark.parametrize(
    "kw, threshold",
    [
        ({}, 7.0),
        (dict(kind="learning_curve", grid=(4, 8), fixed_n=None, fixed_N=6, test_size=92), 7.0),
        (dict(kind="alpha_curve", grid=(0.5, 1.0), fixed_n=None, fixed_N=6, test_size=94), 7 / 6),
    ],
)
def test_square_system_threshold_per_kind(kw, threshold):
    spec = _sweep(**kw)
    assert square_system_threshold(spec) == threshold
    n, N = spec._cell(threshold)
    assert n == N + 1  # [X, 1] is square there


# -- peak detection ----------------------------------------------------------


def _result_with_means(means, xs, threshold_x):
    spec = SweepSpec(
        kind="feature_curve",
        grid=tuple(int(x) for x in xs),
        learners=(Mnlr(name="m"),),
        data_source=GaussianSpec(dim=max(int(x) for x in xs), informative=2, separation=1.0),
        fixed_n=threshold_x,
        test_size=100 - threshold_x,
        reps=1,
        base_seed=0,
    )
    points = tuple(
        CurvePoint(
            x_value=float(x),
            stats={"m": LearnerStats(m, 0.02, 0.02, m, m, 1)},
        )
        for x, m in zip(xs, means)
    )
    return CurveResult(spec=spec, points=points, provenance=Provenance(0, "test"))


def test_result_checks_its_points_and_rep_risks_against_its_spec():
    result = _result_with_means([0.3, 0.2, 0.5], [10, 20, 30], threshold_x=30)
    a, b, c = result.points
    for points, message in (
        ((a, b), "points must match the 3-point grid, got 2"),
        ((a, c, b), "points[1]: expected x_value 20 with stats for ['m']"),
        ((a, b, 30.0), "points: 30.0 is not a CurvePoint"),
        ((a, replace(b, x_value=21.0), c), "points[1]: expected x_value 20 with stats for ['m']"),
        ((a, b, replace(c, stats={**c.stats, "n": c.stats["m"]})),
         "points[2]: expected x_value 30 with stats for ['m']"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(result, points=points)
    # each point's stats, their rep counts and the provenance's seed follow the spec
    with pytest.raises(ValueError, match=re.escape("stats: 0.5 is not a LearnerStats")):
        CurvePoint(2.0, {"m": 0.5})
    with pytest.raises(ValueError, match=re.escape("points[1]: rep_count must be the spec's 1 reps")):
        replace(result, points=(a, replace(b, stats={"m": replace(b.stats["m"], rep_count=7)}), c))
    with pytest.raises(ValueError, match=re.escape("provenance: base_seed must be the spec's base_seed")):
        replace(result, provenance=Provenance(99, "test"))
    reps = ((0.3,), (0.2,), (0.5,))
    assert replace(result, rep_risks={"m": reps}).rep_risks == {"m": reps}
    # the number rule applies to each risk, and the risks are stored as tuples of floats
    kept = replace(result, rep_risks={"m": [[0.3], [np.float64(0.2)], [1]]}).rep_risks["m"]
    assert kept == reps[:2] + ((1.0,),) and [type(r) for row in kept for r in row] == [float] * 3
    assert all(type(row) is tuple for row in (kept, *kept))
    message = "rep_risks: expected 1 risks at each of 3 points for each of ['m']"
    for rep_risks in ({"n": reps}, {"m": reps, "n": reps}, {"m": reps[:2]}, {"m": (*reps[:2], (0.5, 0.5))}):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(result, rep_risks=rep_risks)
    for rep_risks, message in (
        ({"m": (*reps[:2], ("0.5",))}, "rep_risks['m']: each risk must be float, got '0.5'"),
        ({"m": (*reps[:2], (True,))}, "rep_risks['m']: each risk must be float, got True"),
        ({"m": (*reps[:2], (float("nan"),))}, "rep_risks['m']: each risk must be finite, got nan"),
        ({"m": (*reps[:2], 0.5)}, "rep_risks['m']: each point must be a sequence, got 0.5"),
        ({"m": 0.5}, "rep_risks['m'] must be a sequence, got 0.5"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(result, rep_risks=rep_risks)


def test_detect_peak_hand_case():
    result = _result_with_means([0.3, 0.2, 0.5, 0.1], [10, 20, 30, 40], threshold_x=30)
    report = detect_peak(result, "m")
    assert report.peak_x == 30.0
    assert abs(report.prominence - 0.3) < 1e-15
    assert report.peak_mean == 0.5
    assert report.at_interpolation


def test_detect_peak_threshold_mismatch():
    result = _result_with_means([0.3, 0.2, 0.5, 0.1], [10, 20, 30, 40], threshold_x=10)
    assert not detect_peak(result, "m").at_interpolation


def test_detect_peak_monotone_curve():
    result = _result_with_means([0.5, 0.4, 0.3, 0.2], [10, 20, 30, 40], threshold_x=20)
    report = detect_peak(result, "m")
    assert report.prominence == 0.0
    assert not report.at_interpolation
    assert report.peak_x == 10.0  # global maximum still reported


def test_detect_peak_edge_only_maximum():
    result = _result_with_means([0.4, 0.1, 0.1, 0.1], [10, 20, 30, 40], threshold_x=20)
    report = detect_peak(result, "m")
    assert report.prominence == 0.0
    assert not report.at_interpolation


def test_detect_peak_picks_most_prominent():
    result = _result_with_means(
        [0.1, 0.3, 0.1, 0.5, 0.2, 0.25, 0.1], [10, 20, 30, 40, 50, 60, 70], threshold_x=40
    )
    report = detect_peak(result, "m")
    assert report.peak_x == 40.0
    # nearest local minima flank the peak at 0.1 (left) and 0.2 (right)
    assert abs(report.prominence - 0.3) < 1e-15


def test_detect_peak_flat_top_counts_once():
    # the MNLR feature curve of a max-margin CLI benchmark input: equal means
    # at N = 36 and N = 40, so no point is a strict maximum
    xs = [5, 10, 20, 30, 36, 40, 44, 60, 80, 120]
    means = [0.0525, 0.013, 0.038833, 0.119833, 0.307833, 0.307833, 0.231667, 0.102833, 0.084167, 0.084333]
    report = detect_peak(_result_with_means(means, xs, threshold_x=40), "m")
    assert report.peak_x == 36.0
    assert report.peak_mean == 0.307833
    assert abs(report.prominence - (0.307833 - 0.084167)) < 1e-15
    assert report.at_interpolation


def test_detect_peak_tie_without_two_lower_neighbors_is_not_a_peak():
    # a tie that runs into the edge, then one that rises on to a higher point
    edge = detect_peak(_result_with_means([0.4, 0.4, 0.1], [10, 20, 30], threshold_x=20), "m")
    assert (edge.peak_x, edge.prominence, edge.at_interpolation) == (10.0, 0.0, False)
    result = _result_with_means([0.1, 0.3, 0.3, 0.5, 0.2], [10, 20, 30, 40, 50], threshold_x=40)
    shoulder = detect_peak(result, "m")
    assert shoulder.peak_x == 40.0
    assert shoulder.at_interpolation
    assert abs(shoulder.prominence - 0.3) < 1e-15  # the descent crosses the tie down to 0.1


def test_detect_peak_descends_through_equal_neighbors():
    xs = [10, 20, 30, 40, 50, 60, 70]
    report = detect_peak(_result_with_means([0.1, 0.2, 0.2, 0.5, 0.2, 0.2, 0.1], xs, threshold_x=40), "m")
    assert report.peak_x == 40.0
    assert abs(report.prominence - 0.4) < 1e-15


def test_detect_peak_requires_three_points():
    result = _result_with_means([0.1, 0.2], [10, 20], threshold_x=10)
    with pytest.raises(TooFewPoints):
        detect_peak(result, "m")


def test_detect_peak_unknown_learner():
    result = _result_with_means([0.1, 0.2, 0.1], [10, 20, 30], threshold_x=20)
    with pytest.raises(ValueError):
        detect_peak(result, "nope")


def test_mnlr_feature_peak_is_where_the_system_with_bias_is_square():
    # MNLR fits a free bias, so [X, 1] is square at N + 1 = n: on a one-step
    # grid around fixed_n = 20 the risk peaks at N = 19, one below N = n.
    spec = SweepSpec(
        kind="feature_curve",
        grid=tuple(range(17, 23)),
        learners=(Mnlr(),),
        data_source=GaussianSpec(dim=40),
        fixed_n=20,
        test_size=500,
        reps=100,
        base_seed=1,
    )
    result = run_feature_curve(spec, keep_reps=True)
    assert detect_peak(result, "mnlr").peak_x == square_system_threshold(spec)
    per_rep = result.rep_risks["mnlr"]
    gap = np.subtract(per_rep[2], per_rep[3])  # risk(N = 19) - risk(N = 20), paired by rep
    assert gap.mean() > 3 * gap.std(ddof=1) / np.sqrt(gap.size)


def test_max_margin_learning_curve_is_monotone_within_noise():
    # after the initial descent from the smallest n, no point of the hinge
    # learner's curve climbs significantly above the n_min risk
    from riskcurves.learners import MaxMargin

    spec = SweepSpec(
        kind="learning_curve",
        grid=(8, 16, 24, 32, 40, 48, 64),
        learners=(MaxMargin(max_iters=1500),),
        data_source=GaussianSpec(dim=40, informative=10, separation=2.5),
        fixed_N=40,
        test_size=1000,
        reps=10,
        base_seed=77,
    )
    result = run_learning_curve(spec, workers=4)
    first = result.points[0].stats["max_margin"]
    for point in result.points[1:]:
        s = point.stats["max_margin"]
        bound = 2.0 * np.sqrt(s.stderr_risk**2 + first.stderr_risk**2)
        assert s.mean_risk <= first.mean_risk + bound, (
            f"mean risk at n={point.x_value:g} exceeds the smallest-n mean beyond noise"
        )


def test_bayes_baseline_monotone_on_feature_grid():
    spec = GaussianSpec(dim=120, informative=10, separation=2.5)
    mu = spec.mean_vector()
    baseline = [bayes_risk(mu[:n]) for n in (5, 10, 20, 30, 36, 40, 44, 60, 80, 120)]
    assert all(b <= a + 1e-15 for a, b in zip(baseline, baseline[1:]))
