"""Experiment harness: feature curves (sweep the feature count N at fixed
training size n), learning curves (sweep n at fixed N), alpha curves (sweep
the ratio alpha = n/N), Monte Carlo aggregation and peak detection.

Seed discipline
---------------
Every random draw derives its seed from ``mix(base_seed, ...)`` so results
never depend on execution order and reps can run in parallel:

* rep data pool:            ``mix(base_seed, rep)``
* train/test split:         ``mix(base_seed, rep, SEED_SPLIT)``
* CSV test/leftover split:  ``mix(base_seed, rep, SEED_SPLIT, 1)``
* unlabeled pool:           ``mix(base_seed, rep, SEED_UNLABELED)``
* subsample of size n:      ``mix(base_seed, rep, SEED_SUBSAMPLE, n)``

``SEED_AUGMENT`` is reserved for callers that augment per-rep data (for
instance with random noise features) and want streams disjoint from the
harness's own.

Within one (grid point, rep) cell all learners are fit and evaluated on
byte-identical data, so per-cell risk differences are attributable to the
learner alone.
"""

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

from ._np import np
from ._schema import _check, _Checked, _param
from ._version import __version__
from .data import (
    SOURCES,
    ColumnTransform,
    CsvSource,
    GaussianSpec,
    _standardize,
    gen_two_gaussians,
    load_csv,
    split_indices,
    subsample_indices,
)
from .errors import (
    GridExceedsDimension,
    InvariantViolation,
    OutOfRange,
    RiskCurvesError,
    TooFewPoints,
)
from .learners import LEARNERS, _FitContext, _Pool, _risk, fit
from .linalg import single_blas_thread

SEED_SPLIT = 1
SEED_UNLABELED = 2
SEED_AUGMENT = 3
SEED_SUBSAMPLE = 4

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

RISK_METRICS = ("zero_one", "squared")


def _avalanche(z: int) -> int:
    """64-bit finalizer with full avalanche (splitmix64 constants)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix(base_seed: int, *parts: int) -> int:
    """Derive a 64-bit seed from a base seed and integer stream tags.

    Iterated avalanche hash: the base is whitened once, then each part is
    folded in and re-avalanched.  Pure integer arithmetic, so the result is
    identical on every platform; order and count of parts both matter.
    """
    h = _avalanche((int(base_seed) & _MASK64) ^ _GAMMA)
    for p in parts:
        h = _avalanche(h ^ ((int(p) + _GAMMA) & _MASK64))
    return h


class CurveKind(str, Enum):
    """The path a curve takes through the (n, N) plane; its value is the
    config ``kind``."""

    FEATURE = "feature_curve"
    LEARNING = "learning_curve"
    ALPHA = "alpha_curve"

    @property
    def _pinned(self) -> str:
        """The :class:`SweepSpec` field this kind holds fixed."""
        return "fixed_n" if self is CurveKind.FEATURE else "fixed_N"

    @property
    def _x_name(self) -> str:
        """The name of the grid's axis."""
        return {CurveKind.FEATURE: "num_features", CurveKind.LEARNING: "num_train", CurveKind.ALPHA: "alpha"}[self]


def _sequence(value, what: str) -> tuple:
    """``tuple(value)``; a value that is not iterable raises InvariantViolation naming ``what``."""
    try:
        return tuple(value)
    except TypeError:
        raise InvariantViolation(f"{what} must be a sequence, got {value!r}") from None


def alpha_train_size(alpha: float, fixed_N: int) -> int:
    """Training size for a ratio point: round(alpha * N), half away from zero.

    ``alpha`` is a float > 0 and ``fixed_N`` an integer >= 1, checked by the
    config's number rule, as is their product."""
    alpha = _check(alpha, float, "alpha", ValueError, ">", 0)
    fixed_N = _check(fixed_N, int, "fixed_N", ValueError, ">=", 1)
    return math.floor(_check(alpha * fixed_N, float, "alpha * fixed_N") + 0.5)


@dataclass(frozen=True, kw_only=True)
class SweepSpec(_Checked):
    """Declarative description of one curve experiment.

    Each curve is a path through the plane of training size n and feature
    count N; :meth:`_cell` maps a grid value x to its cell (n, N):

    * feature curve: ``(fixed_n, x)``, x a feature count;
    * learning curve: ``(x, fixed_N)``, x a training size;
    * alpha curve: ``(alpha_train_size(x, fixed_N), fixed_N)``, x = n/N.

    A kind sets only the field it pins (``CurveKind._pinned``).  The per-rep
    training pool, the feature columns a data source must supply and the
    interpolation threshold all follow from that rule, and every point must
    train on at least 2 rows.  Per-rep seeds all derive from ``base_seed``.

    Fields are in the order of the result JSON's ``spec`` keys; ``learners``
    and ``data_source`` hold entries ``of`` ``LEARNERS`` and ``SOURCES``.
    """

    _error = InvariantViolation
    config_keys = {"base_seed": "seed", "data_source": "data"}

    kind: CurveKind
    grid: tuple
    base_seed: int = 0
    learners: tuple = field(metadata={"of": LEARNERS, "tag": "kind"})
    fixed_n: int | None = _param(">=", 2, default=None)
    fixed_N: int | None = _param(">=", 2, default=None)
    test_size: int = _param(">=", 1, default=2000)
    reps: int = _param(">=", 1, default=50)
    risk_metric: str = "zero_one"
    data_source: GaussianSpec | CsvSource = field(metadata={"of": SOURCES, "tag": "source"})

    def __post_init__(self):
        super().__post_init__()
        self._validate_fields()
        self._validate_source()

    # -- validation ------------------------------------------------------

    @classmethod
    def _check_fields(cls, values: dict) -> dict:
        """Each field in ``values`` on its own: the kind, the grid (by the
        kind), each annotation, then the risk metric's name.  Rules that
        relate fields wait for a whole spec."""
        values = dict(values)
        if "kind" in values:
            try:
                values["kind"] = CurveKind(values["kind"])
            except ValueError:
                raise InvariantViolation(
                    f"kind must be one of {[k.value for k in CurveKind]}, got {values['kind']!r}"
                ) from None
        if "learners" in values:
            values["learners"] = _sequence(values["learners"], "learners")
        if "grid" in values:
            values["grid"] = cls._checked_grid(values["grid"], values["kind"])
        values = super()._check_fields(values)
        if values.get("risk_metric", RISK_METRICS[0]) not in RISK_METRICS:
            raise InvariantViolation(f"risk_metric must be one of {RISK_METRICS}, got {values['risk_metric']!r}")
        return values

    @staticmethod
    def _checked_grid(grid, kind: CurveKind) -> tuple:
        raw = _sequence(grid, "grid")
        if not raw:
            raise InvariantViolation("grid must not be empty")
        typ = float if kind is CurveKind.ALPHA else int  # alpha grids hold ratios n/N, the others counts
        grid = tuple(_check(g, typ, f"{kind._x_name} grid value", InvariantViolation, ">", 0) for g in raw)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvariantViolation("grid must be strictly increasing")
        return grid

    def _validate_fields(self):
        if not self.learners:
            raise InvariantViolation("at least one learner is required")
        labels = [spec.label for spec in self.learners]
        if len(set(labels)) != len(labels):
            raise InvariantViolation(
                f"learner names must be unique, got {labels}; set name= to disambiguate"
            )
        for label in labels:  # a cell of the result CSV, written unquoted
            if any(c in label for c in ",\n\r") or label.startswith('"'):
                raise InvariantViolation(f"learner name {label!r} may not hold ',' or a line break or start with '\"'")
        for name in ("fixed_n", "fixed_N"):
            pinned = name == self.kind._pinned
            if (getattr(self, name) is None) == pinned:
                raise InvariantViolation(f"{self.kind.value}s {'need' if pinned else 'do not use'} {name}")
        for x in self.grid:
            _check(self._cell(x)[0], int, f"the training size at {self.x_name()}={x:g}", InvariantViolation, ">=", 2)

    def _validate_source(self):
        # the sweep's risks and a cell's test scores, in float64 values
        for name, shape, axes in (
            ("reps", (len(self.grid), len(self.learners), self.reps), "grid values x learners x reps"),
            ("test_size", (len(self.learners), self.test_size), "learners x test_size"),
        ):
            if math.prod(shape) * 8 > 2**63 - 1:
                raise InvariantViolation(
                    f"{name}={shape[-1]} needs an array of {' x '.join(map(str, shape))} float64 values "
                    f"({axes}), beyond numpy's largest array (2**63 - 1 bytes)"
                )
        src = self.data_source
        if not isinstance(src, GaussianSpec):  # a CSV's size is checked when the sweep loads it
            return
        if (need := self._columns()) > src.dim:
            raise GridExceedsDimension(f"the curve needs {need} features but the generator has dim={src.dim}")
        if (rows := max(self.train_rows() + self.test_size, self.unlabeled_rows())) * src.dim * 8 > 2**63 - 1:
            raise InvariantViolation(  # the float64 bytes of a rep's largest draw
                f"a rep would draw {rows} x {src.dim} float64 values, beyond numpy's largest array (2**63 - 1 bytes)"
            )

    # -- derived quantities ----------------------------------------------

    def _cell(self, x) -> tuple:
        """Training size n and feature count N at grid value ``x``."""
        if self.kind is CurveKind.FEATURE:
            return self.fixed_n, x
        if self.kind is CurveKind.LEARNING:
            return x, self.fixed_N
        return alpha_train_size(x, self.fixed_N), self.fixed_N

    def train_rows(self) -> int:
        """Rows of the per-rep training pool: the largest n on the grid."""
        return max(self._cell(x)[0] for x in self.grid)

    def _unlabeled_counts(self) -> set:
        """The distinct unlabeled counts of the semi-supervised learners."""
        return {spec.unlabeled_count for spec in self.learners if hasattr(spec, "unlabeled_count")}

    def unlabeled_rows(self) -> int:
        """Rows of the per-rep unlabeled draw: the largest unlabeled count, or 0."""
        return max(self._unlabeled_counts(), default=0)

    def _columns(self) -> int:
        """Feature columns the data source must supply: the largest N on the grid."""
        return max(self._cell(x)[1] for x in self.grid)

    def x_name(self) -> str:
        return self.kind._x_name


def interpolation_threshold(spec: SweepSpec) -> float:
    """Sweep value where training size and feature count coincide: x = 1 on
    alpha's ratio axis, else the pinned count (x = 1 has n = N only there,
    as pinned counts are at least 2)."""
    n, N = spec._cell(1.0)
    return 1.0 if n == N else float(getattr(spec, spec.kind._pinned))


def square_system_threshold(spec: SweepSpec) -> float:
    """Sweep value whose cell has n = N + 1, where the system ``[X, 1]`` of a
    learner with a free bias is square and the minimum-norm risk peaks:
    ``fixed_n - 1`` on a feature curve, ``fixed_N + 1`` on a learning curve,
    ``(fixed_N + 1) / fixed_N`` on an alpha curve.  Plots and
    :func:`detect_peak` keep :func:`interpolation_threshold`'s nominal n = N."""
    if spec.kind is CurveKind.FEATURE:
        return float(spec.fixed_n - 1)
    if spec.kind is CurveKind.LEARNING:
        return float(spec.fixed_N + 1)
    return (spec.fixed_N + 1) / spec.fixed_N


@dataclass(frozen=True)
class LearnerStats(_Checked):
    """Aggregated risk of one learner at one grid point.

    Its fields are the columns of the result CSV and the keys of the result
    JSON, so a field added here reaches both files.
    """

    mean_risk: float
    std_risk: float
    stderr_risk: float
    min_risk: float
    max_risk: float
    rep_count: int


@dataclass(frozen=True)
class CurvePoint(_Checked):
    """One grid value and each learner's stats there, keyed by label."""

    x_value: float
    stats: dict = field(metadata={"of": LearnerStats})


@dataclass(frozen=True)
class Provenance(_Checked):
    """What produced a result: the sweep's base seed and the package version."""

    base_seed: int
    version: str


@dataclass(frozen=True)
class CurveResult(_Checked):
    """A finished sweep: one CurvePoint per grid value, in grid order, with
    stats over ``spec.reps`` reps for exactly the spec's learner labels, and
    a provenance of ``spec.base_seed``.  ``rep_risks[learner][point_index][rep]``
    holds the raw per-rep risks (by the number rule, in tuples) when the
    sweep ran with ``keep_reps=True``, else None.  The fields are the keys
    of the result JSON, in order.  Building a result checks all this against
    its spec, the one place that does (``ValueError``).
    """

    spec: SweepSpec
    points: tuple = field(metadata={"of": CurvePoint})
    provenance: Provenance = field(metadata={"of": Provenance})
    rep_risks: dict | None = None

    def __post_init__(self):
        super().__post_init__()
        grid, reps, labels = self.spec.grid, self.spec.reps, sorted(learner.label for learner in self.spec.learners)
        if len(self.points) != len(grid):
            raise ValueError(f"points must match the {len(grid)}-point grid, got {len(self.points)}")
        for i, (point, x_value) in enumerate(zip(self.points, grid)):
            if point.x_value != x_value or sorted(point.stats) != labels:
                raise ValueError(f"points[{i}]: expected x_value {x_value:g} with stats for {labels}")
            if any(stats.rep_count != reps for stats in point.stats.values()):
                raise ValueError(f"points[{i}]: rep_count must be the spec's {reps} reps")
        if self.provenance.base_seed != self.spec.base_seed:
            raise ValueError("provenance: base_seed must be the spec's base_seed")
        if self.rep_risks is not None:
            risks = {}
            for label, per_point in self.rep_risks.items():
                at = f"rep_risks[{label!r}]"
                rows = (_sequence(point, f"{at}: each point") for point in _sequence(per_point, at))
                risks[label] = tuple(tuple(_check(r, float, f"{at}: each risk") for r in row) for row in rows)
            if sorted(risks) != labels or any(list(map(len, rows)) != [reps] * len(grid) for rows in risks.values()):
                raise ValueError(f"rep_risks: expected {reps} risks at each of {len(grid)} points for each of {labels}")
            object.__setattr__(self, "rep_risks", risks)


@dataclass(frozen=True)
class PeakReport:
    """Location and prominence of the most prominent interior risk maximum.

    A run of equal interior means whose two outer neighbors are both lower
    is one maximum, reported at the run's first grid point.  ``prominence``
    is the peak mean minus the larger of the two adjacent local minima, found
    by descending from either side of the run through equal or lower means
    (curve edges count as minima).
    ``at_interpolation`` is true when the peak sits within one grid step
    (the smaller neighbor spacing) of the interpolation threshold.  A curve
    without an interior local maximum reports its global maximum with
    prominence 0.
    """

    learner: str
    peak_x: float
    peak_mean: float
    prominence: float
    at_interpolation: bool


# --------------------------------------------------------------------------
# Running sweeps.


# A cell scores its test rows in blocks of this many rows.  A BLAS gemv kernel
# takes a matrix's rows in groups of a fixed power of two and the leftover
# rows by another loop, which may round differently.  With blocks of a
# multiple of 256 rows every test row sits at the same place in its group as
# in one product over the whole test set, so every score and every risk is
# the same bit for bit.  numpy scores a one-row matrix by a dot product, which
# rounds unlike gemv, so a lone last row joins the block before it.
_BLOCK_ROWS = 256


def _row_blocks(x, index, prepare=None):
    """The rows ``x[index]``, in order, as fresh C-contiguous blocks of
    ``_BLOCK_ROWS`` rows (the last may have fewer, or one more), each
    passed to ``prepare``, which may transform it in place, if given."""
    edges = [*range(0, max(len(index) - 1, 1), _BLOCK_ROWS), len(index)]
    for lo, hi in zip(edges, edges[1:]):
        block = x[index[lo:hi]]
        if prepare is not None:
            prepare(block)
        yield block
        del block  # with the caller's reference, before the next block is gathered


def _fit_cell(learners, cell, test_blocks, test_y, metric, x_value, rep):
    """Risks on the test rows of each of ``learners`` fit from the context
    ``cell``; a failure names the learner and the cell.
    ``test_blocks(cols)`` yields the cell's columns of the test rows in
    order, and each model scores every block into its row of one
    ``(learners, test rows)`` array."""
    models = []
    for learner in learners:
        try:
            models.append(fit(learner, cell.x, cell.y, x_unlabeled=cell))
        except (RiskCurvesError, ValueError) as exc:
            raise type(exc)(
                f"learner {learner.label!r} failed at x={x_value:g}, rep={rep}: {exc}"
            ) from exc
    scores, lo = np.empty((len(models), len(test_y))), 0
    for block in test_blocks(cell.x.shape[1]):
        hi = lo + len(block)
        for j, model in enumerate(models):
            np.matmul(block, model.weights, out=scores[j, lo:hi])
        lo = hi
        del block  # so that a running cell holds one block
    scores += np.array([model.bias for model in models])[:, None]
    return _risk(scores, test_y, metric)


# Each data source's per-rep draw, keyed in ``_REP_ROWS`` by its ``SOURCES``
# tag: ``factory(spec, max_unlab)`` runs once per sweep and returns
# ``rep -> (train_x, train_y, test_blocks, test_y, unlabeled_x)``.  The
# arrays are fresh ones the rep owns; each call of ``test_blocks(cols)``
# yields the first ``cols`` columns of the test rows in order: a CSV rep
# gathers them from the loaded matrix as fresh blocks of ``_BLOCK_ROWS`` rows
# (:func:`_row_blocks`), so it never holds a copy of its test set, and a
# Gaussian rep, whose test rows are drawn with its train rows, yields a view
# of its one test array.  The draws look up ``gen_two_gaussians`` and
# ``load_csv`` in this module at call time, so a wrapper installed on those
# names sees every draw.


def _gaussian_rows(spec: SweepSpec, max_unlab: int):
    """Per rep, draw a pool of the train rows plus ``test_size`` from
    ``mix(base_seed, rep)`` and gather its stratified train and test rows
    (:func:`split_indices` at ``mix(base_seed, rep, SEED_SPLIT)``); then draw
    ``max_unlab`` unlabeled rows from ``mix(base_seed, rep, SEED_UNLABELED)``."""
    src, train_rows = spec.data_source, spec.train_rows()

    def rows(rep: int):
        pool = gen_two_gaussians(src, train_rows + spec.test_size, mix(spec.base_seed, rep))
        tr, te = split_indices(pool.y, train_rows, mix(spec.base_seed, rep, SEED_SPLIT))
        train_x, train_y, test_x, test_y = pool.x[tr], pool.y[tr], pool.x[te], pool.y[te]
        del pool  # freed before the unlabeled draw
        unlab_x = np.zeros((0, src.dim))
        if max_unlab:
            unlab_x = gen_two_gaussians(src, max_unlab, mix(spec.base_seed, rep, SEED_UNLABELED)).x
        return train_x, train_y, lambda cols: (test_x[:, :cols],), test_y, unlab_x

    return rows


def _csv_rows(spec: SweepSpec, max_unlab: int):
    """Load the CSV once and check that it has the columns and rows the sweep
    needs.  Per rep, pick the train and test row indices with
    :func:`split_indices`; where rows are left over, split the test part
    again at ``mix(base_seed, rep, SEED_SPLIT, 1)``, whose train part is the
    test set and whose first ``max_unlab`` other rows are the unlabeled pool.
    The train and unlabeled rows are gathered from the loaded matrix once,
    the test rows one block at a time at each cell, in the cell's columns;
    with ``standardize`` each is transformed in place by the train rows'
    statistics and checked before it is read (:func:`~.data._standardize`)."""
    src, train_rows, width = spec.data_source, spec.train_rows(), spec._columns()
    full = load_csv(src.path, src.label_column, src.positive_label)
    if full.n_features < width:
        raise GridExceedsDimension(f"{src.path} has {full.n_features} feature columns, need {width}")
    if full.n_samples < train_rows + spec.test_size:
        raise OutOfRange(
            f"{src.path} has {full.n_samples} rows; need at least "
            f"{train_rows + spec.test_size} (train pool + test)"
        )

    def rows(rep: int):
        tr, te = split_indices(full.y, train_rows, mix(spec.base_seed, rep, SEED_SPLIT))
        un = te[:0]  # no unlabeled rows
        if len(te) > spec.test_size:
            keep, rest = split_indices(full.y[te], spec.test_size, mix(spec.base_seed, rep, SEED_SPLIT, 1))
            te, un = te[keep], te[rest[:max_unlab]]
        # each fancy index gathers a fresh array, standardized in place
        train_x, unlab_x, prepare = full.x[tr], full.x[un], None
        if src.standardize:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the rows' check
                prepare = functools.partial(_standardize, src, rep, ColumnTransform.fit(train_x))
            for x in (train_x, unlab_x):
                prepare(x)

        def test_blocks(cols):  # the cell's columns only: on a feature curve, every column took twice as long
            return _row_blocks(full.x[:, :cols], te, prepare)

        return train_x, full.y[tr], test_blocks, full.y[te], unlab_x

    return rows


_REP_ROWS = {GaussianSpec.source: _gaussian_rows, CsvSource.source: _csv_rows}


def run_sweep(spec: SweepSpec, *, keep_reps: bool = False, workers: int = 1) -> CurveResult:
    """Run the curve ``spec`` describes, ``workers`` reps at a time.

    Each rep takes its train, test and unlabeled rows from its data source's
    draw (:func:`_gaussian_rows`, :func:`_csv_rows`).  At each grid point's
    cell (n, N) the sweep keeps the first N columns and, where n is below
    the train rows, a stratified subsample of n of them (a subsample of
    every row would be every row, in order).  Every learner is fit from one
    context per cell, on the rep's checked arrays, which factors the centred
    features at most once.  Semi-supervised learners whiten with a pool of
    the rep's training rows and its first unlabeled rows, cut to the widest
    cell's columns; it is checked and factored once per rep and unlabeled
    count, before the rep's first cell, and each cell reads the leading
    block of its factor and of the factor's inverse (a subsampled cell
    pools and factors its own rows).

    Each cell (:func:`_fit_cell`) scores its learners as soon as they are
    fit, in one pass over the rep's test rows: a CSV rep gathers the cell's
    columns of them afresh for each cell, ``_BLOCK_ROWS`` (256) rows at a
    time, and standardizes each block in place.  So a running CSV rep holds
    one block and the cell's ``learners x test_size`` scores, never a copy of
    its ``test_size x dim`` test set; as 256 is a multiple of any row group a
    BLAS gemv kernel takes, every risk is bit for bit that of scoring the
    whole test set at once.
    Reps run on one BLAS thread (as does any thread calling BLAS
    meanwhile), then the caller's count is restored; ``workers`` runs reps
    in parallel, and no output byte depends on either.
    """
    workers = _check(workers, int, "workers", ValueError, ">=", 1)
    labels = [learner.label for learner in spec.learners]
    counts = spec._unlabeled_counts()
    train_rows, width = spec.train_rows(), spec._columns()
    draw = _REP_ROWS[spec.data_source.source](spec, spec.unlabeled_rows())

    def run_rep(rep: int) -> np.ndarray:
        train_x, train_y, test_blocks, test_y, unlab_x = draw(rep)
        out = np.empty((len(spec.grid), len(labels)))
        pool = _Pool(train_x[:, :width], unlab_x[:, :width])
        try:  # before the cells: factored amid their arrays, the kept factors raised peak RSS by 1.5 MiB
            for u in counts:
                pool.factor(u)
        except ValueError as exc:
            raise type(exc)(f"unlabeled pool of rep {rep}: {exc}") from exc
        for pi, x_val in enumerate(spec.grid):
            n_train, cols = spec._cell(x_val)
            rows, unlabeled = slice(None), pool  # a cell of every training row shares the rep's pool
            if n_train < train_rows:
                rows = subsample_indices(train_y, n_train, mix(spec.base_seed, rep, SEED_SUBSAMPLE, n_train))
                unlabeled = unlab_x[:, :cols]
            # contiguous, as BLAS may round differently on a strided view; the rep's arrays are checked
            cell = _FitContext(np.ascontiguousarray(train_x[rows, :cols]), train_y[rows], unlabeled)
            out[pi] = _fit_cell(spec.learners, cell, test_blocks, test_y, spec.risk_metric, float(x_val), rep)
            del cell  # the cell's factorization goes before the next cell's
        return out

    risks = np.empty((len(spec.grid), len(labels), spec.reps))
    with single_blas_thread:
        if workers == 1:
            for rep in range(spec.reps):
                risks[:, :, rep] = run_rep(rep)
        else:
            from concurrent.futures import ThreadPoolExecutor  # pulls in logging; only threaded runs need it

            with ThreadPoolExecutor(max_workers=workers) as pool:
                for rep, cell in enumerate(pool.map(run_rep, range(spec.reps))):
                    risks[:, :, rep] = cell

    # each statistic over the reps axis, which is contiguous: bit for bit that of each cell's 1-D risks
    std = risks.std(axis=2, ddof=1) if spec.reps > 1 else np.zeros(risks.shape[:2])
    stats = {"mean_risk": risks.mean(axis=2), "std_risk": std, "stderr_risk": std / np.sqrt(spec.reps),
             "min_risk": risks.min(axis=2), "max_risk": risks.max(axis=2)}
    points = tuple(
        CurvePoint(x_value=float(g), stats={
            label: LearnerStats(**{k: float(v[pi, li]) for k, v in stats.items()}, rep_count=spec.reps)
            for li, label in enumerate(labels)
        })
        for pi, g in enumerate(spec.grid)
    )
    rep_risks = None
    if keep_reps:
        rep_risks = {label: tuple(map(tuple, risks[:, li].tolist())) for li, label in enumerate(labels)}
    return CurveResult(spec, points, Provenance(spec.base_seed, __version__), rep_risks)


# Aliases of run_sweep, which runs a spec of any kind; kept until the benchmark calls run_sweep.
run_feature_curve = run_learning_curve = run_alpha_curve = run_sweep


# --------------------------------------------------------------------------
# Peak detection.


def _descend(means, j, step):
    """The local minimum reached from ``means[j]`` by stepping ``step`` (-1 or
    +1) through equal or lower means; a curve edge counts as one."""
    while 0 <= j + step < len(means) and means[j + step] <= means[j]:
        j += step
    return means[j]


def detect_peak(result: CurveResult, learner: str) -> PeakReport:
    """Report the most prominent interior local maximum of a learner's curve."""
    if len(result.points) < 3:
        raise TooFewPoints(f"need >= 3 grid points, got {len(result.points)}")
    known = [learner.label for learner in result.spec.learners]
    if learner not in known:
        raise ValueError(f"unknown learner {learner!r}; curve has {known}")
    xs = [p.x_value for p in result.points]
    means = [p.stats[learner].mean_risk for p in result.points]
    threshold = interpolation_threshold(result.spec)

    best = None  # (prominence, index)
    for i in range(1, len(means) - 1):
        j = i  # the run of means equal to means[i] ends at j
        while j + 1 < len(means) and means[j + 1] == means[i]:
            j += 1
        if means[i] > means[i - 1] and j + 1 < len(means) and means[i] > means[j + 1]:
            prominence = means[i] - max(_descend(means, i - 1, -1), _descend(means, j + 1, +1))
            if best is None or prominence > best[0]:
                best = (prominence, i)

    if best is None:
        top = means.index(max(means))  # the first maximum
        return PeakReport(
            learner=learner,
            peak_x=xs[top],
            peak_mean=means[top],
            prominence=0.0,
            at_interpolation=False,
        )
    prominence, i = best
    step = min(xs[i] - xs[i - 1], xs[i + 1] - xs[i])
    return PeakReport(
        learner=learner,
        peak_x=xs[i],
        peak_mean=means[i],
        prominence=prominence,
        at_interpolation=abs(xs[i] - threshold) <= step,
    )
