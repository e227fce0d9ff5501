"""Datasets and the sweep's data sources: synthetic two-Gaussian
generation, random feature augmentation, stratified split and subsample
indices, CSV ingestion and the train-fitted column transform.

Everything randomized is a pure function of its inputs and an explicit
seed, so sweeps are reproducible bit for bit.
"""

import csv
import math
import os
from array import array
from dataclasses import dataclass
from typing import ClassVar

from ._np import np
from ._schema import _check, _Checked, _param, _shown
from .errors import (
    MalformedCsv,
    MissingFile,
    MoreThanTwoClasses,
    NonNumericFeature,
    OutOfRange,
)
from .learners import _check_training_pair

_CLASS_ORDER = (1, -1)  # fixed order keeps stratified draws deterministic


@dataclass(frozen=True)
class Dataset:
    """Feature matrix ``x`` (n rows, d columns) with +-1 labels ``y``.

    d = 0 is tolerated as an intermediate (e.g. before random-feature
    augmentation); everything else expects at least one column.
    """

    x: "np.ndarray"
    y: "np.ndarray"

    def __post_init__(self):
        self._hold(np.array(self.x, dtype=np.float64, copy=True), self.y)

    @classmethod
    def _own(cls, x: "np.ndarray", y) -> "Dataset":
        """Same checks, but holds ``x`` itself: only for a fresh float64 array, never a view."""
        ds = object.__new__(cls)
        ds._hold(x, y)
        return ds

    def _hold(self, x: "np.ndarray", y):
        xm, ym = _check_training_pair(x, y)
        object.__setattr__(self, "x", xm)
        object.__setattr__(self, "y", ym)

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class GaussianSpec(_Checked):
    """Two isotropic Gaussian classes at +-mu in ``dim`` dimensions.

    The first ``informative`` coordinates of mu are ``separation/sqrt(k)``
    (so ``||mu|| = separation``), the rest are zero: early features carry
    signal, later ones only add capacity.  The defaults are the config
    defaults.  The seed of a draw is an argument of
    :func:`gen_two_gaussians`, set per rep by the sweep.
    """

    source: ClassVar[str] = "gaussian"
    dim: int = _param(">=", 1, default=120)
    informative: int = _param(">=", 1, default=10)
    separation: float = _param(">=", 0, default=2.5)

    def __post_init__(self):
        super().__post_init__()
        if self.informative > self.dim:
            raise ValueError(
                f"informative must be in 1..{self.dim}, got {self.informative}"
            )

    def mean_vector(self) -> "np.ndarray":
        mu = np.zeros(self.dim)
        mu[: self.informative] = self.separation / np.sqrt(self.informative)
        return mu


@dataclass(frozen=True)
class CsvSource(_Checked):
    """Reference to a two-class CSV file used as a sweep data source."""

    source: ClassVar[str] = "csv"
    path: str
    label_column: str
    positive_label: str
    standardize: bool = True


SOURCES = {cls.source: cls for cls in (GaussianSpec, CsvSource)}


def gen_two_gaussians(spec: GaussianSpec, n: int, seed: int = 0) -> Dataset:
    """Draw n points from Normal(+-mu, I), deterministically in ``seed``:
    class +1 gets the first ceil(n/2) rows, class -1 the rest.

    An odd-n draw equals the first n rows of the (n + 1)-row draw, as the
    generator fills rows in order; a longer draw's prefix is not a shorter
    draw in general, since the class boundary moves with n.  ``n`` is an
    integer >= 1 and ``seed`` :func:`_rng`'s, by the config's number rule.
    """
    n = _check(n, int, "n", ValueError, ">=", 1)
    rng = _rng(seed)
    k, half = spec.informative, (n + 1) // 2
    mu = spec.mean_vector()[:k]  # zero in the other columns
    x = rng.standard_normal((n, spec.dim))  # the same stream as one block per class
    x[:half, :k] += mu
    x[half:, :k] -= mu
    y = np.concatenate([np.ones(half, dtype=np.int64), -np.ones(n - half, dtype=np.int64)])
    return Dataset._own(x, y)


def append_random_features(ds: Dataset, k: int, sigma: float, seed: int) -> Dataset:
    """Append k columns of independent Normal(0, sigma^2) noise; ``k`` is an integer
    >= 1, ``sigma`` a float > 0 and ``seed`` :func:`_rng`'s, by the config's number rule."""
    k = _check(k, int, "k", ValueError, ">=", 1)
    sigma = _check(sigma, float, "sigma", ValueError, ">", 0)
    rng = _rng(seed)
    noise = sigma * rng.standard_normal((ds.n_samples, k))
    return Dataset._own(np.hstack([ds.x, noise]), ds.y)


def _rng(seed) -> "np.random.Generator":
    """numpy's generator of ``seed``, an integer >= 0 with no upper bound (a sweep's reach 2**64 - 1)."""
    if (seed := _check(seed, int, "seed")) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _stratified_counts(y: "np.ndarray", n_take: int) -> dict[int, int]:
    """Per-class take counts: proportional, largest remainder, class-order ties."""
    total = len(y)
    counts = {}
    fracs = []
    for cls in _CLASS_ORDER:
        exact = n_take * int(np.sum(y == cls)) / total
        counts[cls] = int(np.floor(exact))
        fracs.append((cls, exact - np.floor(exact)))
    leftover = n_take - sum(counts.values())
    fracs.sort(key=lambda cf: -cf[1])  # stable: ties keep class order
    for i in range(leftover):
        counts[fracs[i][0]] += 1
    return counts


def split_indices(y: "np.ndarray", n_train: int, seed: int) -> tuple["np.ndarray", "np.ndarray"]:
    """Row indices of a disjoint stratified train/test partition of labels
    ``y`` that covers every row, each part sorted ascending.

    Class proportions in the train part stay within one row of proportional.
    ``n_train`` is an integer and ``seed`` :func:`_rng`'s, by the config's number rule.
    """
    if not 1 <= (n_train := _check(n_train, int, "n_train")) < len(y):
        raise OutOfRange(f"n_train must be in 1..{len(y) - 1}, got {_shown(n_train)}")
    rng = _rng(seed)
    counts = _stratified_counts(y, n_train)
    train_idx, test_idx = [], []
    for cls in _CLASS_ORDER:
        idx = np.flatnonzero(y == cls)
        perm = idx[rng.permutation(len(idx))]
        train_idx.append(perm[: counts[cls]])
        test_idx.append(perm[counts[cls] :])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def subsample_indices(y: "np.ndarray", n: int, seed: int) -> "np.ndarray":
    """Indices of n rows of labels ``y`` drawn stratified without
    replacement, deterministic in seed, sorted ascending; ``n`` is an
    integer and ``seed`` :func:`_rng`'s, by the config's number rule."""
    if not 2 <= (n := _check(n, int, "n")) <= len(y):
        raise OutOfRange(f"n must be in 2..{len(y)}, got {_shown(n)}")
    rng = _rng(seed)
    counts = _stratified_counts(y, n)
    chosen = []
    for cls in _CLASS_ORDER:
        idx = np.flatnonzero(y == cls)
        pick = rng.choice(len(idx), size=counts[cls], replace=False)
        chosen.append(idx[pick])
    return np.sort(np.concatenate(chosen))


def _raise_bad_cell(path, names, cells, line_no):
    """Raise :class:`NonNumericFeature` for the first bad cell of a feature row."""
    for name, cell in zip(names, cells):
        try:
            value = float(cell)
        except ValueError:
            raise NonNumericFeature(
                f"{path}: non-numeric value {cell.strip()!r} at line {line_no}, column {name!r}"
            ) from None
        if not math.isfinite(value):
            raise NonNumericFeature(
                f"{path}: non-finite value {cell.strip()!r} at line {line_no}, column {name!r}"
            )


def load_csv(path, label_column: str, positive_label: str) -> Dataset:
    """Load a two-class dataset from a headed, comma-separated, UTF-8 file.

    All non-label columns become features in file order; label tokens map to
    +1 for ``positive_label`` and -1 for the single other token.  Missing or
    non-numeric feature cells are errors, reported with line and column.  A
    leading byte-order mark and blank lines are ignored.  Every content
    error is a :class:`MalformedCsv` naming the file; an absent file is
    :class:`MissingFile`.
    """
    if not os.path.exists(path):
        raise MissingFile(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MalformedCsv(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if label_column not in header:
                raise MalformedCsv(f"{path}: no column named {label_column!r}")
            label_pos = header.index(label_column)
            feature_names = [h for i, h in enumerate(header) if i != label_pos]
            if not feature_names:
                raise MalformedCsv(f"{path}: no feature columns besides the label")
            buf = array("d")
            tokens: list[str] = []
            for line_no, row in enumerate(reader, start=2):
                if not row:  # a blank line, skipped as csv.DictReader does
                    continue
                if len(row) != len(header):
                    raise MalformedCsv(
                        f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}"
                    )
                tokens.append(row.pop(label_pos).strip())
                try:
                    feats = list(map(float, row))
                    finite = all(map(math.isfinite, feats))
                except ValueError:
                    finite = False
                if not finite:
                    _raise_bad_cell(path, feature_names, row, line_no)
                buf.extend(feats)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedCsv(f"{path}: {exc}") from None
    if not tokens:
        raise MalformedCsv(f"{path}: no data rows")
    distinct = sorted(set(tokens))
    if len(distinct) > 2:
        raise MoreThanTwoClasses(
            f"{path}: expected two label tokens, found {len(distinct)}: {distinct}"
        )
    if len(distinct) < 2:
        raise MalformedCsv(f"{path}: only one label token present: {distinct}")
    if positive_label not in distinct:
        raise MalformedCsv(
            f"{path}: positive label {positive_label!r} not found, tokens are {distinct}"
        )
    y = np.array([1 if t == positive_label else -1 for t in tokens], dtype=np.int64)
    return Dataset._own(np.frombuffer(buf, dtype=np.float64).reshape(len(tokens), -1), y)


@dataclass(frozen=True)
class ColumnTransform:
    """Per-column shift/scale fitted on a training set."""

    mean: "np.ndarray"
    scale: "np.ndarray"

    @classmethod
    def fit(cls, x: "np.ndarray") -> "ColumnTransform":
        """Shift by the columns' mean, scale by their std; zero-variance columns are
        centered but left unscaled, and one whose std overflows scaled by NaN."""
        std = x.std(axis=0)
        return cls(mean=x.mean(axis=0), scale=np.select([std == np.inf, std > 0.0], [np.nan, std], 1.0))

    def apply_in_place(self, x: "np.ndarray") -> None:
        """Overwrite the float64 array ``x`` (the fit's leading columns) with its transform."""
        x -= self.mean[: x.shape[1]]
        x /= self.scale[: x.shape[1]]


def _standardize(src: CsvSource, rep: int, tf: ColumnTransform, x: "np.ndarray") -> None:
    """Transform rows ``x`` of ``src`` in place by ``tf``, fitted on rep ``rep``'s
    train rows; a value that overflows raises :class:`MalformedCsv` naming its column."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by column
        tf.apply_in_place(x)
    if not np.isfinite(x).all():
        with open(src.path, encoding="utf-8-sig", newline="") as fh:
            names = [h.strip() for h in next(csv.reader(fh))]  # the header load_csv read
        names.remove(src.label_column)
        name = names[np.argmin(np.isfinite(x).all(axis=0))]
        raise MalformedCsv(f"{src.path}: column {name!r} overflows when standardized by the train rows of rep {rep}")
