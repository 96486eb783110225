"""Tabular dataset container, CSV reading and writing, and synthetic transforms.

All variance/standard-deviation computations in this module use the
population convention (divide by n), so seeded transforms are reproducible
from the documented formulas alone.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np


class DataError(Exception):
    """Raised when input data violates the ingestion or dataset contract."""


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus regression target.

    features: (n_samples, n_features) float64, all finite.
    target:   (n_samples,) float64, all finite.
    feature_names: one unique, non-empty name per column.
    """

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        target = np.asarray(self.target, dtype=np.float64)
        names = tuple(self.feature_names)
        if features.ndim != 2:
            raise DataError("features must be a 2-D array")
        if target.ndim != 1:
            raise DataError("target must be a 1-D array")
        if features.shape[0] < 1:
            raise DataError("dataset must contain at least one row")
        if features.shape[1] < 1:
            raise DataError("dataset must contain at least one feature column")
        if target.shape[0] != features.shape[0]:
            raise DataError(
                f"target length {target.shape[0]} != row count {features.shape[0]}"
            )
        if len(names) != features.shape[1]:
            raise DataError(
                f"{len(names)} feature names for {features.shape[1]} columns"
            )
        if any(not n for n in names):
            raise DataError("feature names must be non-empty")
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        if not np.all(np.isfinite(features)):
            raise DataError("features contain non-finite values")
        if not np.all(np.isfinite(target)):
            raise DataError("target contains non-finite values")
        features = features.copy()
        target = target.copy()
        features.flags.writeable = False
        target.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise DataError(f"unknown feature {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.features[:, self.feature_index(name)]

    def take_rows(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.target[indices], self.feature_names)


@dataclass(frozen=True)
class OutlierSample:
    """Synthetic register: feature means everywhere except one extreme value."""

    x_fake: np.ndarray
    y_fake: float


def load_csv(path, target_column: str) -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    The file is read as UTF-8, with or without a byte-order mark. The target
    column is removed from the features; remaining column order is
    preserved. Every cell must parse as a real number ('.' decimal). Row
    numbers in error messages are 1-based and include the header. Any
    fault in the file raises DataError naming the path.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            if target_column not in header:
                raise DataError(f"{path}: target column {target_column!r} not found")
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names in header")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
                    )
                parsed = []
                for col, cell in zip(header, row):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {lineno}, column {col!r}: "
                            f"cannot parse {cell.strip()!r} as a number"
                        ) from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: row {lineno}, column {col!r}: non-finite value"
                        )
                    parsed.append(value)
                rows.append(parsed)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: row {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows after the header")
    table = np.asarray(rows, dtype=np.float64)
    target_idx = header.index(target_column)
    features = np.delete(table, target_idx, axis=1)
    target = table[:, target_idx]
    names = tuple(h for i, h in enumerate(header) if i != target_idx)
    try:
        return Dataset(features, target, names)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


@contextmanager
def _output(path):
    """The text file to write at path, or stdout when path is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _quoted(name: str) -> str:
    """name as a csv writer puts it among other cells: quoted if it holds a
    comma, quote or line break; empty if empty (alone it would be "")."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerow([name, ""])
    return text.getvalue()[: -len(",\n")]


def _write_table(path, header, columns) -> None:
    """A header line, then one line per row of the equal-length columns: a
    numeric array's cells via repr (str for an integer, the shortest exact
    text for a float), read one at a time through a memoryview so no column
    becomes a list, and a list of names each quoted once as csv quotes it."""
    parts = []  # each column's cells, then the separator after them
    for column in columns:
        if isinstance(column, np.ndarray):
            parts += [map(repr, memoryview(column)), repeat(",")]
        else:
            quoted = {name: _quoted(name) for name in set(column)}
            if len(columns) == 1 and "" in quoted:
                quoted[""] = '""'  # alone on its line, as csv writes it, or it reads as no row
            parts += [map(quoted.__getitem__, column), repeat(",")]
    parts[-1] = repeat("\n")
    with _output(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(map("".join, zip(*parts)))


def train_test_split(
    ds: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministically shuffle and split; rows partition the input exactly.

    The test set receives floor(n * test_fraction) rows, but never fewer
    than one; row order within each part follows the original dataset.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = ds.n_samples
    if n < 2:
        raise DataError("need at least 2 rows to split")
    n_test = max(1, int(math.floor(n * test_fraction)))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return ds.take_rows(train_idx), ds.take_rows(test_idx)


def add_correlated_feature(
    ds: Dataset, base_feature: str, factor: float, offset: float, new_name: str
) -> Dataset:
    """Append a column equal to factor * base + offset per row."""
    _check_affine(factor, offset)
    if new_name in ds.feature_names:
        raise DataError(f"feature name {new_name!r} already in use")
    with np.errstate(over="ignore"):
        new_col = factor * ds.column(base_feature) + offset
    if not np.isfinite(new_col).all():
        raise DataError(f"the copy {new_name} = {factor} * {base_feature} + {offset} overflows")
    features = np.column_stack([ds.features, new_col])
    return Dataset(features, ds.target, ds.feature_names + (new_name,))


def _check_affine(factor: float, offset: float) -> None:
    """Refuse a factor or offset that add_correlated_feature cannot use."""
    for name, value in (("factor", factor), ("offset", offset)):
        if not math.isfinite(value):
            raise DataError(f"{name} must be finite, got {value}")
    if factor == 0:
        raise DataError("factor must be nonzero")


def add_gaussian_noise(
    ds: Dataset, feature: str, variance_pct: float, seed: int
) -> Dataset:
    """Replace a column with column + N(0, variance_pct/100 * var(column)).

    variance_pct = 0 returns an identical dataset (no rng draw is made).
    Population variance; draws come from numpy's default generator seeded
    with `seed`.
    """
    _check_noise_level(variance_pct)
    idx = ds.feature_index(feature)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = math.sqrt(variance_pct / 100.0 * float(np.var(ds.features[:, idx])))
        if scale == 0.0:
            return Dataset(ds.features, ds.target, ds.feature_names)
        rng = np.random.default_rng(seed)
        noised = ds.features[:, idx] + rng.normal(0.0, scale, size=ds.n_samples)
    if not np.isfinite(noised).all():
        raise DataError(f"noise of variance_pct {variance_pct} overflows feature {feature!r}")
    features = ds.features.copy()
    features[:, idx] = noised
    return Dataset(features, ds.target, ds.feature_names)


def _check_noise_level(variance_pct: float) -> None:
    """Refuse a variance_pct that add_gaussian_noise cannot use."""
    if not 0 <= variance_pct < math.inf:
        raise DataError(f"variance_pct must be finite and nonnegative, got {variance_pct}")


def make_outlier(ds: Dataset, feature: str) -> OutlierSample:
    """Build the fake register: per-feature means, except `feature` which is
    set to max + std of its column; y_fake = max(target) + std(target)."""
    idx = ds.feature_index(feature)
    x_fake = ds.features.mean(axis=0)
    col = ds.features[:, idx]
    x_fake[idx] = float(col.max()) + float(np.std(col))
    y_fake = float(ds.target.max()) + float(np.std(ds.target))
    return OutlierSample(x_fake=x_fake, y_fake=y_fake)
