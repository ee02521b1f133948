"""Datasets: synthetic hypercube-Gaussian generation, CSV ingestion,
standardization, and deterministic owner/shadow/eval splits.

The synthetic generator picks two distinct vertices of the scaled
hypercube {-s, +s}^d as class centers and samples unit-variance Gaussians
around them. Tabular files are plain CSV with a header; the label column
is either already binary or thresholded at its median.

Each stage has one array-level core. `synthetic_arrays` and
`tabular_arrays` return a writable float64 feature matrix with its
labels and provenance, `standardize_in_place` shifts and scales that
matrix, and `split_in_place` moves its rows into
[owner | shadow | eval-out | unused] order and returns the partitions as
read-only views of it. An audit runs them in turn, so from generation to
partition it holds one feature matrix. The Dataset-level functions
(`generate_synthetic`, `load_tabular`, `standardize`, `split`) wrap the
same cores; `standardize` and `split` work on a copy, so their input
stays intact.

Every loop that walks rows in blocks to bound its scratch, here and in
nn and recourse, takes block_rows(width) rows of `width` values at a
time from one budget, BLOCK_VALUES; block size changes no output bit.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .seeds import rng_for


class DataError(ValueError):
    """Base class for dirty inputs in this module."""


class TabularParseError(DataError):
    """CSV could not be parsed; message names the offending row/column."""


class ZeroVarianceColumnError(DataError):
    """A column has no variance and cannot be standardized."""


class SplitSizeError(DataError):
    """Requested partition sizes are negative or exceed the available rows."""


BLOCK_VALUES = 1 << 14  # 128 KB of float64 per block


def block_rows(width: int) -> int:
    """Rows per block for rows of `width` values: at least one."""
    return max(1, BLOCK_VALUES // max(width, 1))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the two-cluster hypercube-Gaussian construction."""

    d: int
    n_per_class: int
    seed: int
    class_separation: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise DataError(f"d must be >= 1, got {self.d}")
        if self.n_per_class < 1:
            raise DataError(f"n_per_class must be >= 1, got {self.n_per_class}")
        if not 0 < self.class_separation < np.inf:
            raise DataError(
                f"class_separation must be finite and positive, got {self.class_separation}"
            )


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with binary labels and a provenance record.

    `features` is (n, d) float64, `labels` is (n,) with values in {0, 1}.
    Instances are treated as immutable; the arrays are marked read-only.
    """

    features: np.ndarray
    labels: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {feats.shape}")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise DataError(
                f"labels length {labs.shape} does not match {feats.shape[0]} rows"
            )
        if not np.isin(labs, (0, 1)).all():
            raise DataError("labels must contain only 0 and 1")
        feats.setflags(write=False)
        labs = labs.astype(np.int64)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitBundle:
    """Disjoint owner/shadow/eval partitions of one dataset."""

    owner_train: Dataset
    shadow_pool: Dataset
    eval_out: Dataset


def synthetic_arrays(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray, dict]:
    """Features, labels and provenance of the dataset described by `spec`.

    Two distinct vertices of {-s, +s}^d are drawn uniformly at random,
    then n_per_class unit-variance Gaussian rows are sampled around each,
    straight into one writable (2 n_per_class, d) matrix. Rows are ordered
    class 0 first; callers shuffle via `split`.
    """
    rng = np.random.default_rng(spec.seed)
    v0 = rng.integers(0, 2, size=spec.d) * 2 - 1
    v1 = rng.integers(0, 2, size=spec.d) * 2 - 1
    while np.array_equal(v0, v1):
        v1 = rng.integers(0, 2, size=spec.d) * 2 - 1
    v0 = v0.astype(np.float64) * spec.class_separation
    v1 = v1.astype(np.float64) * spec.class_separation

    n = spec.n_per_class
    features = np.empty((2 * n, spec.d))
    for rows, vertex in ((features[:n], v0), (features[n:], v1)):
        rng.standard_normal(out=rows)
        rows += vertex
    labels = np.zeros(2 * n, dtype=np.int64)
    labels[n:] = 1
    prov = {
        "kind": "synthetic",
        "d": spec.d,
        "n_per_class": spec.n_per_class,
        "seed": spec.seed,
        "class_separation": spec.class_separation,
        "vertices": [v0.tolist(), v1.tolist()],
    }
    return features, labels, prov


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """The dataset of `synthetic_arrays`."""
    return Dataset(*synthetic_arrays(spec))


def tabular_arrays(
    path: str | Path, label_column: str, label_rule: str
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Features (a writable matrix), labels and provenance of a CSV file
    with a header row.

    label_rule "binary" requires the label column to already hold 0/1;
    "median-threshold" labels 1 iff the raw score exceeds the column
    median (ties map to 0). Every cell must parse as a finite number
    (nan and inf are rejected); failures name the data row and column.
    """
    if label_rule not in ("binary", "median-threshold"):
        raise DataError(f"unknown label_rule {label_rule!r}")
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TabularParseError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise TabularParseError(
                f"{path}: label column {label_column!r} not in header {header}"
            )
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        # an upper bound on the data rows: the lines after the header (csv ends
        # records at the same \r\n, \r or \n; latin-1 decodes every byte)
        with open(path, encoding="latin-1") as lines:
            max_rows = sum(1 for _ in lines) - 1
        features = np.empty((max_rows, len(feature_names)))
        scores = np.empty(max_rows)
        n = 0  # each row goes straight into the matrix, so the parse holds no scratch
        for n, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise TabularParseError(
                    f"{path}: row {n} has {len(row)} cells, expected {len(header)}"
                )
            values = _parse_row(path, header, n, row)
            scores[n - 1] = values.pop(label_idx)
            features[n - 1] = values
        if n < max_rows:  # a quoted cell holds a line break
            features, scores = features[:n], scores[:n]

    if n == 0:
        raise TabularParseError(f"{path}: no data rows")
    if label_rule == "binary":
        if not np.isin(scores, (0.0, 1.0)).all():
            bad = int(np.flatnonzero(~np.isin(scores, (0.0, 1.0)))[0]) + 1
            raise TabularParseError(
                f"{path}: row {bad}, column {label_column!r}: "
                f"label {scores[bad - 1]} is not 0/1 (rule=binary)"
            )
        labels = scores.astype(np.int64)
    else:
        median = float(np.median(scores))
        labels = (scores > median).astype(np.int64)

    prov = {
        "kind": "file",
        "path": str(path),
        "label_column": label_column,
        "label_rule": label_rule,
        "feature_names": feature_names,
    }
    return features, labels, prov


def _parse_row(path: Path, header: list[str], row_no: int, row: list[str]) -> list[float]:
    """float() of each cell of data row `row_no`; TabularParseError names the first bad cell."""
    values = []
    for name, cell in zip(header, row):
        try:
            value = float(cell)
        except ValueError:
            raise TabularParseError(
                f"{path}: row {row_no}, column {name!r}: non-numeric cell {cell.strip()!r}"
            ) from None
        if not math.isfinite(value):
            raise TabularParseError(
                f"{path}: row {row_no}, column {name!r}: non-finite cell {cell.strip()!r}"
            )
        values.append(value)
    return values


def load_tabular(path: str | Path, label_column: str, label_rule: str) -> Dataset:
    """The dataset of `tabular_arrays`."""
    return Dataset(*tabular_arrays(path, label_column, label_rule))


def standardize_in_place(features: np.ndarray, provenance: dict) -> dict:
    """Shift and scale the columns of `features` in place to zero mean and
    unit variance (population convention); returns the provenance of the
    result.

    The mean is np.mean's. The variance adds the squared deviations of
    blocks of rows to a running sum, row after row; np.std adds the rows
    of a matrix in the same order, so the std equals np.std(axis=0) bit
    for bit while the scratch stays at one block. numpy sums a single
    column pairwise instead, so a one-column matrix is one block.

    Raises ZeroVarianceColumnError naming the first constant column,
    before `features` is changed; the caller may drop it and retry.
    """
    n, d = features.shape
    if n < 2:
        raise DataError(f"standardize needs n >= 2, got n={n}")
    mean = features.mean(axis=0)
    step = n if d == 1 else min(n, block_rows(d))
    sums = np.empty((step + 1, d))  # row 0: the sum over the rows before the block
    for a in range(0, n, step):
        b = min(a + step, n)
        dev = sums[1 : b - a + 1]
        np.subtract(features[a:b], mean, out=dev)
        np.square(dev, out=dev)
        sums[0] = sums[0 if a else 1 : b - a + 1].sum(axis=0)
    std = np.sqrt(sums[0] / n)
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        names = provenance.get("feature_names")
        label = names[flat[0]] if names else f"column {int(flat[0])}"
        raise ZeroVarianceColumnError(f"{label} has zero variance")
    features -= mean
    features /= std
    return {"kind": "standardized", "parent": provenance}


def standardize(data: Dataset) -> Dataset:
    """A standardized copy of `data` (see standardize_in_place)."""
    features = data.features.copy()
    return Dataset(features, data.labels, standardize_in_place(features, data.provenance))


def split_in_place(
    features: np.ndarray,
    labels: np.ndarray,
    provenance: dict,
    owner_n: int,
    shadow_n: int,
    eval_out_n: int,
    seed: int,
) -> SplitBundle:
    """Disjoint uniformly-random owner/shadow/eval-out partition of the
    dataset (features, labels, provenance).

    The rows of `features` and `labels` move in place into
    [owner | shadow | eval-out | unused] order, each partition's rows in
    source order, and the partitions are views of them; both arrays are
    left read-only, so the partitions cannot change. Each partition's
    provenance lists its source rows.
    """
    sizes = (owner_n, shadow_n, eval_out_n)
    if min(sizes) < 0:
        raise SplitSizeError(f"owner_n, shadow_n and eval_out_n must be >= 0, got {sizes}")
    total = sum(sizes)
    n = features.shape[0]
    if total > n:
        raise SplitSizeError(
            f"owner_n + shadow_n + eval_out_n = {total} exceeds the {n} rows of the data"
        )
    perm = rng_for(seed, "split-permutation").permutation(n)
    bounds = (0, owner_n, owner_n + shadow_n, total)
    source_rows = [np.sort(perm[a:b]) for a, b in zip(bounds, bounds[1:])]
    _gather_rows((features, labels), np.concatenate(source_rows))
    features.setflags(write=False)
    labels.setflags(write=False)
    owner, shadow, out = (
        Dataset(features[a:b], labels[a:b],
                {"kind": "subset", "role": role, "rows": rows.tolist(), "parent": provenance})
        for role, rows, a, b in zip(("owner_train", "shadow_pool", "eval_out"),
                                    source_rows, bounds, bounds[1:])
    )
    return SplitBundle(owner_train=owner, shadow_pool=shadow, eval_out=out)


def split(
    data: Dataset, owner_n: int, shadow_n: int, eval_out_n: int, seed: int
) -> SplitBundle:
    """The partition of split_in_place, made on a copy of `data`."""
    return split_in_place(data.features.copy(), data.labels.copy(), data.provenance,
                          owner_n, shadow_n, eval_out_n, seed)


def _gather_rows(arrays: tuple[np.ndarray, ...], order: np.ndarray) -> None:
    """a[:k] = a[order] in place for each array a (k = len(order), whose
    entries are distinct rows); the other rows end up after k. Works in
    blocks of rows, with scratch for two blocks."""
    n = arrays[0].shape[0]
    where = np.arange(n)  # where[r]: the position source row r is at now
    held = np.arange(n)   # held[i]: the source row now at position i
    step = block_rows(arrays[0].shape[1])
    for a in range(0, order.size, step):
        want = order[a : a + step]
        b = a + want.size
        src = where[want]  # all >= a: the rows before a are placed
        inside = src < b
        taken = np.zeros(b - a, dtype=bool)
        taken[src[inside] - a] = True
        displaced = np.flatnonzero(~taken) + a  # rows in [a, b) that are not wanted there
        vacated = src[~inside]  # the slots beyond b that wanted rows leave
        for arr in arrays:
            block = arr[src]
            arr[vacated] = arr[displaced]
            arr[a:b] = block
        moved = held[displaced]
        where[moved] = vacated
        held[vacated] = moved


def write_csv(data: Dataset, path: str | Path, label_column: str = "label") -> None:
    """Write features + label column as CSV (inverse of load_tabular)."""
    source = data.provenance
    while "parent" in source:  # a file's names stay with the file's own provenance
        source = source["parent"]
    names = source.get("feature_names") or [f"x{i}" for i in range(data.d)]
    rows = block_rows(data.d)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(names) + [label_column])
        # numeric cells never need quoting and "\r\n" is csv.writer's line
        # end, so joining the reprs (an int label's is its str) writes
        # csv.writer's bytes
        for start in range(0, data.n, rows):
            for row, lab in zip(data.features[start:start + rows].tolist(),
                                data.labels[start:start + rows].tolist()):
                row.append(lab)
                fh.write(",".join(map(repr, row)) + "\r\n")
