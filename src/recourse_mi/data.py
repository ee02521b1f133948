"""Datasets: synthetic hypercube-Gaussian generation, CSV ingestion,
standardization, and deterministic owner/shadow/eval splits.

The synthetic generator picks two distinct vertices of the scaled
hypercube {-s, +s}^d as class centers and samples unit-variance Gaussians
around them. Tabular files are plain CSV with a header; the label column
is either already binary or thresholded at its median.
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
    """Requested partition sizes exceed the available rows."""


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
        if not self.class_separation > 0:
            raise DataError(
                f"class_separation must be positive, got {self.class_separation}"
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

    def take(self, rows: np.ndarray, role: str) -> "Dataset":
        """Row subset with provenance recording the source rows."""
        rows = np.asarray(rows, dtype=np.int64)
        prov = {
            "kind": "subset",
            "role": role,
            "rows": rows.tolist(),
            "parent": self.provenance,
        }
        return Dataset(self.features[rows], self.labels[rows], prov)


@dataclass(frozen=True)
class ScalerParams:
    """Per-column mean/std of a fitted standardizer (population std)."""

    mean: np.ndarray
    std: np.ndarray
    convention: str = "population"

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.std + self.mean


@dataclass(frozen=True)
class SplitBundle:
    """Disjoint owner/shadow/eval partitions of one dataset."""

    owner_train: Dataset
    shadow_pool: Dataset
    eval_in: np.ndarray
    eval_out: Dataset
    seed: int


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample the two-cluster dataset described by `spec`.

    Two distinct vertices of {-s, +s}^d are drawn uniformly at random,
    then n_per_class unit-variance Gaussian rows are sampled around each.
    Rows are ordered class 0 first; callers shuffle via `split`.
    """
    rng = np.random.default_rng(spec.seed)
    v0 = rng.integers(0, 2, size=spec.d) * 2 - 1
    v1 = rng.integers(0, 2, size=spec.d) * 2 - 1
    while np.array_equal(v0, v1):
        v1 = rng.integers(0, 2, size=spec.d) * 2 - 1
    v0 = v0.astype(np.float64) * spec.class_separation
    v1 = v1.astype(np.float64) * spec.class_separation

    x0 = rng.standard_normal((spec.n_per_class, spec.d)) + v0
    x1 = rng.standard_normal((spec.n_per_class, spec.d)) + v1
    features = np.vstack([x0, x1])
    labels = np.concatenate(
        [np.zeros(spec.n_per_class, dtype=np.int64), np.ones(spec.n_per_class, dtype=np.int64)]
    )
    prov = {
        "kind": "synthetic",
        "d": spec.d,
        "n_per_class": spec.n_per_class,
        "seed": spec.seed,
        "class_separation": spec.class_separation,
        "vertices": [v0.tolist(), v1.tolist()],
    }
    return Dataset(features, labels, prov)


def load_tabular(path: str | Path, label_column: str, label_rule: str = "binary") -> Dataset:
    """Load a CSV with a header row into a Dataset.

    label_rule "binary" requires the label column to already hold 0/1;
    "median-threshold" labels 1 iff the raw score exceeds the column
    median (ties map to 0). Every cell must parse as a finite number
    (nan and inf are rejected); failures name the data row and column.
    """
    if label_rule not in ("binary", "median-threshold"):
        raise DataError(f"unknown label_rule {label_rule!r}")
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
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

        rows: list[list[float]] = []
        raw_labels: list[float] = []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise TabularParseError(
                    f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
                )
            values = []
            for col_idx, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise TabularParseError(
                        f"{path}: row {row_no}, column {header[col_idx]!r}: "
                        f"non-numeric cell {cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise TabularParseError(
                        f"{path}: row {row_no}, column {header[col_idx]!r}: "
                        f"non-finite cell {cell.strip()!r}"
                    )
                if col_idx == label_idx:
                    raw_labels.append(value)
                else:
                    values.append(value)
            rows.append(values)

    if not rows:
        raise TabularParseError(f"{path}: no data rows")
    features = np.array(rows, dtype=np.float64)
    scores = np.array(raw_labels, dtype=np.float64)

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
    return Dataset(features, labels, prov)


def standardize(data: Dataset) -> tuple[Dataset, ScalerParams]:
    """Zero-mean unit-variance columns (population convention).

    Raises ZeroVarianceColumnError naming the first constant column; the
    caller may drop it and retry.
    """
    if data.n < 2:
        raise DataError(f"standardize needs n >= 2, got n={data.n}")
    mean = data.features.mean(axis=0)
    std = data.features.std(axis=0)  # ddof=0
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        names = data.provenance.get("feature_names")
        label = names[flat[0]] if names else f"column {int(flat[0])}"
        raise ZeroVarianceColumnError(f"{label} has zero variance")
    scaler = ScalerParams(mean=mean, std=std)
    prov = {"kind": "standardized", "parent": data.provenance}
    return Dataset(scaler.transform(data.features), data.labels, prov), scaler


def split(
    data: Dataset, owner_n: int, shadow_n: int, eval_out_n: int, seed: int
) -> SplitBundle:
    """Disjoint uniformly-random owner/shadow/eval-out partition."""
    total = owner_n + shadow_n + eval_out_n
    if total > data.n:
        raise SplitSizeError(
            f"owner_n + shadow_n + eval_out_n = {total} exceeds n = {data.n}"
        )
    perm = rng_for(seed, "split-permutation").permutation(data.n)
    owner_rows = np.sort(perm[:owner_n])
    shadow_rows = np.sort(perm[owner_n : owner_n + shadow_n])
    out_rows = np.sort(perm[owner_n + shadow_n : total])
    return SplitBundle(
        owner_train=data.take(owner_rows, "owner_train"),
        shadow_pool=data.take(shadow_rows, "shadow_pool"),
        eval_in=np.arange(owner_n, dtype=np.int64),
        eval_out=data.take(out_rows, "eval_out"),
        seed=seed,
    )


def split_source_rows(bundle: SplitBundle) -> dict[str, list[int]]:
    """Source-row indices of each partition, for disjointness checks."""
    out: dict[str, list[int]] = {}
    for name in ("owner_train", "shadow_pool", "eval_out"):
        ds: Dataset = getattr(bundle, name)
        out[name] = list(ds.provenance.get("rows", []))
    return out


def write_csv(data: Dataset, path: str | Path, label_column: str = "label") -> None:
    """Write features + label column as CSV (inverse of load_tabular)."""
    names = data.provenance.get("feature_names") or [
        f"x{i}" for i in range(data.d)
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [label_column])
        for row, lab in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])
