"""Synthetic 2-D classification datasets, CSV loading, splits, augmentation.

Every dataset is generated from a single seed that fans out to independent
streams for point generation, label noise, and the split shuffle, so a spec
maps to bitwise-identical arrays on every call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

DATASET_KINDS = ("blobs", "two-moons", "rings", "csv")

# Distance between adjacent blob centers; large against typical noise levels
# so noise-free blobs are linearly separable.
_BLOB_SEPARATION = 4.0


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "blobs"
    samples: int = 1000
    classes: int = 2
    noise: float = 0.5
    label_noise: float = 0.0
    train_frac: float = 0.8
    val_frac: float = 0.1
    test_frac: float = 0.1
    seed: int = 0
    path: str | None = None

    def validate(self) -> None:
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "csv":
            if not self.path:
                raise ValueError("dataset kind 'csv' requires key 'path'")
        else:
            if self.samples < 3:
                raise ValueError("samples must allow a non-empty split")
            if self.classes < 2:
                raise ValueError("classes must be at least 2")
            if self.kind == "two-moons" and self.classes != 2:
                raise ValueError("dataset kind 'two-moons' requires classes = 2")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must lie in [0, 1)")
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise ValueError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        if self.seed < 0:
            raise ValueError("dataset seed must be non-negative")


@dataclass
class Dataset:
    spec: DatasetSpec
    x_train: Array
    y_train: Array
    x_val: Array
    y_val: Array
    x_test: Array
    y_test: Array
    n_classes: int

    @property
    def n_features(self) -> int:
        return self.x_train.shape[1]


def blob_centers(classes: int) -> Array:
    """Class centers evenly spaced along the x-axis.

    Keeping every center on the axis makes the blob cloud mirror-symmetric
    under a sign flip of the vertical coordinate, which is what augmentation
    relies on to stay label-preserving.
    """
    offsets = (np.arange(classes) - (classes - 1) / 2.0) * _BLOB_SEPARATION
    centers = np.zeros((classes, 2))
    centers[:, 0] = offsets
    return centers


def _generate_points(spec: DatasetSpec, rng: np.random.Generator) -> tuple[Array, Array]:
    n, m = spec.samples, spec.classes
    counts = [n // m + (1 if c < n % m else 0) for c in range(m)]
    labels = np.repeat(np.arange(m), counts)

    if spec.kind == "blobs":
        centers = blob_centers(m)
        points = centers[labels] + spec.noise * rng.standard_normal((n, 2))
    elif spec.kind == "two-moons":
        t0 = rng.uniform(0.0, np.pi, counts[0])
        t1 = rng.uniform(0.0, np.pi, counts[1])
        upper = np.column_stack([np.cos(t0), np.sin(t0)])
        lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
        points = np.vstack([upper, lower]) + spec.noise * rng.standard_normal((n, 2))
    elif spec.kind == "rings":
        radii = 1.0 + labels.astype(np.float64)
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        points = np.column_stack([radii * np.cos(theta), radii * np.sin(theta)])
        points += spec.noise * rng.standard_normal((n, 2))
    else:  # pragma: no cover - guarded by validate()
        raise ValueError(f"unknown dataset kind {spec.kind!r}")
    return points, labels


def _apply_label_noise(
    labels: Array, classes: int, fraction: float, rng: np.random.Generator
) -> Array:
    if fraction == 0.0:
        return labels
    n = labels.shape[0]
    k = int(round(fraction * n))
    if k == 0:
        return labels
    flipped = labels.copy()
    idx = rng.choice(n, size=k, replace=False)
    # Shift by 1..classes-1 modulo classes: uniform over the *other* classes.
    shift = rng.integers(1, classes, size=k)
    flipped[idx] = (flipped[idx] + shift) % classes
    return flipped


def _split_counts(n: int, spec: DatasetSpec) -> tuple[int, int, int]:
    n_train = int(round(spec.train_frac * n))
    n_val = int(round(spec.val_frac * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"split of {n} samples leaves an empty part "
            f"(train={n_train}, val={n_val}, test={n_test})"
        )
    return n_train, n_val, n_test


def make_dataset(spec: DatasetSpec) -> Dataset:
    """Generate (or load) the dataset and cut disjoint train/val/test splits."""
    spec.validate()
    seq = np.random.SeedSequence(spec.seed)
    rng_points, rng_labels, rng_split = (
        np.random.default_rng(s) for s in seq.spawn(3)
    )

    if spec.kind == "csv":
        points, labels = load_csv(spec.path)
        classes = int(labels.max()) + 1
    else:
        points, labels = _generate_points(spec, rng_points)
        classes = spec.classes

    labels = _apply_label_noise(labels, classes, spec.label_noise, rng_labels)

    n = points.shape[0]
    n_train, n_val, _ = _split_counts(n, spec)
    perm = rng_split.permutation(n)
    train_idx = perm[:n_train]
    val_idx = perm[n_train : n_train + n_val]
    test_idx = perm[n_train + n_val :]
    return Dataset(
        spec=spec,
        x_train=points[train_idx],
        y_train=labels[train_idx],
        x_val=points[val_idx],
        y_val=labels[val_idx],
        x_test=points[test_idx],
        y_test=labels[test_idx],
        n_classes=classes,
    )


# -- augmentation -------------------------------------------------------------


def flip_vertical(points: Array, mask: Array) -> Array:
    """Sign-flip the vertical coordinate of the masked rows. An involution."""
    out = points.copy()
    out[mask, 1] = -out[mask, 1]
    return out


def augment(
    points: Array,
    labels: Array,
    rng: np.random.Generator,
    spec: DatasetSpec,
) -> tuple[Array, Array]:
    """Label-preserving augmentation for symmetric point clouds.

    Blobs (centers on the x-axis) tolerate a vertical sign flip with
    probability 1/2 per point plus Gaussian jitter with sigma = noise/2.
    Geometry-sensitive kinds (moons, rings, csv) pass through unchanged.
    """
    if spec.kind != "blobs":
        return points, labels
    mask = rng.random(points.shape[0]) < 0.5
    out = flip_vertical(points, mask)
    sigma = spec.noise / 2.0
    if sigma > 0.0:
        out = out + rng.normal(0.0, sigma, size=out.shape)
    return out, labels


# -- CSV ----------------------------------------------------------------------


def load_csv(path) -> tuple[Array, Array]:
    """Read a `feat_0,...,feat_{d-1},label` table; errors name the line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: line 1: empty file") from None
        d = len(header) - 1
        expected = [f"feat_{i}" for i in range(d)] + ["label"]
        if d < 1 or header != expected:
            raise ValueError(f"{path}: line 1: bad header {header!r}")
        features: list[list[float]] = []
        labels: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {d + 1} fields, got {len(row)}"
                )
            try:
                values = [float(v) for v in row[:d]]
                label = int(row[d])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: line {lineno}: non-finite feature value")
            features.append(values)
            if label < 0:
                raise ValueError(f"{path}: line {lineno}: negative label {label}")
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if int(y.max()) < 1:
        raise ValueError(f"{path}: needs at least two distinct classes")
    return x, y


def save_csv(path, features: Array, labels: Array) -> None:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feat_{i}" for i in range(features.shape[1])] + ["label"])
        for row, label in zip(features, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
