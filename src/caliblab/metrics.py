"""Calibration and accuracy metrics over columnar prediction records.

Predictions
-----------
A ``Predictions`` holds one column per field (ids, labels, confidence,
uncertainty) plus an (n, C) probability matrix. It is validated once, with
vectorized checks, when it is built, and its arrays are read-only from then
on, so no metric validates again: a column that is already read-only down
to the owner of its memory is adopted, any other is copied. Iterating it
yields ``PredictionRecord`` rows; ``Predictions.from_records`` builds one
from such rows.

Binning conventions
-------------------
Fixed-width scheme: ``n_bins`` equal intervals of [0, 1]; bin k holds
confidences in [k/n, (k+1)/n) and the last bin is closed on the right, so a
confidence of exactly 1.0 lands in the top bin. Adaptive scheme: records are
stably sorted by confidence and split into ``n_bins`` contiguous groups whose
sizes differ by at most one (earlier groups take the extra element). Both
schemes assign every record a bin index and sum each bin's count,
confidences and hits with ``np.bincount``.

ECE is the support-weighted mean absolute gap between bin accuracy and bin
confidence, MCE the maximum gap over non-empty bins, and the overconfidence
error weights each bin's *positive* gap by its mean confidence. All of them
are computed from the same ``BinTable`` the reliability diagram uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

_SIMPLEX_TOL = 1e-9


@dataclass
class PredictionRecord:
    """One scored test sample: a row of a ``Predictions``."""

    sample_id: int
    true_label: int
    pred_label: int
    confidence: float
    uncertainty: float
    probs: Array


class RecordError(ValueError):
    """A prediction record failed validation; `index` is its 0-based row."""

    def __init__(self, index: int, problem: str):
        super().__init__(f"record {index}: {problem}")
        self.index = index


def _frozen(arr: Array) -> bool:
    """True when `arr` and every array down to the owner of its memory are
    read-only, so no handle on that memory can write to it."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _column(values, name: str, integer: bool) -> Array:
    """One column in its canonical dtype, read-only.

    An array that already has the dtype and is frozen (``_frozen``) is
    adopted as it is; anything else is copied, so no caller can write to a
    validated column.
    """
    arr = np.asarray(values)
    if integer and arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    dtype = np.dtype(np.int64 if integer else np.float64)
    if arr.dtype == dtype and _frozen(arr):
        return arr
    arr = np.array(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Predictions:
    """Scored test samples as columns; row i is sample i.

    Integer columns are stored as int64, the others as float64, all
    read-only. A column that already has its dtype and is read-only down to
    the owner of its memory is adopted without a copy; any other is copied.
    Construction validates every row (see ``validate_records``) and raises
    on the first bad one.
    """

    sample_id: Array
    true_label: Array
    pred_label: Array
    confidence: Array
    uncertainty: Array
    probs: Array  # (n, n_classes)

    def __post_init__(self):
        for name in ("sample_id", "true_label", "pred_label"):
            object.__setattr__(self, name, _column(getattr(self, name), name, True))
        for name in ("confidence", "uncertainty", "probs"):
            object.__setattr__(self, name, _column(getattr(self, name), name, False))
        validate_records(self)

    @classmethod
    def from_records(cls, records: list[PredictionRecord]) -> Predictions:
        """Stack rows into columns; rows must share one probability width."""
        if not records:
            raise ValueError("need at least one prediction record")
        rows = [np.asarray(r.probs, dtype=np.float64) for r in records]
        for i, row in enumerate(rows):
            if row.ndim != 1 or row.shape != rows[0].shape:
                raise RecordError(i, "inconsistent probability width")
        return cls(
            sample_id=[r.sample_id for r in records],
            true_label=[r.true_label for r in records],
            pred_label=[r.pred_label for r in records],
            confidence=[r.confidence for r in records],
            uncertainty=[r.uncertainty for r in records],
            probs=np.stack(rows),
        )

    def __len__(self) -> int:
        return self.true_label.shape[0]

    def __iter__(self):
        columns = (
            self.sample_id.tolist(),
            self.true_label.tolist(),
            self.pred_label.tolist(),
            self.confidence.tolist(),
            self.uncertainty.tolist(),
            self.probs,
        )
        for row in zip(*columns):
            yield PredictionRecord(*row)

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]

    @property
    def correct(self) -> Array:
        """1.0 where the prediction is right, else 0.0."""
        return (self.pred_label == self.true_label).astype(np.float64)


def validate_records(preds: Predictions) -> None:
    """Reject structurally broken predictions.

    Every check runs over whole columns; the error names the first bad
    record and, for that record, the first check it fails.
    """
    p = preds.probs
    if p.ndim != 2 or p.shape[1] == 0:
        raise ValueError("probabilities must form an (n, n_classes) matrix")
    n, classes = p.shape
    pred, true = preds.pred_label, preds.true_label
    conf, unc = preds.confidence, preds.uncertainty
    if any(c.shape != (n,) for c in (preds.sample_id, true, pred, conf, unc)):
        raise ValueError("each column needs one entry per probability row")
    if n == 0:
        raise ValueError("need at least one prediction record")
    tol = _SIMPLEX_TOL
    # Each mask marks the rows that fail one check; a record that fails
    # several is reported with the first in this order.
    checks = [
        (
            ~(np.isfinite(p).all(axis=1) & np.isfinite(conf) & np.isfinite(unc)),
            "non-finite probability, confidence or uncertainty",
        ),
        (
            ~((np.abs(p.sum(axis=1) - 1.0) <= tol) & (p.min(axis=1) >= -tol)),
            "probabilities are off the simplex",
        ),
        (~((pred >= 0) & (pred < classes)), "predicted label out of range"),
        (~((true >= 0) & (true < classes)), "true label out of range"),
        (~((conf >= -tol) & (conf <= 1.0 + tol)), "confidence outside [0, 1]"),
        (
            ~(np.abs(conf - p[np.arange(n), np.clip(pred, 0, classes - 1)]) <= tol),
            "confidence does not match predicted-class probability",
        ),
        (~((unc >= -tol) & (unc <= 1.0 + tol)), "uncertainty outside [0, 1]"),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise RecordError(i, next(problem for mask, problem in checks if mask[i]))


@dataclass
class BinTable:
    """Per-bin support for reliability diagrams and binned metrics."""

    scheme: str
    n_bins: int
    n_samples: int
    lower: Array
    upper: Array
    count: Array
    mean_confidence: Array
    accuracy: Array


def reliability_bins(
    records: Predictions, n_bins: int = 10, scheme: str = "fixed"
) -> BinTable:
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    conf = records.confidence
    n = conf.shape[0]

    if scheme == "fixed":
        boundaries = np.arange(n_bins + 1) / n_bins
        # side="right" puts a confidence equal to a boundary into the upper
        # bin, matching [k/n, (k+1)/n); the clip closes the last bin at 1
        # and keeps a confidence within tolerance below 0 in the first.
        idx = np.clip(
            np.searchsorted(boundaries, conf, side="right") - 1, 0, n_bins - 1
        )
        lower = boundaries[:-1]
        upper = boundaries[1:]
    elif scheme == "adaptive":
        if n < n_bins:
            raise ValueError(
                f"adaptive binning needs at least {n_bins} records, got {n}"
            )
        order = np.argsort(conf, kind="stable")
        sizes = np.full(n_bins, n // n_bins)
        sizes[: n % n_bins] += 1
        idx = np.empty(n, dtype=np.intp)
        idx[order] = np.repeat(np.arange(n_bins), sizes)
        ends = np.cumsum(sizes)
        lower = conf[order[ends - sizes]]
        upper = conf[order[ends - 1]]
    else:
        raise ValueError(f"unknown binning scheme {scheme!r}")

    count = np.bincount(idx, minlength=n_bins)
    occupied = count > 0
    mean_conf = np.zeros(n_bins)
    accuracy = np.zeros(n_bins)
    np.divide(
        np.bincount(idx, weights=conf, minlength=n_bins),
        count,
        out=mean_conf,
        where=occupied,
    )
    np.divide(
        np.bincount(idx, weights=records.correct, minlength=n_bins),
        count,
        out=accuracy,
        where=occupied,
    )
    return BinTable(
        scheme=scheme,
        n_bins=n_bins,
        n_samples=n,
        lower=lower,
        upper=upper,
        count=count,
        mean_confidence=mean_conf,
        accuracy=accuracy,
    )


def ece_from_table(table: BinTable) -> float:
    weights = table.count / table.n_samples
    gaps = np.abs(table.accuracy - table.mean_confidence)
    return float(np.sum(weights * gaps * (table.count > 0)))


def mce_from_table(table: BinTable) -> float:
    gaps = np.abs(table.accuracy - table.mean_confidence)
    occupied = table.count > 0
    return float(np.max(gaps[occupied]))


def overconfidence_from_table(table: BinTable) -> float:
    weights = table.count / table.n_samples
    gaps = np.maximum(table.mean_confidence - table.accuracy, 0.0)
    return float(np.sum(weights * table.mean_confidence * gaps * (table.count > 0)))


def expected_calibration_error(records: Predictions, n_bins: int = 10) -> float:
    return ece_from_table(reliability_bins(records, n_bins, "fixed"))


def adaptive_calibration_error(records: Predictions, n_bins: int = 10) -> float:
    return ece_from_table(reliability_bins(records, n_bins, "adaptive"))


def max_calibration_error(records: Predictions, n_bins: int = 10) -> float:
    return mce_from_table(reliability_bins(records, n_bins, "fixed"))


def overconfidence_error(records: Predictions, n_bins: int = 10) -> float:
    return overconfidence_from_table(reliability_bins(records, n_bins, "fixed"))


def balanced_accuracy(records: Predictions) -> float:
    """Mean per-class recall over the classes present among true labels."""
    labels = records.true_label
    support = np.bincount(labels)
    hits = np.bincount(labels, weights=records.correct)
    present = support > 0
    return float(np.mean(hits[present] / support[present]))


def brier_score(records: Predictions) -> float:
    """Multiclass Brier score: mean squared distance to the one-hot target."""
    probs = records.probs
    target = np.zeros_like(probs)
    target[np.arange(probs.shape[0]), records.true_label] = 1.0
    return float(np.mean(np.sum((probs - target) ** 2, axis=1)))


@dataclass
class CalibrationReport:
    """Every summary metric plus the bin tables they were computed from."""

    bacc: float
    ece: float
    aece: float
    mce: float
    oe: float
    brier: float
    n_bins: int
    n_samples: int
    fixed_bins: BinTable
    adaptive_bins: BinTable

    def metric_dict(self) -> dict[str, float]:
        return {
            "bacc": self.bacc,
            "ece": self.ece,
            "aece": self.aece,
            "mce": self.mce,
            "oe": self.oe,
            "brier": self.brier,
        }


def calibration_report(
    records: Predictions, n_bins: int = 10
) -> CalibrationReport:
    """Compute all metrics from one pair of bin tables, so the binned
    numbers agree bitwise with the reliability diagram export."""
    fixed = reliability_bins(records, n_bins, "fixed")
    adaptive = reliability_bins(records, n_bins, "adaptive")
    return CalibrationReport(
        bacc=balanced_accuracy(records),
        ece=ece_from_table(fixed),
        aece=ece_from_table(adaptive),
        mce=mce_from_table(fixed),
        oe=overconfidence_from_table(fixed),
        brier=brier_score(records),
        n_bins=n_bins,
        n_samples=fixed.n_samples,
        fixed_bins=fixed,
        adaptive_bins=adaptive,
    )
