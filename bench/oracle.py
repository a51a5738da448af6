"""Synthetic prediction logs and an independent numpy oracle for their metrics.

Nothing here imports caliblab: the logs are written with this module's own
formatter in the documented log format (``{:.12e}`` floats, a
``sample_id,true_label,pred_label,confidence,uncertainty,p_0..p_<c>``
header), and the oracle recomputes every summary metric with ``np.bincount``
so a change to the program cannot move the reference it is checked against.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

METRIC_KEYS = ("bacc", "ece", "aece", "mce", "oe", "brier")

# Rows whose confidence sits exactly on a bin edge of the 10-bin scheme.
# Every entry is a probability row before its classes are permuted; the
# first entry is the winning class. Confidence 0.5 and 1.0 are exact in
# binary; the others round-trip through the text format to the same double
# as the bin boundary k/10.
_EDGE_ROWS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.5, 0.25, 0.125, 0.125],
        [0.3, 0.25, 0.25, 0.2],
        [0.4, 0.3, 0.2, 0.1],
        [0.6, 0.2, 0.1, 0.1],
        [0.7, 0.1, 0.1, 0.1],
        [0.8, 0.1, 0.05, 0.05],
        [0.9, 0.05, 0.03, 0.02],
    ]
)
_EDGE_EVERY = 40


def header(n_classes: int) -> str:
    probs = ",".join(f"p_{c}" for c in range(n_classes))
    return f"sample_id,true_label,pred_label,confidence,uncertainty,{probs}"


def log_text(ids, labels, probs: np.ndarray) -> str:
    """Format one prediction log; the prediction is the first argmax."""
    n_classes = probs.shape[1]
    preds = np.argmax(probs, axis=1)
    conf = probs[np.arange(probs.shape[0]), preds]
    row = "{},{},{},{:.12e},{:.12e}" + ",{:.12e}" * n_classes
    lines = [header(n_classes)]
    for i, t, p, c, pr in zip(
        np.asarray(ids).tolist(),
        np.asarray(labels).tolist(),
        preds.tolist(),
        conf.tolist(),
        probs.tolist(),
    ):
        lines.append(row.format(i, t, p, c, 1.0 - c, *pr))
    return "\r\n".join(lines) + "\r\n"


def make_logs(seed: int, rows: int, n_logs: int = 3, n_classes: int = 4):
    """Aligned synthetic logs: shared ids and labels, per-log probabilities.

    Row sharpness is drawn uniformly, so confidences cover every bin a
    ``n_classes``-way maximum can reach ([1/n_classes, 1]). In the first log
    every ``_EDGE_EVERY``-th row is replaced by an exact bin-edge row; the
    other logs keep random rows, so their mean lies on no edge and does not
    depend on the order in which a program sums the logs.
    Returns (ids, labels, [probs per log]).
    """
    rng = np.random.default_rng(seed)
    ids = rng.permutation(rows) + 1000
    base = rng.standard_normal((rows, n_classes))
    sharp = rng.uniform(0.0, 6.0, size=(rows, 1))
    # Labels come from a softer distribution than the predictions, so the
    # logs are overconfident the way trained nets usually are.
    truth = _softmax(0.7 * sharp * base)
    cdf = np.cumsum(truth, axis=1)
    labels = np.minimum(
        (rng.random((rows, 1)) > cdf).sum(axis=1), n_classes - 1
    )
    edge_at = np.arange(0, rows, _EDGE_EVERY)
    logs = []
    for j in range(n_logs):
        probs = _softmax(sharp * (base + 0.5 * rng.standard_normal(base.shape)))
        logs.append(probs)
        if j > 0:
            continue
        pick = _EDGE_ROWS[rng.integers(0, len(_EDGE_ROWS), size=edge_at.size)]
        perm = np.argsort(rng.random((edge_at.size, n_classes)), axis=1)
        edge = np.empty_like(pick)
        np.put_along_axis(edge, perm, pick, axis=1)
        probs[edge_at] = edge
    return ids, labels, logs


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def read_log(path) -> dict:
    """Parse a prediction log with numpy's own text reader."""
    table = np.loadtxt(Path(path), delimiter=",", skiprows=1, ndmin=2)
    return {
        "ids": table[:, 0].astype(np.int64),
        "labels": table[:, 1].astype(np.int64),
        "preds": table[:, 2].astype(np.int64),
        "conf": table[:, 3],
        "unc": table[:, 4],
        "probs": table[:, 5:],
    }


# -- metrics ---------------------------------------------------------------


def fixed_bin_index(conf: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin k holds [k/n, (k+1)/n); 1.0 goes to the top bin.

    Starts from floor(conf * n) and corrects against the boundary doubles
    k/n themselves, so a confidence equal to a boundary is placed by exact
    comparison, not by the rounding of the product.
    """
    edges = np.array([k / n_bins for k in range(n_bins + 1)])
    idx = np.clip(np.floor(conf * n_bins).astype(np.int64), 0, n_bins - 1)
    idx = np.where(conf < edges[idx], idx - 1, idx)
    idx = np.where((conf >= edges[idx + 1]) & (idx < n_bins - 1), idx + 1, idx)
    return np.clip(idx, 0, n_bins - 1)


def adaptive_bin_index(conf: np.ndarray, n_bins: int) -> np.ndarray:
    """Stable sort by confidence, then n_bins runs whose sizes differ by at
    most one, earlier runs taking the extra element."""
    n = conf.shape[0]
    sizes = np.full(n_bins, n // n_bins)
    sizes[: n % n_bins] += 1
    idx = np.empty(n, dtype=np.int64)
    idx[np.argsort(conf, kind="stable")] = np.repeat(np.arange(n_bins), sizes)
    return idx


def _binned(conf, correct, idx, n_bins):
    n = conf.shape[0]
    count = np.bincount(idx, minlength=n_bins)
    occupied = count > 0
    safe = np.where(occupied, count, 1)
    mean_conf = np.bincount(idx, weights=conf, minlength=n_bins) / safe
    acc = np.bincount(idx, weights=correct, minlength=n_bins) / safe
    weight = count / n
    gap = np.abs(acc - mean_conf)
    ece = float(np.sum(np.where(occupied, weight * gap, 0.0)))
    mce = float(np.max(gap[occupied]))
    over = np.maximum(mean_conf - acc, 0.0)
    oe = float(np.sum(np.where(occupied, weight * mean_conf * over, 0.0)))
    return count, ece, mce, oe


def oracle_report(log: dict, n_bins: int = 10) -> dict:
    """Summary metrics and fixed/adaptive bin counts of one parsed log."""
    conf = log["conf"]
    labels = log["labels"]
    correct = (log["preds"] == labels).astype(np.float64)
    fixed_count, ece, mce, oe = _binned(
        conf, correct, fixed_bin_index(conf, n_bins), n_bins
    )
    adaptive_count, aece, _, _ = _binned(
        conf, correct, adaptive_bin_index(conf, n_bins), n_bins
    )
    per_class = np.bincount(labels)
    hits = np.bincount(labels, weights=correct, minlength=per_class.size)
    present = per_class > 0
    bacc = float(np.mean(hits[present] / per_class[present]))
    onehot = np.zeros_like(log["probs"])
    onehot[np.arange(labels.size), labels] = 1.0
    brier = float(np.mean(np.sum((log["probs"] - onehot) ** 2, axis=1)))
    return {
        "bacc": bacc,
        "ece": ece,
        "aece": aece,
        "mce": mce,
        "oe": oe,
        "brier": brier,
        "n_samples": int(conf.shape[0]),
        "fixed_count": fixed_count.tolist(),
        "adaptive_count": adaptive_count.tolist(),
    }


def compare_report(report: dict, oracle: dict, tol: float = 1e-9) -> list[str]:
    """Mismatches between a report payload and the oracle; empty if none."""
    problems = []
    for key in METRIC_KEYS:
        got = report.get(key)
        if not isinstance(got, (int, float)) or not abs(got - oracle[key]) <= tol:
            problems.append(f"{key}: report {got!r} != oracle {oracle[key]!r}")
    if report.get("n_samples") != oracle["n_samples"]:
        problems.append(
            f"n_samples: report {report.get('n_samples')!r} != {oracle['n_samples']}"
        )
    bins = report.get("bins", {})
    for scheme in ("fixed", "adaptive"):
        got = bins.get(scheme, {}).get("count")
        if got != oracle[f"{scheme}_count"]:
            problems.append(f"{scheme} bin counts differ from the oracle")
    return problems
