"""Independent brute-force reference implementations used only by tests.

Everything here is written as plain loops straight from the definitions, on
purpose: these are the second route that the vectorized library code is
checked against, so they must not share code with the package.
"""

from __future__ import annotations

import math

import numpy as np


# -- binned calibration metrics (explicit loops) -------------------------------


def fixed_bin_index(conf: float, n_bins: int) -> int:
    for k in range(1, n_bins + 1):
        lo = (k - 1) / n_bins
        hi = k / n_bins
        if k < n_bins:
            if lo <= conf < hi:
                return k - 1
        else:
            if lo <= conf <= hi:
                return k - 1
    raise AssertionError(f"confidence {conf} fell through the bins")


def fixed_bin_members(conf, n_bins: int) -> list[list[int]]:
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    for i, c in enumerate(conf):
        bins[fixed_bin_index(float(c), n_bins)].append(i)
    return bins


def adaptive_bin_members(conf, n_bins: int) -> list[list[int]]:
    order = sorted(range(len(conf)), key=lambda i: conf[i])  # stable
    base, rem = divmod(len(conf), n_bins)
    sizes = [base + 1] * rem + [base] * (n_bins - rem)
    bins, start = [], 0
    for size in sizes:
        bins.append(order[start : start + size])
        start += size
    return bins


def _bin_stats(members: list[int], conf, correct) -> tuple[float, float]:
    mean_conf = sum(conf[i] for i in members) / len(members)
    acc = sum(correct[i] for i in members) / len(members)
    return mean_conf, acc


def naive_bin_table(conf, correct, n_bins: int, scheme: str = "fixed") -> dict:
    """Every BinTable field, bin by bin; empty bins read 0."""
    if scheme == "fixed":
        bins = fixed_bin_members(conf, n_bins)
        lower = [k / n_bins for k in range(n_bins)]
        upper = [(k + 1) / n_bins for k in range(n_bins)]
    else:
        bins = adaptive_bin_members(conf, n_bins)
        lower = [conf[members[0]] for members in bins]
        upper = [conf[members[-1]] for members in bins]
    count, mean_conf, accuracy = [], [], []
    for members in bins:
        count.append(len(members))
        stats = _bin_stats(members, conf, correct) if members else (0.0, 0.0)
        mean_conf.append(stats[0])
        accuracy.append(stats[1])
    return {
        "lower": lower,
        "upper": upper,
        "count": count,
        "mean_confidence": mean_conf,
        "accuracy": accuracy,
    }


def naive_ece(conf, correct, n_bins: int, scheme: str = "fixed") -> float:
    if scheme == "fixed":
        bins = fixed_bin_members(conf, n_bins)
    else:
        bins = adaptive_bin_members(conf, n_bins)
    n = len(conf)
    total = 0.0
    for members in bins:
        if not members:
            continue
        mean_conf, acc = _bin_stats(members, conf, correct)
        total += len(members) / n * abs(acc - mean_conf)
    return total


def naive_mce(conf, correct, n_bins: int) -> float:
    worst = 0.0
    for members in fixed_bin_members(conf, n_bins):
        if not members:
            continue
        mean_conf, acc = _bin_stats(members, conf, correct)
        worst = max(worst, abs(acc - mean_conf))
    return worst


def naive_oe(conf, correct, n_bins: int) -> float:
    n = len(conf)
    total = 0.0
    for members in fixed_bin_members(conf, n_bins):
        if not members:
            continue
        mean_conf, acc = _bin_stats(members, conf, correct)
        total += len(members) / n * mean_conf * max(mean_conf - acc, 0.0)
    return total


def naive_bacc(true_labels, pred_labels) -> float:
    recalls = []
    for cls in sorted(set(int(t) for t in true_labels)):
        idx = [i for i, t in enumerate(true_labels) if t == cls]
        hits = sum(1 for i in idx if pred_labels[i] == cls)
        recalls.append(hits / len(idx))
    return sum(recalls) / len(recalls)


def naive_brier(probs, true_labels) -> float:
    n, m = probs.shape
    total = 0.0
    for i in range(n):
        for c in range(m):
            target = 1.0 if c == true_labels[i] else 0.0
            total += (probs[i, c] - target) ** 2
    return total / n


# -- losses ---------------------------------------------------------------------


def mmce_three_sums(conf, correct, width: float = 0.4) -> float:
    """Literal three-sum kernel calibration error, quadratic loops."""
    r = [float(v) for v in conf]
    c = [bool(v) for v in correct]
    n = len(r)
    m = sum(c)

    def k(a: float, b: float) -> float:
        return math.exp(-abs(a - b) / width)

    total = 0.0
    if n - m > 0:
        s = 0.0
        for i in range(n):
            for j in range(n):
                if not c[i] and not c[j]:
                    s += r[i] * r[j] * k(r[i], r[j])
        total += s / (n - m) ** 2
    if m > 0:
        s = 0.0
        for i in range(n):
            for j in range(n):
                if c[i] and c[j]:
                    s += (1 - r[i]) * (1 - r[j]) * k(r[i], r[j])
        total += s / m**2
    if m > 0 and n - m > 0:
        s = 0.0
        for i in range(n):
            for j in range(n):
                if c[i] and not c[j]:
                    s += (1 - r[i]) * r[j] * k(r[i], r[j])
        total -= 2.0 * s / ((n - m) * m)
    return math.sqrt(max(total, 0.0))


def avuc_hard_counts(conf, unc, correct, thr_conf: float, thr_unc: float) -> float:
    """Hard-threshold accuracy-versus-uncertainty loss."""
    n_ac = n_au = n_ic = n_iu = 0
    for r, u, a in zip(conf, unc, correct):
        certain = r > thr_conf and u < thr_unc
        if a and certain:
            n_ac += 1
        elif a:
            n_au += 1
        elif certain:
            n_ic += 1
        else:
            n_iu += 1
    return math.log(1.0 + (n_au + n_ic) / (n_ac + n_iu + 1e-8))


# -- linear algebra ---------------------------------------------------------------


def top_singular_value(matrix) -> float:
    return float(np.linalg.svd(np.asarray(matrix), compute_uv=False)[0])


# -- optimizers (the per-parameter loops the flat-buffer ones replaced) ------------


def _check_grads(params, grads) -> None:
    if len(params) != len(grads):
        raise ValueError("one gradient per parameter is required")
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.data.shape:
            raise ValueError(f"gradient {i} shape {g.shape} != param {p.data.shape}")
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {i}")


class LoopAdam:
    """Adam with bias-corrected moment estimates, one parameter at a time."""

    def __init__(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self._m = None
        self._v = None

    def step(self, params, grads) -> None:
        _check_grads(params, grads)
        if self._m is None:
            self._m = [np.zeros_like(p.data) for p in params]
            self._v = [np.zeros_like(p.data) for p in params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)


class LoopSGDMomentum:
    """Heavy-ball update: v <- momentum*v - lr*g; p <- p + v, per parameter."""

    def __init__(self, lr: float, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self._v = None

    def step(self, params, grads) -> None:
        _check_grads(params, grads)
        if self._v is None:
            self._v = [np.zeros_like(p.data) for p in params]
        for p, g, v in zip(params, grads, self._v):
            v *= self.momentum
            v -= self.lr * g
            p.data += v


# -- prediction-log text (one format call per cell) -------------------------------


def naive_prediction_log(records) -> str:
    """The log text with every cell formatted on its own: ``%d`` for the ids
    and labels, ``%.12e`` for the floats, CRLF line ends."""
    n_classes = records.probs.shape[1]
    header = ["sample_id", "true_label", "pred_label", "confidence", "uncertainty"]
    header += [f"p_{c}" for c in range(n_classes)]
    lines = [",".join(header)]
    for i in range(records.probs.shape[0]):
        cells = [
            "%d" % int(records.sample_id[i]),
            "%d" % int(records.true_label[i]),
            "%d" % int(records.pred_label[i]),
            "%.12e" % float(records.confidence[i]),
            "%.12e" % float(records.uncertainty[i]),
        ]
        for c in range(n_classes):
            cells.append("%.12e" % float(records.probs[i, c]))
        lines.append(",".join(cells))
    return "".join(line + "\r\n" for line in lines)


# -- ensemble (one stacked copy of every log) -------------------------------------


def stacked_mean_ensemble(logs) -> dict:
    """The probability-averaging ensemble computed from one stacked array of
    all logs: the mean over the stack, rows renormalized only when some sum
    drifts from 1 by more than 1e-9, ties to the lowest class. Returns the
    four derived columns by name."""
    mean_probs = np.stack([log.probs for log in logs]).mean(axis=0)
    sums = mean_probs.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        mean_probs = mean_probs / sums[:, None]
    preds = np.argmax(mean_probs, axis=1)
    conf = mean_probs[np.arange(mean_probs.shape[0]), preds]
    return {
        "pred_label": preds,
        "confidence": conf,
        "uncertainty": 1.0 - conf,
        "probs": mean_probs,
    }
