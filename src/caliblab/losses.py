"""Classification losses: cross-entropy, evidential, and calibration-aware.

All losses are scalar tape tensors, means over the batch where applicable,
and differentiable with respect to every model parameter on their path.
Correctness bits (is the argmax prediction right) are treated as constants:
they come from a locally constant argmax, so they carry no gradient.

Each loss term is computed in one tape node with a hand-written backward
rule; only the weights in ``total_loss`` and MMCE's clamp and square root
stay primitive ops. The rule repeats, in the same order, the arithmetic of the
term written with primitive tape ops, including the order in which the
gradients of a value's several uses are added, so gradients carry the same
bits as that composition. ``tests/test_fused_ops.py`` keeps the
compositions as the reference.

The evidential, Dirichlet KL and AvUC terms take log-gamma, digamma,
trigamma and the logistic function from ``caliblab.special``. Each term
evaluates them in one batched call per step, and its VJP reuses the values
of the forward pass.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Array, Tensor, as_tensor, constant, sq_dist
from .config import LossWeights
from .special import expit, lgamma_digamma_trigamma
from .uncertainty import DirichletOutput, ModelOutput

_LOG_FLOOR = 1e-12
_BCE_CLAMP = 1e-7
_COUNT_EPS = 1e-8


def one_hot(labels: Array, classes: int) -> Array:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if labels.size and _out_of_range(labels, classes):
        raise ValueError(f"label out of range [0, {classes})")
    n = labels.shape[0]
    out = np.zeros((n, classes))
    out[np.arange(n), labels] = 1.0
    return out


def _out_of_range(labels: Array, classes: int) -> bool:
    if labels.dtype == np.int64:
        # Read as unsigned, a negative label is at least 2**63, so one
        # reduction checks both ends of the range.
        return labels.view(np.uint64).max() >= classes
    return labels.min() < 0 or labels.max() >= classes


def _check_simplex(probs: Array) -> None:
    if probs.ndim != 2:
        raise ValueError("probabilities must be a 2-D array of rows")
    drift = np.abs(probs.sum(axis=1) - 1.0)
    if probs.min() < -1e-9 or drift.max() > 1e-9:
        raise ValueError("probability rows must lie on the simplex")


def cross_entropy(probs: Tensor, labels: Array) -> Tensor:
    """Mean negative log-probability of the true class, floor-clamped.

    Rows whose true-class probability sits at or below the floor get no
    gradient.
    """
    probs = as_tensor(probs)
    _check_simplex(probs.data)
    mask = one_hot(labels, probs.data.shape[1])
    p_true = np.maximum((probs.data * mask).sum(axis=1), _LOG_FLOOR)
    keep = p_true > _LOG_FLOOR
    n = float(p_true.size)

    def vjp(g: Array):
        rows = -g / n / p_true * keep
        return (rows[:, None] * mask,)

    return Tensor._from_op(
        -np.asarray(np.log(p_true).mean()), (probs,), vjp, "cross_entropy"
    )


def dirichlet_kl_uniform(alpha: Tensor) -> Tensor:
    """Per-sample KL divergence from Dirichlet(alpha) to the flat Dirichlet.

    Closed form: ln G(S) - sum_c ln G(a_c) - ln G(M)
                 + sum_c (a_c - 1) (psi(a_c) - psi(S)),  S = sum_c a_c.
    Zero exactly when every concentration parameter is 1.
    """
    alpha = as_tensor(alpha)
    a = alpha.data
    _check_dirichlet(a)
    f = lgamma_digamma_trigamma(np.concatenate(_kl_arguments(a)))
    value, vjp = _dirichlet_kl(a, f)
    return Tensor._from_op(value, (alpha,), lambda g: (vjp(g),), "dirichlet_kl")


def _check_dirichlet(a: Array) -> None:
    if a.ndim != 2:
        raise ValueError("alpha must be a 2-D array of Dirichlet rows")
    if a.min() <= 0:
        raise ValueError("Dirichlet parameters must be positive")


def _kl_arguments(a: Array) -> list:
    """The KL's special-function arguments: row sums, entries, then M."""
    return [a.sum(axis=1), a.reshape(-1), (a.shape[1],)]


def _dirichlet_kl(a: Array, f: Array):
    """The KL of each row of `a`, and its VJP from row to alpha gradients.

    `f` is ``lgamma_digamma_trigamma`` of ``_kl_arguments(a)``. The VJP
    reuses the forward digammas.
    """
    n, m = a.shape
    lgamma_total, psi_total, trigamma_total = f[:, :n]
    lgamma_a, psi_a, trigamma_a = f[:, n:-1].reshape((3, n, m))
    log_norm = lgamma_total - lgamma_a.sum(axis=1)
    excess = a - 1.0
    psi_gap = psi_a - psi_total[:, None]
    value = log_norm - float(f[0, -1]) + (excess * psi_gap).sum(axis=1)

    def vjp(g: Array) -> Array:
        g_rows = g[:, None]
        g_total = (g * psi_total)[:, None]
        g_psi_total = (-(g_rows * excess)).sum(axis=1, keepdims=True)
        g_total = g_total + g_psi_total * trigamma_total[:, None]
        # alpha's four uses, added in the composition's order: ln G(a),
        # (a - 1), psi(a), then S.
        g_alpha = -g_rows * psi_a
        g_alpha += g_rows * psi_gap
        g_alpha += g_rows * excess * trigamma_a
        g_alpha += g_total
        return g_alpha

    return value, vjp


def evidential_loss(
    dirichlet: DirichletOutput, labels: Array, kl_weight: float = 0.0
) -> Tensor:
    """Dirichlet data term plus a weighted misleading-evidence KL penalty.

    Data term per sample: psi(S) - psi(alpha_true). The KL penalty removes
    the true-class evidence first (alpha_tilde = y + (1-y)*alpha), so only
    evidence assigned to wrong classes is pushed toward the flat prior.

    The loss is one tape node. One special-function evaluation covers the
    data term and the KL, and the VJP repeats the arithmetic of
    ``data + kl_weight * dirichlet_kl_uniform(alpha_tilde).mean()``.
    """
    if kl_weight < 0:
        raise ValueError("kl_weight must be non-negative")
    alpha, strength = dirichlet.alpha, dirichlet.strength
    n, m = alpha.data.shape
    mask = one_hot(labels, m)
    alpha_true = (alpha.data * mask).sum(axis=1)
    s_rows = strength.data.reshape((-1,))
    arguments = [s_rows, alpha_true]
    with_kl = kl_weight != 0.0
    if with_kl:
        keep = 1.0 - mask
        alpha_tilde = mask + keep * alpha.data
        _check_dirichlet(alpha_tilde)
        arguments += _kl_arguments(alpha_tilde)
    f = lgamma_digamma_trigamma(np.concatenate(arguments))
    _, psi_s, trigamma_s = f[:, :n]
    _, psi_true, trigamma_true = f[:, n : 2 * n]
    value = (psi_s - psi_true).mean()
    if with_kl:
        kl_rows, kl_vjp = _dirichlet_kl(alpha_tilde, f[:, 2 * n :])
        value = value + kl_rows.mean() * kl_weight
    rows = float(n)

    def vjp(g: Array):
        g_rows = g / rows
        g_strength = (g_rows * trigamma_s).reshape(strength.data.shape)
        g_alpha = (-g_rows * trigamma_true)[:, None] * mask
        if with_kl:
            # The KL rows get g * kl_weight / n, as through `.mean()`, and
            # alpha gets their gradient where alpha_tilde follows it.
            g_kl = np.empty(n)
            g_kl[...] = g * kl_weight / rows
            g_alpha = g_alpha + kl_vjp(g_kl) * keep
        return g_alpha, g_strength

    return Tensor._from_op(np.asarray(value), (alpha, strength), vjp, "evidential")


def avuc_loss(
    confidence: Tensor,
    uncertainty: Tensor,
    correct: Array,
    conf_threshold: float = 0.5,
    unc_threshold: float = 0.5,
    sharpness: float = 0.1,
) -> Tensor:
    """Soft accuracy-versus-uncertainty loss.

    Each sample gets a smooth certain-membership: the product of a rising
    sigmoid in confidence around `conf_threshold` and a falling sigmoid in
    uncertainty around `unc_threshold` (temperature `sharpness`). Combined
    with the hard correctness bit this yields soft counts of the four
    accurate/inaccurate x certain/uncertain cells, and the loss is
    log(1 + (n_au + n_ic) / (n_ac + n_iu + eps)): zero when mass sits only
    in the two aligned cells. As sharpness -> 0 the counts become the hard
    threshold counts.

    Confidence and uncertainty must lie in [0, 1]; the loss does not check
    this. Outside it, a sharpness below 1/709 can overflow ``exp`` with a
    RuntimeWarning, though the loss's bits are the same.
    """
    if not (0.0 < conf_threshold < 1.0 and 0.0 < unc_threshold < 1.0):
        raise ValueError("avuc thresholds must lie strictly inside (0, 1)")
    if not (math.isfinite(sharpness) and sharpness > 0):
        raise ValueError(
            f"avuc sharpness must be positive and finite, got {sharpness!r}"
        )
    r = as_tensor(confidence)
    u = as_tensor(uncertainty)
    if r.data.shape != u.data.shape or r.data.ndim != 1:
        raise ValueError("confidence and uncertainty must be aligned 1-D arrays")
    acc = np.asarray(correct, dtype=np.float64)
    if acc.shape != r.data.shape:
        raise ValueError("correctness bits must align with confidence")
    inv = 1.0 / sharpness
    n = r.data.shape[0]
    logits = np.empty((2, n))
    np.subtract(r.data, conf_threshold, out=logits[0])
    np.subtract(unc_threshold, u.data, out=logits[1])
    logits *= inv
    # Confidence and uncertainty lie in [0, 1] and the thresholds inside
    # it, so no logit exceeds `inv` in size.
    s_conf, s_unc = expit(logits, bound=inv)
    certain = s_conf * s_unc
    inacc = 1.0 - acc
    uncertain = 1.0 - certain
    # One row per cell; numpy sums each row as it sums a 1-D array.
    cells = np.empty((4, n))
    np.multiply(acc, certain, out=cells[0])
    np.multiply(acc, uncertain, out=cells[1])
    np.multiply(inacc, certain, out=cells[2])
    np.multiply(inacc, uncertain, out=cells[3])
    n_ac, n_au, n_ic, n_iu = cells.sum(axis=1)
    num = n_au + n_ic
    den = n_ac + n_iu + _COUNT_EPS
    ratio = num / den

    def vjp(g: Array):
        g_ratio = g / (ratio + 1.0)
        g_num = g_ratio / den
        g_den = -g_ratio * num / (den * den)
        # The four counts reach `certain` in the composition's order:
        # n_au, n_ic, n_ac, n_iu.
        g_certain = -(g_num * acc)
        g_certain += g_num * inacc
        g_certain += g_den * acc
        g_certain += -(g_den * inacc)
        g_conf = g_certain * s_unc * s_conf * (1.0 - s_conf) * inv
        g_unc = -(g_certain * s_conf * s_unc * (1.0 - s_unc) * inv)
        return g_conf, g_unc

    return Tensor._from_op(np.log(ratio + 1.0), (r, u), vjp, "avuc")


def mmce_loss(
    confidence: Tensor, correct: Array, kernel_width: float = 0.4
) -> Tensor:
    """Kernel maximum mean calibration error over a batch.

    With a Laplacian kernel k(a, b) = exp(-|a - b| / width), m correct
    samples out of n, and confidences r:

        sum_{i,j incorrect} r_i r_j k / (n-m)^2
      + sum_{i,j correct} (1-r_i)(1-r_j) k / m^2
      - 2 sum_{i correct, j incorrect} (1-r_i) r_j k / ((n-m) m)

    The value is the square root of that (clamped at zero) sum. Categories
    with no members contribute nothing, so single-sided batches are safe.
    """
    if not (math.isfinite(kernel_width) and kernel_width > 0):
        raise ValueError(
            f"mmce kernel_width must be positive and finite, got {kernel_width!r}"
        )
    r = as_tensor(confidence)
    if r.data.ndim != 1:
        raise ValueError("confidence must be a 1-D array")
    flags = np.asarray(correct, dtype=bool)
    if flags.shape != r.data.shape:
        raise ValueError("correctness bits must align with confidence")
    n = r.data.shape[0]
    if n < 1:
        raise ValueError("mmce needs a non-empty batch")
    m = int(flags.sum())
    col = r.data.reshape((n, 1))
    row = r.data.reshape((1, n))
    diff = col - row
    inv_width = 1.0 / kernel_width
    kernel = np.exp(-(np.abs(diff) * inv_width))
    cor = flags.astype(np.float64)
    inc = 1.0 - cor
    # Each present sum as (pair weights, left factor, right factor, scale).
    # Either one sum is present or all three are, and then the third is
    # subtracted.
    terms = []
    if n - m > 0:
        terms.append((np.outer(inc, inc), col, row, 1.0 / (n - m) ** 2))
    if m > 0:
        terms.append((np.outer(cor, cor), 1.0 - col, 1.0 - row, 1.0 / m**2))
    if m > 0 and n - m > 0:
        terms.append((np.outer(cor, inc), 1.0 - col, row, 2.0 / ((n - m) * m)))
    sums = [
        (kernel * (left * right) * pair).sum() * scale
        for pair, left, right, scale in terms
    ]
    total = sums[0] if len(sums) == 1 else sums[0] + sums[1] - sums[2]

    def vjp(g: Array):
        # The composition adds up the kernel's gradient term by term, and
        # the column's (row's) as: term 1, term 2, the kernel's |col - row|,
        # term 3. The same order gives the same bits.
        g_kernel = None
        col_parts: list[Array] = []
        row_parts: list[Array] = []
        for (pair, left, right, scale), g_term in zip(terms, (g, g, -g)):
            g_pair = g_term * scale * pair
            g_k = g_pair * (left * right)
            g_kernel = g_k if g_kernel is None else g_kernel + g_k
            g_prod = g_pair * kernel
            g_left = (g_prod * right).sum(axis=1, keepdims=True)
            g_right = (g_prod * left).sum(axis=0, keepdims=True)
            # A factor that is 1 - col (1 - row) passes its gradient negated.
            col_parts.append(g_left if left is col else -g_left)
            row_parts.append(g_right if right is row else -g_right)
        g_diff = -(g_kernel * kernel) * inv_width * np.sign(diff)
        col_parts.insert(2, g_diff.sum(axis=1, keepdims=True))
        row_parts.insert(2, (-g_diff).sum(axis=0, keepdims=True))
        g_col, g_row = col_parts[0], row_parts[0]
        for col_part, row_part in zip(col_parts[1:], row_parts[1:]):
            g_col = g_col + col_part
            g_row = g_row + row_part
        return g_col.reshape(n), g_row.reshape(n)

    # r enters twice, as the column and as the row of the pairwise kernel.
    total = Tensor._from_op(total, (r, r), vjp, "mmce")
    return total.clamp_min(0.0).sqrt()


def ldu_aux_losses(
    prototypes: Tensor,
    probs: Tensor,
    predicted_uncertainty: Tensor,
    labels: Array,
) -> tuple[Tensor, Tensor, Tensor]:
    """Auxiliary terms for the prototype head.

    Returns (entropy, dispersion, uncertainty_bce):
    * entropy: mean Shannon entropy of the prototype-softmax rows,
    * dispersion: mean over distinct prototype pairs of exp(-||p_a - p_b||^2),
      zero when fewer than two prototypes exist,
    * uncertainty_bce: binary cross-entropy between the predicted
      uncertainty and the error indicator (1 - correctness), with the
      probability clamped to [1e-7, 1 - 1e-7].
    """
    prototypes = as_tensor(prototypes)
    probs = as_tensor(probs)
    _check_simplex(probs.data)

    labels = np.asarray(labels)
    errors = (np.argmax(probs.data, axis=1) != labels).astype(np.float64)
    return (
        _mean_entropy(probs),
        _dispersion(prototypes),
        _uncertainty_bce(as_tensor(predicted_uncertainty), errors),
    )


def _mean_entropy(probs: Tensor) -> Tensor:
    """``-(probs * log(clamp_min(probs, floor))).sum(1).mean()``."""
    p = probs.data
    clamped = np.maximum(p, _LOG_FLOOR)
    log_p = np.log(clamped)
    rows = (p * log_p).sum(axis=1)

    def vjp(g: Array):
        g_rows = -g / float(rows.size)
        # probs enters twice: as the factor, then through the log.
        return g_rows * log_p, g_rows * p / clamped * (p > _LOG_FLOOR)

    return Tensor._from_op(-np.asarray(rows.mean()), (probs, probs), vjp, "entropy")


def _dispersion(prototypes: Tensor) -> Tensor:
    """``(exp(-sq_dist(P, P)) * off_diagonal).sum() / (m (m - 1))``, or a
    constant 0 for fewer than two prototypes."""
    m = prototypes.data.shape[0]
    if m < 2:
        return constant(0.0)
    sq = sq_dist(prototypes, prototypes)
    off_diagonal = 1.0 - np.eye(m)
    scale = 1.0 / (m * (m - 1))
    kernel = np.exp(-sq.data)

    def vjp(g: Array):
        return (-(g * scale * off_diagonal * kernel),)

    return Tensor._from_op(
        (kernel * off_diagonal).sum() * scale, (sq,), vjp, "dispersion"
    )


def _uncertainty_bce(u: Tensor, errors: Array) -> Tensor:
    """``-(e * log(c) + (1 - e) * log(1 - c)).mean()``, where c is `u`
    clamped to [1e-7, 1 - 1e-7] and e the error indicator."""
    lo = np.maximum(u.data, _BCE_CLAMP)
    c = np.minimum(lo, 1.0 - _BCE_CLAMP)
    keep = (u.data > _BCE_CLAMP) * (lo < 1.0 - _BCE_CLAMP)
    hits = 1.0 - errors
    terms = errors * np.log(c) + hits * np.log(1.0 - c)

    def vjp(g: Array):
        g_terms = -g / float(terms.size)
        g_c = g_terms * errors / c + -(g_terms * hits / (1.0 - c))
        return (g_c * keep,)

    return Tensor._from_op(-np.asarray(terms.mean()), (u,), vjp, "uncertainty_bce")


def total_loss(output: ModelOutput, labels: Array, weights: LossWeights) -> Tensor:
    """Compose the training loss for a head and a set of term weights.

    Terms with zero weight are skipped entirely, so the all-zero setting is
    bitwise the plain baseline loss for the head. Weights that do not apply
    to the given head are ignored.
    """
    labels = np.asarray(labels)
    if output.head == "enn":
        loss = evidential_loss(output.dirichlet, labels, weights.evidential_kl)
    else:
        loss = cross_entropy(output.probs, labels)

    if output.head == "dm" and (
        weights.dm_entropy > 0
        or weights.proto_dispersion > 0
        or weights.uncertainty_bce > 0
    ):
        entropy, dispersion, bce = ldu_aux_losses(
            output.prototypes, output.probs, output.uncertainty, labels
        )
        if weights.dm_entropy > 0:
            loss = loss + weights.dm_entropy * entropy
        if weights.proto_dispersion > 0:
            loss = loss + weights.proto_dispersion * dispersion
        if weights.uncertainty_bce > 0:
            loss = loss + weights.uncertainty_bce * bce

    if weights.avuc > 0 or weights.mmce > 0:
        correct = output.predictions == labels
        if weights.avuc > 0:
            loss = loss + weights.avuc * avuc_loss(
                output.confidence,
                output.uncertainty,
                correct,
                conf_threshold=weights.conf_threshold,
                unc_threshold=weights.unc_threshold,
                sharpness=weights.avuc_sharpness,
            )
        if weights.mmce > 0:
            loss = loss + weights.mmce * mmce_loss(
                output.confidence, correct, kernel_width=weights.kernel_width
            )
    return loss
