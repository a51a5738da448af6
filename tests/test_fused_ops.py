"""Fused tape nodes against the primitive-op compositions they replace.

Each fused node (softmax, cross-entropy, dense bias + relu, squared
distances, spectral normalization, the evidential data term and Dirichlet
KL, AvUC, the MMCE sum and the three LDU terms) must give the bits of its
composition, value and gradient, and agree with central differences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblab.autodiff import (
    bias_relu,
    constant,
    finite_diff_grad,
    gradients,
    parameter,
    softmax,
    sq_dist,
)
from caliblab.losses import (
    _BCE_CLAMP,
    _COUNT_EPS,
    _LOG_FLOOR,
    avuc_loss,
    cross_entropy,
    dirichlet_kl_uniform,
    evidential_loss,
    ldu_aux_losses,
    mmce_loss,
    one_hot,
)
from caliblab.special import gammaln
from caliblab.uncertainty import DirichletOutput, SpectralNorm, dm_logits

shapes = dict(
    n=st.integers(1, 16), c=st.integers(2, 5), seed=st.integers(0, 2**32 - 1)
)


def rel_err(a, b, floor=1e-6):
    """Largest error relative to the largest entry, so that entries far
    below the gradient's scale are held to its absolute accuracy."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), floor)
    return float(np.max(np.abs(a - b))) / scale


# The compositions the fused nodes replaced, built from primitive ops.


def softmax_composed(logits):
    shift = constant(np.max(logits.data, axis=1, keepdims=True))
    z = (logits - shift).exp()
    return z / z.sum(axis=1, keepdims=True)


def cross_entropy_composed(probs, labels):
    mask = one_hot(labels, probs.data.shape[1])
    p_true = (probs * constant(mask)).sum(axis=1)
    return -(p_true.clamp_min(_LOG_FLOOR).log().mean())


def bias_relu_composed(pre, bias):
    return (pre + bias).relu()


def sq_dist_composed(a, b):
    (n, d), m = a.data.shape, b.data.shape[0]
    diff = a.reshape((n, 1, d)) - b.reshape((1, m, d))
    return (diff * diff).sum(axis=2)


def sn_normalized_composed(sn, weight):
    u_row = constant(sn.u.reshape(1, -1))
    v_col = constant(sn.v.reshape(-1, 1))
    sigma = (u_row @ weight @ v_col).reshape(())
    scale = (sigma * (1.0 / sn.coeff)).clamp_min(1.0)
    return weight / scale


def dirichlet_kl_composed(alpha):
    m = alpha.data.shape[1]
    total = alpha.sum(axis=1, keepdims=True)
    log_norm = total.reshape((-1,)).gammaln() - alpha.gammaln().sum(axis=1)
    geometric = ((alpha - 1.0) * (alpha.digamma() - total.digamma())).sum(axis=1)
    return log_norm - float(gammaln(m)) + geometric


def evidential_composed(alpha, strength, labels, kl_weight):
    mask = constant(one_hot(labels, alpha.data.shape[1]))
    alpha_true = (alpha * mask).sum(axis=1)
    data_term = (strength.reshape((-1,)).digamma() - alpha_true.digamma()).mean()
    if kl_weight == 0.0:
        return data_term
    alpha_tilde = mask + (1.0 - mask) * alpha
    return data_term + kl_weight * dirichlet_kl_composed(alpha_tilde).mean()


def avuc_composed(r, u, correct, conf_threshold, unc_threshold, sharpness):
    inv = 1.0 / sharpness
    certain = ((r - conf_threshold) * inv).sigmoid() * (
        (unc_threshold - u) * inv
    ).sigmoid()
    acc = np.asarray(correct, dtype=np.float64)
    acc_t = constant(acc)
    inacc_t = constant(1.0 - acc)
    n_ac = (acc_t * certain).sum()
    n_au = (acc_t * (1.0 - certain)).sum()
    n_ic = (inacc_t * certain).sum()
    n_iu = (inacc_t * (1.0 - certain)).sum()
    ratio = (n_au + n_ic) / (n_ac + n_iu + _COUNT_EPS)
    return (1.0 + ratio).log()


def mmce_composed(r, correct, kernel_width):
    flags = np.asarray(correct, dtype=bool)
    n = r.data.shape[0]
    m = int(flags.sum())
    col = r.reshape((n, 1))
    row = r.reshape((1, n))
    kernel = (-((col - row).abs() * (1.0 / kernel_width))).exp()
    cor = flags.astype(np.float64)
    inc = 1.0 - cor
    total = None
    if n - m > 0:
        pair = constant(np.outer(inc, inc))
        total = (kernel * (col * row) * pair).sum() * (1.0 / (n - m) ** 2)
    if m > 0:
        pair = constant(np.outer(cor, cor))
        term = (kernel * ((1.0 - col) * (1.0 - row)) * pair).sum() * (1.0 / m**2)
        total = term if total is None else total + term
    if m > 0 and n - m > 0:
        pair = constant(np.outer(cor, inc))
        term = (kernel * ((1.0 - col) * row) * pair).sum() * (2.0 / ((n - m) * m))
        total = total - term
    return total.clamp_min(0.0).sqrt()


def ldu_composed(prototypes, probs, u, labels):
    entropy = -((probs * probs.clamp_min(_LOG_FLOOR).log()).sum(axis=1)).mean()
    m = prototypes.data.shape[0]
    if m < 2:
        dispersion = constant(0.0)
    else:
        off_diagonal = constant(1.0 - np.eye(m))
        sq = sq_dist_composed(prototypes, prototypes)
        dispersion = ((-sq).exp() * off_diagonal).sum() * (1.0 / (m * (m - 1)))
    errors = (np.argmax(probs.data, axis=1) != labels).astype(np.float64)
    clamped = u.clamp_min(_BCE_CLAMP).clamp_max(1.0 - _BCE_CLAMP)
    err_t = constant(errors)
    bce = -((err_t * clamped.log() + (1.0 - err_t) * (1.0 - clamped).log()).mean())
    return entropy, dispersion, bce


def assert_same_bits(fused, composed, leaves, weight=None):
    """Equal values, and equal gradients of a weighted sum of the output."""
    f, c = fused(), composed()
    assert np.array_equal(f.data, c.data)
    w = constant(weight) if weight is not None else 1.0
    gf = gradients((f * w).sum(), leaves)
    gc = gradients((c * w).sum(), leaves)
    for a, b in zip(gf, gc):
        assert np.array_equal(a, b)
    return gf


def assert_matches_finite_differences(build, leaves):
    grads = gradients(build(), leaves)
    fd = finite_diff_grad(lambda: float(build().data), leaves)
    for a, b in zip(grads, fd):
        assert rel_err(a, b) < 1e-6


# ---------------------------------------------------------------- softmax


@settings(max_examples=30, deadline=None)
@given(**shapes)
def test_softmax_is_bitwise_its_composition(n, c, seed):
    rng = np.random.default_rng(seed)
    logits = parameter(rng.standard_normal((n, c)) * 3.0)
    weight = rng.standard_normal((n, c))
    assert_same_bits(
        lambda: softmax(logits), lambda: softmax_composed(logits), [logits], weight
    )
    target = constant(weight)
    assert_matches_finite_differences(
        lambda: (softmax(logits) * target).sum(), [logits]
    )


def test_softmax_tied_rows_match_composition_and_differences():
    logits = parameter([[1.0, 1.0, 1.0], [2.0, 2.0, -1.0], [0.0, 3.0, 3.0]])
    weight = np.array([[0.3, -1.0, 2.0], [1.0, 0.5, -0.2], [0.7, 0.1, -0.4]])
    assert_same_bits(
        lambda: softmax(logits), lambda: softmax_composed(logits), [logits], weight
    )
    assert np.array_equal(softmax(logits).data[0], np.full(3, 1.0 / 3.0))
    target = constant(weight)
    assert_matches_finite_differences(
        lambda: (softmax(logits) * target).sum(), [logits]
    )


def test_softmax_is_one_node():
    logits = parameter(np.zeros((2, 3)))
    out = softmax(logits)
    assert out.op == "softmax" and out._parents == (logits,)


# ----------------------------------------------------------- cross-entropy


@settings(max_examples=30, deadline=None)
@given(**shapes)
def test_cross_entropy_is_bitwise_its_composition(n, c, seed):
    rng = np.random.default_rng(seed)
    logits = parameter(rng.standard_normal((n, c)) * 3.0)
    labels = rng.integers(0, c, size=n)
    probs = parameter(softmax(logits).data)
    assert_same_bits(
        lambda: cross_entropy(probs, labels),
        lambda: cross_entropy_composed(probs, labels),
        [probs],
    )
    assert_same_bits(
        lambda: cross_entropy(softmax(logits), labels),
        lambda: cross_entropy_composed(softmax_composed(logits), labels),
        [logits],
    )
    # The probabilities must stay on the simplex, so differences are taken
    # through the softmax.
    assert_matches_finite_differences(
        lambda: cross_entropy(softmax(logits), labels), [logits]
    )


def test_cross_entropy_below_floor_has_zero_gradient():
    # Row 0 puts e^-40 on its true class, far below the 1e-12 floor.
    logits = parameter([[0.0, 40.0, 0.0], [0.5, -0.2, 1.0]])
    labels = np.array([0, 2])
    probs = parameter(softmax(logits).data)
    assert probs.data[0, 0] < _LOG_FLOOR
    (gp,) = assert_same_bits(
        lambda: cross_entropy(probs, labels),
        lambda: cross_entropy_composed(probs, labels),
        [probs],
    )
    assert np.array_equal(gp[0], np.zeros(3))
    assert gp[1, 2] < 0.0
    (gl,) = gradients(cross_entropy(softmax(logits), labels), [logits])
    assert np.array_equal(gl[0], np.zeros(3))
    assert_matches_finite_differences(
        lambda: cross_entropy(softmax(logits), labels), [logits]
    )


def test_cross_entropy_is_one_node():
    probs = parameter(np.full((2, 2), 0.5))
    loss = cross_entropy(probs, np.array([0, 1]))
    assert loss.op == "cross_entropy" and loss._parents == (probs,)


# ------------------------------------------------------- dense bias + relu


@settings(max_examples=30, deadline=None)
@given(**shapes)
def test_bias_relu_is_bitwise_its_composition(n, c, seed):
    rng = np.random.default_rng(seed)
    bias = parameter(rng.standard_normal(c))
    # Pre-activations at least 0.1 away from the kink, so central
    # differences see a smooth function.
    target = rng.choice([-1.0, 1.0], size=(n, c)) * rng.uniform(0.1, 2.0, (n, c))
    pre = parameter(target - bias.data)
    weight = rng.standard_normal((n, c))
    assert_same_bits(
        lambda: bias_relu(pre, bias),
        lambda: bias_relu_composed(pre, bias),
        [pre, bias],
        weight,
    )
    w = constant(weight)
    assert_matches_finite_differences(
        lambda: (bias_relu(pre, bias) * w).sum(), [pre, bias]
    )


def test_bias_relu_exact_zero_input_gets_zero_gradient():
    pre = parameter([[1.0, -2.0, 0.5], [-1.0, 3.0, 0.0]])
    bias = parameter([-1.0, 2.0, 0.0])
    # Inputs pre + bias: [0, 0, 0.5] and [-2, 5, 0]; the three exact zeros
    # are at the relu kink and pass no gradient.
    gp, gb = assert_same_bits(
        lambda: bias_relu(pre, bias), lambda: bias_relu_composed(pre, bias), [pre, bias]
    )
    assert np.array_equal(gp, np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    assert np.array_equal(gb, np.array([0.0, 1.0, 1.0]))


def test_bias_relu_rejects_mismatched_bias():
    with pytest.raises(ValueError, match="bias_relu"):
        bias_relu(constant(np.ones((2, 3))), constant(np.ones(2)))


# ------------------------------------------------------ squared distances


@settings(max_examples=30, deadline=None)
@given(**shapes)
def test_sq_dist_is_bitwise_its_composition(n, c, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    a = parameter(rng.standard_normal((n, d)))
    b = parameter(rng.standard_normal((c, d)))
    weight = rng.standard_normal((n, c))
    assert_same_bits(
        lambda: sq_dist(a, b), lambda: sq_dist_composed(a, b), [a, b], weight
    )
    assert_same_bits(
        lambda: sq_dist(b, b), lambda: sq_dist_composed(b, b), [b], weight[:1, :1]
    )
    w = constant(weight)
    assert_matches_finite_differences(lambda: (sq_dist(a, b) * w).sum(), [a, b])
    # dm_logits is minus the square root of these distances.
    logits = lambda: -(sq_dist_composed(a, b).sqrt())
    assert_same_bits(lambda: dm_logits(a, b), logits, [a, b], weight)


def test_sq_dist_rejects_mismatched_widths():
    with pytest.raises(ValueError, match="width"):
        sq_dist(constant(np.ones((2, 3))), constant(np.ones((2, 2))))


# --------------------------------------------------- spectral normalization


@settings(max_examples=30, deadline=None)
@given(coeff=st.sampled_from([0.3, 1.0, 100.0]), **shapes)
def test_sn_normalized_is_bitwise_its_composition(coeff, n, c, seed):
    rng = np.random.default_rng(seed)
    weight = parameter(rng.standard_normal((c, n)))
    sn = SpectralNorm(coeff, (c, n), rng)
    sn.refresh(weight.data)
    grad_weight = rng.standard_normal((c, n))
    assert_same_bits(
        lambda: sn.normalized(weight),
        lambda: sn_normalized_composed(sn, weight),
        [weight],
        grad_weight,
    )
    sigma = float(sn.u @ weight.data @ sn.v)
    if abs(sigma / coeff - 1.0) > 1e-2:  # central differences skip the kink
        w = constant(grad_weight)
        assert_matches_finite_differences(
            lambda: (sn.normalized(weight) * w).sum(), [weight]
        )


# ------------------------------------------------------------ evidential


def dirichlet_leaves(rng, n, c):
    alpha = parameter(1.0 + np.exp(rng.standard_normal((n, c))))
    strength = parameter(alpha.data.sum(axis=1, keepdims=True))
    return alpha, strength


def as_dirichlet(alpha, strength):
    return DirichletOutput(alpha, alpha, strength, alpha, strength)


@settings(max_examples=30, deadline=None)
@given(kl_weight=st.sampled_from([0.0, 0.7]), **shapes)
def test_evidential_loss_is_bitwise_its_composition(kl_weight, n, c, seed):
    rng = np.random.default_rng(seed)
    alpha, strength = dirichlet_leaves(rng, n, c)
    labels = rng.integers(0, c, size=n)
    fused = lambda: evidential_loss(as_dirichlet(alpha, strength), labels, kl_weight)
    composed = lambda: evidential_composed(alpha, strength, labels, kl_weight)
    assert_same_bits(fused, composed, [alpha, strength])
    assert_matches_finite_differences(fused, [alpha, strength])


@settings(max_examples=30, deadline=None)
@given(**shapes)
def test_dirichlet_kl_is_bitwise_its_composition(n, c, seed):
    rng = np.random.default_rng(seed)
    alpha, _ = dirichlet_leaves(rng, n, c)
    weight = rng.standard_normal(n)
    assert_same_bits(
        lambda: dirichlet_kl_uniform(alpha),
        lambda: dirichlet_kl_composed(alpha),
        [alpha],
        weight,
    )
    w = constant(weight)
    assert_matches_finite_differences(
        lambda: (dirichlet_kl_uniform(alpha) * w).sum(), [alpha]
    )


# ------------------------------------------------------------------ AvUC


def confidence_leaves(rng, n, c):
    """Confidences in [1/c, 0.95] and uncertainties in [0.1, 0.9], as leaves.

    The confidences lie in distinct n-ths of their range, so no two of them
    sit within central-difference reach of the MMCE kernel's |r_i - r_j| kink.
    """
    slots = (rng.permutation(n) + rng.uniform(0.1, 0.9, n)) / n
    r = parameter(1.0 / c + (0.95 - 1.0 / c) * slots)
    u = parameter(rng.uniform(0.1, 0.9, n))
    return r, u


@settings(max_examples=30, deadline=None)
@given(**shapes)
def test_avuc_is_bitwise_its_composition(n, c, seed):
    rng = np.random.default_rng(seed)
    r, u = confidence_leaves(rng, n, c)
    correct = rng.random(n) < 0.6
    args = (correct, 0.6, 0.4, 0.1)
    assert_same_bits(
        lambda: avuc_loss(r, u, *args), lambda: avuc_composed(r, u, *args), [r, u]
    )
    assert_matches_finite_differences(lambda: avuc_loss(r, u, *args), [r, u])


def test_avuc_with_uncertainty_from_confidence_matches_composition():
    # The softmax head scores uncertainty as 1 - conf: the confidence
    # reaches the loss along two paths.
    logits = parameter([[2.0, 0.1, -1.0], [0.3, 0.2, 0.1], [-1.0, 4.0, 0.0]])
    correct = np.array([True, False, True])

    def build(loss_fn):
        conf = softmax(logits).row_max()
        return loss_fn(conf, 1.0 - conf, correct, 0.5, 0.5, 0.1)

    assert_same_bits(
        lambda: build(avuc_loss), lambda: build(avuc_composed), [logits]
    )


# ------------------------------------------------------------------ MMCE


@settings(max_examples=30, deadline=None)
@given(correct_share=st.sampled_from([0.0, 0.5, 1.0]), **shapes)
def test_mmce_is_bitwise_its_composition(correct_share, n, c, seed):
    rng = np.random.default_rng(seed)
    r, _ = confidence_leaves(rng, n, c)
    correct = rng.random(n) < correct_share
    if 0.0 < correct_share < 1.0:
        correct[0], correct[-1] = True, False
    assert_same_bits(
        lambda: mmce_loss(r, correct, 0.4),
        lambda: mmce_composed(r, correct, 0.4),
        [r],
    )
    assert_matches_finite_differences(lambda: mmce_loss(r, correct, 0.4), [r])


def test_mmce_with_tied_confidences_matches_composition():
    # Equal confidences sit on the kink of |r_i - r_j|; sign(0) = 0 there.
    r = parameter([0.7, 0.7, 0.4, 0.7])
    correct = np.array([True, False, True, False])
    assert_same_bits(
        lambda: mmce_loss(r, correct, 0.4),
        lambda: mmce_composed(r, correct, 0.4),
        [r],
    )


# ------------------------------------------------------------------- LDU


def ldu_leaves(rng, n, c):
    prototypes = parameter(rng.standard_normal((c, 3)))
    probs = parameter(softmax(constant(rng.standard_normal((n, c)) * 3.0)).data)
    _, u = confidence_leaves(rng, n, c)
    return prototypes, probs, u


@settings(max_examples=30, deadline=None)
@given(**shapes)
def test_ldu_terms_are_bitwise_their_compositions(n, c, seed):
    rng = np.random.default_rng(seed)
    prototypes, probs, u = ldu_leaves(rng, n, c)
    labels = rng.integers(0, c, size=n)
    fused = ldu_aux_losses(prototypes, probs, u, labels)
    composed = ldu_composed(prototypes, probs, u, labels)
    leaves = [prototypes, probs, u]
    for i in range(3):
        assert_same_bits(lambda: fused[i], lambda: composed[i], leaves)
    # probs must stay on the simplex, so the entropy's central differences
    # are taken through a softmax.
    logits = parameter(rng.standard_normal((n, c)))
    for i, leaf in ((0, logits), (1, prototypes), (2, u)):
        assert_matches_finite_differences(
            lambda: ldu_aux_losses(prototypes, softmax(logits), u, labels)[i],
            [leaf],
        )


def test_ldu_terms_at_their_clamps_match_compositions():
    # A zero and a one probability (entropy floor), and uncertainties
    # outside [1e-7, 1 - 1e-7]: those entries pass no gradient.
    prototypes = parameter(np.zeros((1, 3)))
    probs = parameter([[1.0, 0.0], [0.25, 0.75], [0.5, 0.5]])
    u = parameter([0.0, 1.0, 0.3])
    labels = np.array([0, 0, 1])
    fused = ldu_aux_losses(prototypes, probs, u, labels)
    composed = ldu_composed(prototypes, probs, u, labels)
    assert_same_bits(lambda: fused[0], lambda: composed[0], [probs])
    _, g_u = assert_same_bits(lambda: fused[2], lambda: composed[2], [probs, u])
    assert g_u[0] == 0.0 and g_u[1] == 0.0
    assert fused[1].data == 0.0 and not fused[1].requires_grad
