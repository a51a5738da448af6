"""Loss-function tests: analytic values, oracle agreement, gradients."""

import numpy as np
import pytest

from caliblab.autodiff import (
    constant,
    finite_diff_grad,
    gradients,
    parameter,
    softmax,
)
from caliblab.config import LossWeights
from caliblab.losses import (
    avuc_loss,
    cross_entropy,
    dirichlet_kl_uniform,
    evidential_loss,
    ldu_aux_losses,
    mmce_loss,
    one_hot,
    total_loss,
)
from caliblab.uncertainty import dm_logits, evidence_head, head_output

from oracles import avuc_hard_counts, mmce_three_sums


def _max_rel_err(a, b, floor=1e-6):
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# -------------------------------------------------------------- cross-entropy


def test_cross_entropy_uniform_is_log_of_class_count():
    probs = constant(np.full((5, 4), 0.25))
    loss = cross_entropy(probs, np.array([0, 1, 2, 3, 0]))
    assert abs(float(loss.data) - np.log(4.0)) < 1e-15


def test_cross_entropy_perfect_prediction_is_exactly_zero():
    probs = constant([[1.0, 0.0], [0.0, 1.0]])
    loss = cross_entropy(probs, np.array([0, 1]))
    assert float(loss.data) == 0.0


def test_cross_entropy_floor_caps_worst_case():
    probs = constant([[1.0, 0.0]])
    loss = cross_entropy(probs, np.array([1]))
    assert abs(float(loss.data) - (-np.log(1e-12))) < 1e-12


def test_cross_entropy_rejects_non_simplex_rows():
    with pytest.raises(ValueError):
        cross_entropy(constant([[0.5, 0.4]]), np.array([0]))


def test_one_hot_rejects_out_of_range_labels():
    with pytest.raises(ValueError, match="out of range"):
        one_hot(np.array([0, 3]), 3)
    with pytest.raises(ValueError, match="out of range"):
        one_hot(np.array([-1]), 3)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    logits = parameter(rng.standard_normal((6, 3)))
    labels = rng.integers(0, 3, 6)

    def build():
        return cross_entropy(softmax(logits), labels)

    (bp,) = gradients(build(), [logits])
    (fd,) = finite_diff_grad(lambda: float(build().data), [logits])
    assert _max_rel_err(bp, fd) < 1e-7


# ----------------------------------------------------------------- evidential


def test_evidential_data_term_flat_dirichlet():
    # alpha = (1, 1), true class 0: psi(2) - psi(1) = 1
    out = evidence_head(constant([[0.0, 0.0]]))
    loss = evidential_loss(out, np.array([0]))
    assert abs(float(loss.data) - 1.0) < 1e-10


def test_evidential_data_term_confident_correct():
    # alpha = (10, 1), true class 0: psi(11) - psi(10) = 1/10
    out = evidence_head(constant([[9.0, 0.0]]))
    loss = evidential_loss(out, np.array([0]))
    assert abs(float(loss.data) - 0.1) < 1e-10


def test_kl_vanishes_for_flat_dirichlet():
    kl = dirichlet_kl_uniform(constant(np.ones((3, 4))))
    assert np.array_equal(kl.data, np.zeros(3))


def test_kl_positive_off_the_flat_point():
    kl = dirichlet_kl_uniform(constant([[2.0, 1.0], [5.0, 5.0], [1.0, 1.5]]))
    assert np.all(kl.data > 0.0)


def test_kl_rejects_non_positive_parameters():
    with pytest.raises(ValueError):
        dirichlet_kl_uniform(constant([[1.0, 0.0]]))


def test_kl_penalty_spares_true_class_evidence():
    # all evidence on the true class: alpha_tilde collapses to ones, KL = 0,
    # so the loss cannot depend on the KL weight
    out = evidence_head(constant([[9.0, 0.0]]))
    plain = evidential_loss(out, np.array([0]), kl_weight=0.0)
    heavy = evidential_loss(out, np.array([0]), kl_weight=100.0)
    assert float(plain.data) == float(heavy.data)


def test_kl_penalty_punishes_misleading_evidence():
    # evidence on the wrong class: loss strictly increases with the KL weight
    out = evidence_head(constant([[9.0, 0.0]]))
    values = [
        float(evidential_loss(out, np.array([1]), kl_weight=w).data)
        for w in [0.0, 1.0, 10.0]
    ]
    assert values[0] < values[1] < values[2]


def test_evidential_loss_rejects_negative_weight():
    out = evidence_head(constant([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        evidential_loss(out, np.array([0]), kl_weight=-1.0)


def test_evidential_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    logits = parameter(rng.standard_normal((5, 3)) + 1.0)
    labels = rng.integers(0, 3, 5)

    def build():
        return evidential_loss(evidence_head(logits), labels, kl_weight=2.0)

    (bp,) = gradients(build(), [logits])
    (fd,) = finite_diff_grad(lambda: float(build().data), [logits])
    assert _max_rel_err(bp, fd) < 1e-6


# ----------------------------------------------------------------------- avuc


def test_avuc_sharp_limit_matches_hard_counts():
    conf = np.array([0.9, 0.2, 0.95, 0.1])
    unc = np.array([0.1, 0.8, 0.05, 0.9])
    correct = np.array([1.0, 1.0, 0.0, 0.0])  # one sample per category
    hard = avuc_hard_counts(conf, unc, correct, 0.5, 0.5)
    assert abs(hard - np.log(2.0)) < 1e-8
    soft = avuc_loss(
        constant(conf), constant(unc), correct, sharpness=1e-3
    )
    assert abs(float(soft.data) - hard) < 1e-12


def test_avuc_sharpness_sequence_converges_to_hard_loss():
    rng = np.random.default_rng(2)
    conf = rng.uniform(0.05, 0.95, 16)
    unc = rng.uniform(0.05, 0.95, 16)
    correct = (rng.random(16) < 0.5).astype(float)
    hard = avuc_hard_counts(conf, unc, correct, 0.5, 0.5)
    errs = []
    for tau in [0.1, 0.01, 1e-3, 1e-4]:
        soft = float(
            avuc_loss(constant(conf), constant(unc), correct, sharpness=tau).data
        )
        errs.append(abs(soft - hard))
    assert errs[-1] < 1e-6
    assert errs[0] > errs[-1]


def test_avuc_zero_when_all_accurate_and_certain():
    conf = constant([0.9, 0.95, 0.99])
    unc = constant([0.1, 0.05, 0.01])
    loss = avuc_loss(conf, unc, np.ones(3), sharpness=1e-3)
    assert float(loss.data) == 0.0


def test_avuc_penalizes_misaligned_mass():
    # accurate but very uncertain: loss should be clearly positive
    conf = constant([0.2, 0.3])
    unc = constant([0.9, 0.8])
    loss = avuc_loss(conf, unc, np.ones(2), sharpness=1e-3)
    assert float(loss.data) > np.log(1.9)


def test_avuc_threshold_validation():
    conf = constant([0.5])
    unc = constant([0.5])
    with pytest.raises(ValueError):
        avuc_loss(conf, unc, np.ones(1), conf_threshold=0.0)
    with pytest.raises(ValueError):
        avuc_loss(conf, unc, np.ones(1), unc_threshold=1.0)
    with pytest.raises(ValueError):
        avuc_loss(conf, unc, np.ones(1), sharpness=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_avuc_rejects_non_finite_sharpness(bad):
    conf = constant([0.8, 0.3])
    unc = constant([0.2, 0.6])
    with pytest.raises(ValueError, match="sharpness"):
        avuc_loss(conf, unc, np.array([1.0, 0.0]), sharpness=bad)


def test_avuc_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    logits = parameter(rng.standard_normal((8, 3)) * 2.0)
    labels = rng.integers(0, 3, 8)

    def build():
        out = head_output("softmax", logits)
        correct = (np.argmax(out.probs.data, axis=1) == labels).astype(float)
        return avuc_loss(out.confidence, out.uncertainty, correct, sharpness=0.1)

    (bp,) = gradients(build(), [logits])
    (fd,) = finite_diff_grad(lambda: float(build().data), [logits])
    assert _max_rel_err(bp, fd) < 1e-5


# ----------------------------------------------------------------------- mmce


def test_mmce_matches_three_sum_oracle_on_random_batches():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 33))
        conf = rng.uniform(0.0, 1.0, n)
        correct = rng.random(n) < rng.uniform(0.1, 0.9)
        ours = float(mmce_loss(constant(conf), correct).data)
        ref = mmce_three_sums(conf, correct, width=0.4)
        assert abs(ours - ref) <= 1e-12


def test_mmce_exact_zero_when_confidence_equals_correctness():
    conf = constant([1.0, 1.0, 0.0, 0.0])
    correct = np.array([True, True, False, False])
    assert float(mmce_loss(conf, correct).data) == 0.0


def test_mmce_single_sample_hand_values():
    # one correct sample, confidence 0.7: sqrt((1-0.7)^2 k(0,0)) = 0.3
    assert abs(float(mmce_loss(constant([0.7]), [True]).data) - 0.3) < 1e-15
    # one incorrect sample, confidence 0.7: sqrt(0.7^2) = 0.7
    assert abs(float(mmce_loss(constant([0.7]), [False]).data) - 0.7) < 1e-15


def test_mmce_handles_single_sided_batches():
    rng = np.random.default_rng(5)
    conf = rng.uniform(0.2, 0.9, 6)
    all_correct = float(mmce_loss(constant(conf), np.ones(6, bool)).data)
    none_correct = float(mmce_loss(constant(conf), np.zeros(6, bool)).data)
    assert abs(all_correct - mmce_three_sums(conf, np.ones(6, bool))) <= 1e-12
    assert abs(none_correct - mmce_three_sums(conf, np.zeros(6, bool))) <= 1e-12


def test_mmce_kernel_width_matters():
    conf = constant([0.9, 0.4, 0.6])
    correct = np.array([True, False, True])
    narrow = float(mmce_loss(conf, correct, kernel_width=0.1).data)
    wide = float(mmce_loss(conf, correct, kernel_width=2.0).data)
    assert narrow != wide
    with pytest.raises(ValueError):
        mmce_loss(conf, correct, kernel_width=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_mmce_rejects_non_finite_kernel_width(bad):
    conf = constant([0.9, 0.4, 0.6])
    correct = np.array([True, False, True])
    with pytest.raises(ValueError, match="kernel_width"):
        mmce_loss(conf, correct, kernel_width=bad)


def test_mmce_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    logits = parameter(rng.standard_normal((10, 3)) * 1.5)
    labels = rng.integers(0, 3, 10)

    def build():
        probs = softmax(logits)
        conf = probs.row_max()
        correct = np.argmax(probs.data, axis=1) == labels
        return mmce_loss(conf, correct)

    (bp,) = gradients(build(), [logits])
    (fd,) = finite_diff_grad(lambda: float(build().data), [logits])
    assert _max_rel_err(bp, fd) < 1e-5


# ------------------------------------------------------------------ ldu terms


def test_dispersion_is_one_for_identical_prototypes():
    protos = constant([[1.0, 2.0], [1.0, 2.0]])
    probs = constant([[0.5, 0.5]])
    unc = constant([0.5])
    _, dispersion, _ = ldu_aux_losses(protos, probs, unc, np.array([0]))
    assert float(dispersion.data) == 1.0


def test_dispersion_zero_with_single_prototype():
    protos = constant([[3.0]])
    probs = constant([[1.0]])
    unc = constant([0.5])
    _, dispersion, _ = ldu_aux_losses(protos, probs, unc, np.array([0]))
    assert float(dispersion.data) == 0.0


def test_dispersion_decays_with_prototype_separation():
    probs = constant([[0.5, 0.5]])
    unc = constant([0.5])
    values = []
    for gap in [0.5, 1.0, 3.0]:
        protos = constant([[0.0, 0.0], [gap, 0.0]])
        _, disp, _ = ldu_aux_losses(protos, probs, unc, np.array([0]))
        values.append(float(disp.data))
    assert values[0] > values[1] > values[2]
    assert abs(values[1] - np.exp(-1.0)) < 1e-12


def test_entropy_of_uniform_rows_is_log_class_count():
    probs = constant(np.full((3, 4), 0.25))
    protos = constant(np.zeros((4, 2)))
    unc = constant(np.full(3, 0.5))
    entropy, _, _ = ldu_aux_losses(protos, probs, unc, np.zeros(3, int))
    assert abs(float(entropy.data) - np.log(4.0)) < 1e-12


def test_entropy_of_deterministic_rows_is_zero():
    probs = constant([[1.0, 0.0]])
    protos = constant([[0.0], [1.0]])
    unc = constant([0.5])
    entropy, _, _ = ldu_aux_losses(protos, probs, unc, np.array([0]))
    assert float(entropy.data) == 0.0


def test_uncertainty_bce_rewards_calibrated_error_prediction():
    protos = constant([[0.0], [1.0]])
    probs = constant([[0.9, 0.1]])
    # correct prediction, tiny predicted uncertainty: near-zero penalty
    _, _, good = ldu_aux_losses(protos, probs, constant([0.0]), np.array([0]))
    assert float(good.data) < 1e-6
    # correct prediction but confident-in-error signal: large penalty
    _, _, bad = ldu_aux_losses(protos, probs, constant([1.0]), np.array([0]))
    assert float(bad.data) > 16.0


def test_ldu_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    latent_w = parameter(rng.standard_normal((2, 2)))
    protos = parameter(rng.standard_normal((3, 2)) * 2.0)
    x = constant(rng.standard_normal((5, 2)))
    labels = rng.integers(0, 3, 5)

    def build():
        latent = x @ latent_w.T
        logits = dm_logits(latent, protos)
        probs = softmax(logits)
        unc = 1.0 - probs.row_max()
        entropy, dispersion, bce = ldu_aux_losses(protos, probs, unc, labels)
        return entropy + 2.0 * dispersion + 0.5 * bce

    grads = gradients(build(), [latent_w, protos])
    fds = finite_diff_grad(lambda: float(build().data), [latent_w, protos])
    for bp, fd in zip(grads, fds):
        assert _max_rel_err(bp, fd) < 1e-5


# ----------------------------------------------------------------- total_loss


def test_total_loss_all_zero_weights_is_bitwise_cross_entropy():
    rng = np.random.default_rng(8)
    logits = constant(rng.standard_normal((7, 3)))
    labels = rng.integers(0, 3, 7)
    output = head_output("softmax", logits)
    total = total_loss(output, labels, LossWeights())
    plain = cross_entropy(output.probs, labels)
    assert float(total.data) == float(plain.data)


def test_total_loss_ignores_weights_foreign_to_the_head():
    rng = np.random.default_rng(9)
    logits = constant(rng.standard_normal((4, 2)))
    labels = rng.integers(0, 2, 4)
    output = head_output("softmax", logits)
    weights = LossWeights(dm_entropy=3.0, proto_dispersion=1.0, uncertainty_bce=2.0)
    total = total_loss(output, labels, weights)
    plain = cross_entropy(output.probs, labels)
    assert float(total.data) == float(plain.data)


def test_total_loss_adds_weighted_terms():
    rng = np.random.default_rng(10)
    logits = constant(rng.standard_normal((9, 3)) * 2.0)
    labels = rng.integers(0, 3, 9)
    output = head_output("softmax", logits)
    weights = LossWeights(avuc=0.6, mmce=1.5)
    total = float(total_loss(output, labels, weights).data)
    correct = output.predictions == labels
    expect = float(cross_entropy(output.probs, labels).data)
    expect += 0.6 * float(
        avuc_loss(output.confidence, output.uncertainty, correct).data
    )
    expect += 1.5 * float(mmce_loss(output.confidence, correct).data)
    assert abs(total - expect) < 1e-12


def test_total_loss_enn_head_uses_evidential_objective():
    rng = np.random.default_rng(11)
    logits = constant(rng.standard_normal((6, 3)) + 0.5)
    labels = rng.integers(0, 3, 6)
    output = head_output("enn", logits)
    weights = LossWeights(evidential_kl=2.0)
    total = total_loss(output, labels, weights)
    plain = evidential_loss(output.dirichlet, labels, kl_weight=2.0)
    assert float(total.data) == float(plain.data)


def test_total_loss_dm_head_composes_aux_terms():
    rng = np.random.default_rng(12)
    latent = constant(rng.standard_normal((5, 2)))
    protos = constant(rng.standard_normal((3, 2)))
    labels = rng.integers(0, 3, 5)
    output = head_output("dm", latent, protos)
    probs = output.probs
    weights = LossWeights(dm_entropy=0.9, proto_dispersion=2.0, uncertainty_bce=4.0)
    total = float(total_loss(output, labels, weights).data)
    entropy, dispersion, bce = ldu_aux_losses(protos, probs, output.uncertainty, labels)
    expect = (
        float(cross_entropy(probs, labels).data)
        + 0.9 * float(entropy.data)
        + 2.0 * float(dispersion.data)
        + 4.0 * float(bce.data)
    )
    assert abs(total - expect) < 1e-12
