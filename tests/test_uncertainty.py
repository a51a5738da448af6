"""Tests for the evidential, spectral-norm, and prototype heads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from caliblab.autodiff import constant, finite_diff_grad, gradients, parameter, softmax
from caliblab.uncertainty import (
    SpectralNorm,
    dm_logits,
    evidence_head,
    head_output,
    init_prototypes,
)

from oracles import top_singular_value


# ---------------------------------------------------------------- evidential


def test_zero_evidence_is_maximally_uncertain():
    out = evidence_head(constant(np.zeros((3, 4))))
    assert np.array_equal(out.alpha.data, np.ones((3, 4)))
    assert np.array_equal(out.prob.data, np.full((3, 4), 0.25))
    assert np.array_equal(out.uncertainty.data, np.ones(3))
    assert np.array_equal((out.evidence / out.strength).data, np.zeros((3, 4)))


def test_evidence_head_worked_example():
    # logits (9, 0) -> evidence (9, 0) -> alpha (10, 1), strength 11
    out = evidence_head(constant([[9.0, 0.0]]))
    assert np.array_equal(out.alpha.data, np.array([[10.0, 1.0]]))
    assert abs(out.uncertainty.data[0] - 2.0 / 11.0) < 1e-15
    assert np.max(np.abs(out.prob.data - [10.0 / 11.0, 1.0 / 11.0])) < 1e-15


def test_negative_logits_contribute_no_evidence():
    out = evidence_head(constant([[-5.0, -1.0]]))
    assert np.array_equal(out.evidence.data, np.zeros((1, 2)))
    assert out.uncertainty.data[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        (4, 3),
        elements=st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False),
    )
)
def test_evidence_head_invariants(logits):
    out = evidence_head(constant(logits))
    prob = out.prob.data
    u = out.uncertainty.data
    assert np.max(np.abs(prob.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(prob > 0.0)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    # belief mass plus uncertainty mass is exactly one
    belief = (out.evidence / out.strength).data
    assert np.max(np.abs(belief.sum(axis=1) + u - 1.0)) < 1e-12


def test_uncertainty_strictly_decreases_with_added_evidence():
    values = []
    for scale in [0.0, 1.0, 4.0, 20.0]:
        out = evidence_head(constant([[scale, scale / 2.0]]))
        values.append(float(out.uncertainty.data[0]))
    assert values[0] == 1.0
    assert all(a > b for a, b in zip(values, values[1:]))


def test_evidence_head_rejects_1d_input():
    with pytest.raises(ValueError):
        evidence_head(constant([1.0, 2.0]))


# ------------------------------------------------------------- spectral norm


def test_normalized_weight_meets_bound_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n_out = int(rng.integers(1, 17))
        n_in = int(rng.integers(1, 17))
        coeff = float(rng.uniform(0.3, 3.0))
        w = parameter(rng.standard_normal((n_out, n_in)) * rng.uniform(0.1, 4.0))
        state = SpectralNorm(coeff, (n_out, n_in), rng)
        state.refresh(w.data)
        out = state.normalized(w)
        assert top_singular_value(out.data) <= coeff * 1.001


def test_compliant_weight_passes_through_bitwise():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((5, 4))
    w = w / (top_singular_value(w) * 4.0)  # sigma = 0.25
    state = SpectralNorm(1.0, (5, 4), rng)
    state.refresh(w)
    out = state.normalized(parameter(w))
    assert np.array_equal(out.data, w)


def test_zero_matrix_passes_through():
    rng = np.random.default_rng(2)
    state = SpectralNorm(0.5, (3, 3), rng)
    w = np.zeros((3, 3))
    state.refresh(w)
    out = state.normalized(parameter(w))
    assert np.array_equal(out.data, np.zeros((3, 3)))


def test_sigma_estimate_matches_svd_after_first_refresh():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.standard_normal((6, 5)) * rng.uniform(0.2, 5.0)
        state = SpectralNorm(1.0, (6, 5), rng)
        sigma = state.refresh(w)
        truth = top_singular_value(w)
        assert abs(sigma - truth) <= 1e-6 * max(truth, 1.0)


def test_first_refresh_converges_on_near_tied_spectrum():
    rng = np.random.default_rng(4)
    # two nearly equal leading singular values slow plain power iteration down
    q1, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    w = q1 @ np.diag([2.0, 2.0 - 1e-7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01]) @ q2
    state = SpectralNorm(1.0, (8, 8), rng)
    sigma = state.refresh(w)
    assert abs(sigma - 2.0) < 1e-4
    out = state.normalized(parameter(w))
    assert top_singular_value(out.data) <= 1.001


def test_singular_vectors_stay_unit_norm():
    rng = np.random.default_rng(5)
    state = SpectralNorm(1.0, (4, 7), rng)
    assert abs(np.linalg.norm(state.u) - 1.0) < 1e-12
    assert abs(np.linalg.norm(state.v) - 1.0) < 1e-12
    state.refresh(rng.standard_normal((4, 7)))
    assert abs(np.linalg.norm(state.u) - 1.0) < 1e-12
    assert abs(np.linalg.norm(state.v) - 1.0) < 1e-12


def test_normalization_is_differentiable_through_the_weight():
    rng = np.random.default_rng(6)
    w = parameter(rng.standard_normal((4, 4)) * 3.0)  # sigma well above coeff
    state = SpectralNorm(1.0, (4, 4), rng)
    state.refresh(w.data)
    target = constant(rng.standard_normal((4, 4)))

    def build():
        return (state.normalized(w) * target).sum()

    (bp,) = gradients(build(), [w])
    (fd,) = finite_diff_grad(lambda: float(build().data), [w])
    denom = np.maximum(np.maximum(np.abs(bp), np.abs(fd)), 1e-6)
    assert np.max(np.abs(bp - fd) / denom) < 1e-5


def test_invalid_spectral_norm_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        SpectralNorm(0.0, (2, 2), rng)
    with pytest.raises(ValueError):
        SpectralNorm(1.0, (2, 2), rng, power_iters=0)


# ------------------------------------------------------------ prototype head


def test_dm_logits_zero_on_prototype_and_negative_elsewhere():
    protos = constant([[3.0, 4.0], [0.0, 0.0]])
    latent = constant([[0.0, 0.0]])
    logits = dm_logits(latent, protos).data
    assert logits.shape == (1, 2)
    assert abs(logits[0, 0] + 5.0) < 1e-12  # distance 5 from (3, 4)
    assert logits[0, 1] == 0.0
    assert np.all(logits <= 0.0)


def test_dm_logits_shape_and_symmetry():
    rng = np.random.default_rng(7)
    latent = rng.standard_normal((6, 3))
    protos = rng.standard_normal((4, 3))
    logits = dm_logits(constant(latent), constant(protos)).data
    assert logits.shape == (6, 4)
    for i in range(6):
        for k in range(4):
            expect = -np.linalg.norm(latent[i] - protos[k])
            assert abs(logits[i, k] - expect) < 1e-12


def test_dm_logits_width_mismatch_raises():
    with pytest.raises(ValueError, match="width"):
        dm_logits(constant(np.ones((2, 3))), constant(np.ones((4, 2))))


def test_dm_head_without_prototypes_names_the_problem():
    with pytest.raises(ValueError, match="dm head needs prototypes"):
        head_output("dm", constant(np.ones((2, 3))))


def test_dm_logits_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    latent = parameter(rng.standard_normal((3, 2)))
    protos = parameter(rng.standard_normal((2, 2)) + 2.0)

    def build():
        return (dm_logits(latent, protos) * 0.7).sum()

    grads = gradients(build(), [latent, protos])
    fds = finite_diff_grad(lambda: float(build().data), [latent, protos])
    for bp, fd in zip(grads, fds):
        denom = np.maximum(np.maximum(np.abs(bp), np.abs(fd)), 1e-6)
        assert np.max(np.abs(bp - fd) / denom) < 1e-6


def test_init_prototypes_shape_and_determinism():
    a = init_prototypes(3, 5, np.random.default_rng(9))
    b = init_prototypes(3, 5, np.random.default_rng(9))
    assert a.shape == (3, 5)
    assert np.array_equal(a, b)


# --------------------------------------------------------------- head_output


def test_head_output_softmax_is_top_prob_and_complement():
    logits = constant(np.log([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]]))
    out = head_output("softmax", logits)
    expect = softmax(logits).row_max().data
    assert np.array_equal(out.confidence.data, expect)
    assert np.array_equal(out.uncertainty.data, 1.0 - expect)
    assert np.array_equal(out.confidence.data, np.array([0.6, 0.6]))
    assert np.max(np.abs(out.uncertainty.data - 0.4)) < 1e-15


def test_head_output_enn_uses_dirichlet_mass():
    out = head_output("enn", constant([[9.0, 0.0]]))
    assert abs(out.confidence.data[0] - 10.0 / 11.0) < 1e-15
    assert abs(out.uncertainty.data[0] - 2.0 / 11.0) < 1e-15
    assert np.array_equal(out.uncertainty.data, out.dirichlet.uncertainty.data)


def test_head_output_enn_zero_evidence_tie_predicts_class_0():
    # zero evidence gives exactly uniform [0.5, 0.5] rows; argmax ties go to
    # the lowest class index
    out = head_output("enn", constant(np.zeros((5, 2))))
    assert np.array_equal(out.probs.data, np.full((5, 2), 0.5))
    assert np.array_equal(out.predictions, np.zeros(5, dtype=int))


def test_head_output_dm_scores_softmax_of_distances():
    # the latent sits on prototype 0 and at distance 5 from prototype 1
    latent = constant([[0.0, 0.0]])
    protos = constant([[0.0, 0.0], [3.0, 4.0]])
    out = head_output("dm", latent, protos)
    assert np.array_equal(out.logits.data, np.array([[0.0, -5.0]]))
    expect = 1.0 / (1.0 + np.exp(-5.0))
    assert abs(out.confidence.data[0] - expect) < 1e-12
    assert abs(out.uncertainty.data[0] - (1.0 - expect)) < 1e-12
    assert out.prototypes is protos


def test_head_output_unknown_head_raises():
    with pytest.raises(ValueError):
        head_output("mystery", constant([[1.0]]))


def test_head_output_confidence_bounds():
    rng = np.random.default_rng(10)
    logits = constant(rng.standard_normal((20, 4)))
    out = head_output("softmax", logits)
    assert np.array_equal(out.confidence.data, softmax(logits).row_max().data)
    assert np.all(out.confidence.data >= 0.25 - 1e-12)
    assert np.all(out.confidence.data <= 1.0)
    assert np.max(np.abs(out.confidence.data + out.uncertainty.data - 1.0)) < 1e-12
