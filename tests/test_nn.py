"""Layer and optimizer tests with hand-computed update references."""

import numpy as np
import pytest

from caliblab.autodiff import constant, gradients, parameter
from caliblab.nn import Adam, DenseLayer, SGDMomentum, init_dense


def test_dense_layer_applies_affine_then_relu():
    layer = DenseLayer(
        weight=parameter([[1.0, -1.0], [0.5, 0.5]]),
        bias=parameter([0.0, -10.0]),
        activation="relu",
    )
    out = layer(constant([[2.0, 1.0]]))
    # pre-activation: [1.0, 1.5 - 10] -> relu -> [1.0, 0.0]
    assert np.array_equal(out.data, np.array([[1.0, 0.0]]))


def test_identity_layer_keeps_negative_outputs():
    layer = DenseLayer(
        weight=parameter([[1.0]]),
        bias=parameter([-5.0]),
        activation="identity",
    )
    out = layer(constant([[1.0]]))
    assert np.array_equal(out.data, np.array([[-4.0]]))


def test_init_dense_is_seed_deterministic():
    a = init_dense(3, 4, np.random.default_rng(11), "relu")
    b = init_dense(3, 4, np.random.default_rng(11), "relu")
    assert np.array_equal(a.weight.data, b.weight.data)
    assert np.array_equal(a.bias.data, b.bias.data)
    assert a.weight.data.shape == (4, 3)
    assert np.array_equal(a.bias.data, np.zeros(4))


def test_layer_stack_width_mismatch_raises():
    layers = [
        init_dense(2, 3, np.random.default_rng(0), "relu"),
        init_dense(5, 2, np.random.default_rng(1), "identity"),
    ]
    x = constant(np.ones((4, 2)))
    with pytest.raises(ValueError, match="matmul shape mismatch"):
        for layer in layers:
            x = layer(x)


def test_adam_first_step_magnitude_is_learning_rate():
    # With bias correction, a first step on any sizeable gradient moves each
    # coordinate by almost exactly lr, opposite the gradient sign.
    p = parameter([1.0, -2.0])
    g = np.array([0.3, -50.0])
    opt = Adam(lr=0.01)
    opt.step([p], [g])
    moved = p.data - np.array([1.0, -2.0])
    assert np.all(np.abs(np.abs(moved) - 0.01) < 1e-6)
    assert np.all(np.sign(moved) == -np.sign(g))


def test_adam_zero_gradient_is_noop():
    p = parameter([1.0, 2.0])
    opt = Adam(lr=0.5)
    opt.step([p], [np.zeros(2)])
    assert np.array_equal(p.data, np.array([1.0, 2.0]))


def test_adam_two_steps_match_reference_formula():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = parameter([0.7])
    opt = Adam(lr=lr, beta1=b1, beta2=b2, epsilon=eps)
    grads = [np.array([0.4]), np.array([-0.2])]

    ref = np.array([0.7])
    m = np.zeros(1)
    v = np.zeros(1)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)

    for g in grads:
        opt.step([p], [g])
    assert np.max(np.abs(p.data - ref)) < 1e-15


def test_sgd_momentum_two_steps_match_reference_formula():
    lr, mom = 0.1, 0.8
    p = parameter([1.0])
    opt = SGDMomentum(lr=lr, momentum=mom)
    grads = [np.array([0.5]), np.array([-1.0])]

    ref = np.array([1.0])
    vel = np.zeros(1)
    for g in grads:
        vel = mom * vel - lr * g
        ref = ref + vel

    for g in grads:
        opt.step([p], [g])
    assert np.max(np.abs(p.data - ref)) < 1e-15


def test_sgd_zero_momentum_equals_plain_gradient_descent():
    p = parameter([2.0, -1.0])
    opt = SGDMomentum(lr=0.25, momentum=0.0)
    g = np.array([4.0, -8.0])
    opt.step([p], [g])
    assert np.array_equal(p.data, np.array([2.0, -1.0]) - 0.25 * g)


def test_invalid_momentum_rejected():
    with pytest.raises(ValueError):
        SGDMomentum(lr=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        SGDMomentum(lr=0.1, momentum=-0.1)


def test_nonfinite_gradient_raises_floating_point_error():
    p = parameter([1.0])
    opt = Adam(lr=0.1)
    with pytest.raises(FloatingPointError, match="parameter 0"):
        opt.step([p], [np.array([np.nan])])


def test_gradient_shape_mismatch_rejected():
    p = parameter([1.0, 2.0])
    opt = Adam(lr=0.1)
    with pytest.raises(ValueError):
        opt.step([p], [np.zeros(3)])


def test_optimizers_keep_independent_state_per_parameter():
    p1 = parameter([0.0])
    p2 = parameter([0.0])
    opt = Adam(lr=0.1)
    opt.step([p1, p2], [np.array([1.0]), np.array([-1.0])])
    opt.step([p1, p2], [np.array([1.0]), np.array([-1.0])])
    assert p1.data[0] < 0 < p2.data[0]
    assert abs(p1.data[0] + p2.data[0]) < 1e-15


def test_training_a_dense_stack_reduces_loss():
    rng = np.random.default_rng(5)
    layers = [init_dense(2, 8, rng, "relu"), init_dense(8, 1, rng, "identity")]
    params = [t for layer in layers for t in layer.parameters()]
    x = constant(rng.standard_normal((32, 2)))
    target = constant((x.data[:, :1] * 2.0 - 1.0))
    opt = Adam(lr=0.05)

    def loss_tensor():
        out = x
        for layer in layers:
            out = layer(out)
        return ((out - target) ** 2).mean()

    first = float(loss_tensor().data)
    for _ in range(60):
        loss = loss_tensor()
        opt.step(params, gradients(loss, params))
    assert float(loss_tensor().data) < 0.2 * first
