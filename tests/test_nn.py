"""Layer and optimizer tests with hand-computed update references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblab.autodiff import constant, gradients, parameter
from caliblab.nn import Adam, DenseLayer, SGDMomentum, init_dense

from oracles import LoopAdam, LoopSGDMomentum


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


OPTIMIZERS = [
    pytest.param(lambda: Adam(lr=0.1), id="adam"),
    pytest.param(lambda: SGDMomentum(lr=0.1, momentum=0.5), id="sgd"),
]
OPTIMIZER_PAIRS = [  # (flat-buffer optimizer, per-parameter loop oracle)
    pytest.param(lambda: Adam(lr=0.05), lambda: LoopAdam(lr=0.05), id="adam"),
    pytest.param(
        lambda: SGDMomentum(0.05, 0.9), lambda: LoopSGDMomentum(0.05, 0.9), id="sgd"
    ),
]


@pytest.mark.parametrize("make", OPTIMIZERS)
def test_optimizer_rejects_other_tensors_on_a_later_step(make):
    # same count and shapes: the moments of the first list must not be
    # reused for the second one by position
    opt = make()
    opt.step([parameter([1.0]), parameter([2.0])], [np.ones(1), np.ones(1)])
    with pytest.raises(ValueError, match="parameter 0 is not the tensor"):
        opt.step([parameter([1.0]), parameter([2.0])], [np.ones(1), np.ones(1)])


@pytest.mark.parametrize("make", OPTIMIZERS)
def test_optimizer_rejects_a_different_parameter_count(make):
    p, q = parameter([1.0]), parameter([2.0])
    opt = make()
    opt.step([p, q], [np.ones(1), np.ones(1)])
    with pytest.raises(ValueError, match="updates 2 parameters, got 1"):
        opt.step([p], [np.ones(1)])


@pytest.mark.parametrize("make", OPTIMIZERS)
def test_optimizer_rejects_a_repeated_tensor(make):
    p = parameter([1.0, 2.0])
    with pytest.raises(ValueError, match="distinct"):
        make().step([p, p], [np.ones(2), np.ones(2)])
    assert np.array_equal(p.data, [1.0, 2.0])


@pytest.mark.parametrize("make", OPTIMIZERS)
def test_optimizer_rejects_an_empty_parameter_list(make):
    with pytest.raises(ValueError, match="at least one parameter"):
        make().step([], [])


@pytest.mark.parametrize("make", OPTIMIZERS)
def test_optimizer_rejects_replaced_parameter_data(make):
    # the first step makes .data a view of the optimizer's buffer; an array
    # bound in its place would no longer be updated
    p, q = parameter([1.0]), parameter([2.0])
    opt = make()
    opt.step([p, q], [np.ones(1), np.ones(1)])
    q.data = np.array([5.0])
    with pytest.raises(ValueError, match="parameter 1's data was replaced"):
        opt.step([p, q], [np.ones(1), np.ones(1)])


@pytest.mark.parametrize("make, make_loop", OPTIMIZER_PAIRS)
def test_optimizer_packs_scalar_transposed_and_empty_parameters(make, make_loop):
    rng = np.random.default_rng(3)
    base = rng.standard_normal((3, 4))
    flat = [
        parameter(2.5),
        parameter(base.T),
        parameter(np.zeros(0)),
        parameter(rng.standard_normal(2)),
    ]
    loop = [
        parameter(2.5),
        parameter(base.T.copy()),
        parameter(np.zeros(0)),
        parameter(flat[3].data.copy()),
    ]
    assert not flat[1].data.flags.c_contiguous
    opt, ref = make(), make_loop()
    for _ in range(25):
        grads = [rng.standard_normal(p.data.shape) for p in flat]
        opt.step(flat, grads)
        ref.step(loop, grads)
    for p, q in zip(flat, loop):
        assert p.data.shape == q.data.shape
        assert np.array_equal(p.data, q.data)
    assert flat[0].data.shape == ()


@pytest.mark.parametrize("make, make_loop", OPTIMIZER_PAIRS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_gradient_names_its_parameter_and_updates_nothing(
    make, make_loop, bad
):
    params = [parameter([1.0, 2.0]), parameter([[3.0]]), parameter([4.0, 5.0, 6.0])]
    before = [p.data.copy() for p in params]
    grads = [np.ones(2), np.ones((1, 1)), np.array([0.5, bad, 0.5])]
    for opt in (make(), make_loop()):
        with pytest.raises(FloatingPointError, match="parameter 2$"):
            opt.step(params, grads)
        for p, b in zip(params, before):
            assert np.array_equal(p.data, b)


_SHAPES = st.sampled_from([(), (1,), (3,), (7,), (1, 1), (2, 3), (4, 2)])


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(_SHAPES, min_size=1, max_size=6),
    zero=st.lists(st.booleans(), min_size=6, max_size=6),
    n_steps=st.integers(20, 50),
    kind=st.sampled_from(["adam", "sgd"]),
    lr=st.floats(1e-4, 1.0),
    beta1=st.floats(0.0, 0.99),
    beta2=st.floats(0.5, 0.9999),
    eps=st.floats(1e-12, 1e-3),
    momentum=st.sampled_from([0.0, 0.5, 0.9, 0.99]),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_optimizers_match_the_per_parameter_loops_bit_for_bit(
    shapes, zero, n_steps, kind, lr, beta1, beta2, eps, momentum, seed
):
    rng = np.random.default_rng(seed)
    init = [rng.standard_normal(s) for s in shapes]
    scale = 10.0 ** rng.uniform(-3, 3, size=len(shapes))
    flat = [parameter(x.copy()) for x in init]
    loop = [parameter(x.copy()) for x in init]
    if kind == "adam":
        opt = Adam(lr=lr, beta1=beta1, beta2=beta2, epsilon=eps)
        ref = LoopAdam(lr=lr, beta1=beta1, beta2=beta2, epsilon=eps)
    else:
        opt = SGDMomentum(lr=lr, momentum=momentum)
        ref = LoopSGDMomentum(lr=lr, momentum=momentum)
    for _ in range(n_steps):
        grads = [
            np.zeros(s) if z else rng.standard_normal(s) * k
            for s, z, k in zip(shapes, zero, scale)
        ]
        opt.step(flat, grads)
        ref.step(loop, grads)
    for p, q in zip(flat, loop):
        assert p.data.shape == q.data.shape
        assert np.array_equal(p.data, q.data)
