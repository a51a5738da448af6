"""Engine-level tests: op gradients, tape mechanics, finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from caliblab.autodiff import (
    Tensor,
    constant,
    finite_diff_grad,
    gradients,
    parameter,
    softmax,
)

import mpmath


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def test_finite_diff_square_matches_derivative():
    x = parameter(3.0)
    (g,) = finite_diff_grad(lambda: float((x * x).data), [x])
    assert abs(g - 6.0) < 1e-7


def test_backward_requires_scalar():
    x = parameter([1.0, 2.0])
    y = x * 2.0
    with pytest.raises(ValueError):
        y.backward()


def test_loss_adjoint_is_one():
    x = parameter([1.0, 2.0])
    loss = (x * x).sum()
    loss.backward()
    assert loss.grad.shape == ()
    assert float(loss.grad) == 1.0


def test_unused_parameter_gets_zero_gradient():
    x = parameter([1.0, 2.0])
    unused = parameter([5.0])
    loss = (x * x).sum()
    gx, gu = gradients(loss, [x, unused])
    assert np.array_equal(gx, np.array([2.0, 4.0]))
    assert np.array_equal(gu, np.zeros(1))


def test_bias_broadcast_gradient_sums_over_batch():
    b = parameter(np.zeros(4))
    x = constant(np.ones((3, 4)))
    loss = (x + b).sum()
    (gb,) = gradients(loss, [b])
    assert np.array_equal(gb, np.full(4, 3.0))


def test_nonfinite_leaf_rejected():
    with pytest.raises(ValueError):
        Tensor([np.inf])
    with pytest.raises(ValueError):
        Tensor([np.nan])


def test_relu_subgradient_is_zero_at_zero():
    x = parameter([-1.0, 0.0, 2.0])
    (g,) = gradients(x.relu().sum(), [x])
    assert np.array_equal(g, np.array([0.0, 0.0, 1.0]))


def test_rowmax_routes_gradient_to_argmax():
    x = parameter([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]])
    (g,) = gradients(x.row_max().sum(), [x])
    expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(g, expected)


def test_repeated_backward_is_bitwise_deterministic():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 3))

    def run():
        p = parameter(w.copy())
        x = constant(rng2.standard_normal((5, 3)))
        loss = ((x @ p.T).relu().sigmoid() * 0.7).sum()
        (g,) = gradients(loss, [p])
        return g

    rng2 = np.random.default_rng(1)
    g1 = run()
    rng2 = np.random.default_rng(1)
    g2 = run()
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize(
    "build",
    [
        lambda p, x: (x @ p.T).sum(),
        lambda p, x: ((x @ p.T) ** 2).mean(),
        lambda p, x: (x @ p.T).relu().sum(),
        lambda p, x: (x @ p.T).sigmoid().mean(),
        lambda p, x: ((x @ p.T).abs() + 1.0).log().sum(),
        lambda p, x: ((x @ p.T) * (x @ p.T)).sum(axis=1).sqrt().mean(),
        lambda p, x: softmax(x @ p.T).clamp_min(1e-12).log().mean(),
        lambda p, x: ((x @ p.T) ** 2 + 1.2).digamma().sum(),
        lambda p, x: ((x @ p.T) ** 2 + 0.5).gammaln().mean(),
        lambda p, x: (x @ p.T).reshape((-1,)).sum(),
        lambda p, x: ((x @ p.T).T @ x).mean(),
    ],
)
def test_op_gradients_match_finite_differences(build):
    rng = np.random.default_rng(42)
    p = parameter(rng.standard_normal((4, 3)) + 0.3)
    x = constant(rng.standard_normal((5, 3)) + 0.1)
    loss = build(p, x)
    (bp,) = gradients(loss, [p])
    (fd,) = finite_diff_grad(lambda: float(build(p, x).data), [p])
    assert rel_err(bp, fd) < 1e-6


def test_division_and_subtraction_gradients():
    a = parameter([2.0, 3.0])
    b = parameter([4.0, 5.0])

    def build():
        return ((a - b) / (a * b + 1.0)).sum()

    loss = build()
    ga, gb = gradients(loss, [a, b])
    fga, fgb = finite_diff_grad(lambda: float(build().data), [a, b])
    assert rel_err(ga, fga) < 1e-8
    assert rel_err(gb, fgb) < 1e-8


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        (3, 4),
        elements=st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    )
)
def test_softmax_rows_live_on_simplex(logits):
    p = softmax(constant(logits))
    assert np.all(p.data >= 0.0)
    assert np.max(np.abs(p.data.sum(axis=1) - 1.0)) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((6, 4))
    shifted = logits + rng.standard_normal((6, 1)) * 10.0
    p1 = softmax(constant(logits)).data
    p2 = softmax(constant(shifted)).data
    assert np.max(np.abs(p1 - p2)) < 1e-12


def test_softmax_survives_extreme_logits():
    p = softmax(constant([[1000.0, 0.0, -1000.0]])).data
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) < 1e-12
    assert p[0, 0] > 0.999


def test_softmax_uniform_on_equal_logits():
    p = softmax(constant(np.zeros((2, 5)))).data
    assert np.max(np.abs(p - 0.2)) < 1e-15


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    logits = parameter(rng.standard_normal((4, 3)))
    target = constant(rng.random((4, 3)))

    def build():
        return (softmax(logits) * target).sum()

    (bp,) = gradients(build(), [logits])
    (fd,) = finite_diff_grad(lambda: float(build().data), [logits])
    assert rel_err(bp, fd) < 1e-7


def test_digamma_analytic_recurrences():
    x = constant([1.0, 10.0])
    psi = x.digamma().data
    x1 = constant([2.0, 11.0])
    psi1 = x1.digamma().data
    # digamma(x+1) - digamma(x) = 1/x, exactly 1 and 1/10 here
    assert abs((psi1[0] - psi[0]) - 1.0) < 1e-10
    assert abs((psi1[1] - psi[1]) - 0.1) < 1e-10


def test_digamma_and_gammaln_against_mpmath():
    mpmath.mp.dps = 30
    points = [0.5, 1.0, 1.7, 2.0, 5.3, 11.0, 40.0, 123.456]
    got_psi = constant(points).digamma().data
    got_lg = constant(points).gammaln().data
    for i, v in enumerate(points):
        assert abs(got_psi[i] - float(mpmath.digamma(v))) < 1e-10
        assert abs(got_lg[i] - float(mpmath.loggamma(v))) < 1e-10


def test_clamp_min_blocks_gradient_below_threshold():
    x = parameter([0.5, 2.0])
    (g,) = gradients(x.clamp_min(1.0).sum(), [x])
    assert np.array_equal(g, np.array([0.0, 1.0]))


def test_clamp_max_blocks_gradient_above_threshold():
    x = parameter([0.5, 2.0])
    (g,) = gradients(x.clamp_max(1.0).sum(), [x])
    assert np.array_equal(g, np.array([1.0, 0.0]))


def test_matmul_shape_mismatch_raises():
    a = constant(np.ones((2, 3)))
    b = constant(np.ones((4, 2)))
    with pytest.raises(ValueError):
        a @ b


# ------------------------------------------------- backward accumulation


def test_self_add_gradient_is_two():
    x = parameter([1.5, -2.0])
    (g,) = gradients((x + x).sum(), [x])
    assert np.array_equal(g, np.array([2.0, 2.0]))


def test_sibling_leaves_get_independent_gradient_arrays():
    a = parameter([1.0, 2.0])
    b = parameter([3.0, 4.0])
    ga, gb = gradients((a + b).sum(), [a, b])
    ga += 10.0
    assert np.array_equal(gb, np.array([1.0, 1.0]))
    assert a.grad is not b.grad


def test_node_with_three_consumers_sums_their_gradients():
    x = parameter([2.0, -3.0])
    h = x * 3.0
    loss = (h * h + h.exp() + 4.0 * h).sum()
    (g,) = gradients(loss, [x])
    # d/dh = 2h + e^h + 4, times dh/dx = 3
    hv = np.array([6.0, -9.0])
    assert np.allclose(g, 3.0 * (2.0 * hv + np.exp(hv) + 4.0), rtol=1e-15)


def test_nonfinite_python_float_constants_rejected():
    x = parameter([1.0])
    with pytest.raises(ValueError, match="finite"):
        x * float("nan")
    with pytest.raises(ValueError, match="finite"):
        x + float("inf")
