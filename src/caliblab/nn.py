"""Dense layers and first-order optimizers on top of the autodiff engine.

An optimizer's first `step` packs the parameters it is given into one
contiguous float64 buffer and rebinds each `Tensor.data` to a reshaped view
of its slice; the optimizer is then bound to those tensors. Its moments,
gradient buffer and scratch are flat arrays of the same length. Each step
checks the gradients, copies them into the flat gradient buffer, checks
their finiteness once and updates every parameter with a few whole-buffer
ufuncs. Every update op is elementwise and keeps the per-parameter
evaluation order, so training bits are the same as a loop over the
parameters.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Array, Tensor, bias_relu, parameter

_ACTIVATIONS = ("relu", "identity")


@dataclass
class DenseLayer:
    """Affine map with an optional relu, weight stored as (out, in)."""

    weight: Tensor
    bias: Tensor
    activation: str = "identity"

    def __post_init__(self) -> None:
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    def __call__(self, x: Tensor, weight: Tensor | None = None) -> Tensor:
        """Apply the layer; `weight` substitutes a transformed weight tensor."""
        w = self.weight if weight is None else weight
        out = x @ w.T
        if self.activation == "relu":
            return bias_relu(out, self.bias)
        return out + self.bias

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


def init_dense(
    n_in: int, n_out: int, rng: np.random.Generator, activation: str = "identity"
) -> DenseLayer:
    """He-style initialization for relu layers, Xavier-style otherwise."""
    gain = 2.0 if activation == "relu" else 1.0
    scale = np.sqrt(gain / n_in)
    weight = parameter(rng.standard_normal((n_out, n_in)) * scale)
    bias = parameter(np.zeros(n_out))
    return DenseLayer(weight=weight, bias=bias, activation=activation)


def _mapped_zeros(rows: int, n: int) -> Array:
    """A zeroed (rows, n) float64 array in its own anonymous memory map.

    The optimizers' buffers are made in the middle of training, and the
    parameter buffer lives on with the model. As heap arrays they split the
    free space that the next forward pass's large activations reuse, which
    raised the peak RSS of the 30-fit criterion-7 sweep by 0.5-1.6 MB; a map
    stays out of the heap and is unmapped when its array is freed.
    """
    pages = mmap.mmap(-1, 8 * max(rows * n, 1))
    return np.frombuffer(pages, np.float64, count=rows * n).reshape(rows, n)


def _pack(
    params: Sequence[Tensor],
) -> tuple[tuple[Tensor, ...], tuple[Array, ...], Array]:
    """Move `params` into one flat float64 buffer: (params, views, buffer).

    Each `Tensor.data` is rebound to a reshaped view of its slice, so the
    values, shapes and dtype read the same while an update of the buffer
    updates every parameter at once.
    """
    if not params:
        raise ValueError("an optimizer needs at least one parameter")
    if len({id(p) for p in params}) != len(params):
        raise ValueError("an optimizer's parameters must be distinct tensors")
    flat = _mapped_zeros(1, sum(p.data.size for p in params))[0]
    np.concatenate([p.data.ravel() for p in params], out=flat)
    start = 0
    for p in params:
        stop = start + p.data.size
        p.data = flat[start:stop].reshape(p.data.shape)
        start = stop
    return tuple(params), tuple(p.data for p in params), flat


def _gather(
    bound: tuple[Tensor, ...],
    views: tuple[Array, ...],
    params: Sequence[Tensor],
    grads: Sequence[Array],
    out: Array,
    finite: Array,
) -> None:
    """Check `params` against the packed ones and copy `grads` into `out`."""
    if len(params) != len(grads):
        raise ValueError("one gradient per parameter is required")
    if len(params) != len(bound):
        raise ValueError(
            f"this optimizer updates {len(bound)} parameters, got {len(params)}"
        )
    for i, (p, q, d, g) in enumerate(zip(params, bound, views, grads)):
        if p is not q:
            raise ValueError(f"parameter {i} is not the tensor this optimizer packed")
        if p.data is not d:
            raise ValueError(f"parameter {i}'s data was replaced after packing")
        if g.shape != d.shape:
            raise ValueError(f"gradient {i} shape {g.shape} != param {d.shape}")
    np.concatenate([g.ravel() for g in grads], out=out)
    if not np.isfinite(out, out=finite).all():
        for i, g in enumerate(grads):
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for parameter {i}")


class Adam:
    """Adam with bias-corrected moment estimates.

    The first `step` packs the parameters it is given into one flat buffer
    (their `Tensor.data` become views of it) and binds the optimizer to
    them: a later step with other tensors raises ValueError. Every step is a
    few whole-buffer ufuncs into preallocated arrays.
    """

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
        self._params: tuple[Tensor, ...] | None = None

    def step(self, params: Sequence[Tensor], grads: Sequence[Array]) -> None:
        if self._params is None:
            self._params, self._views, self._flat = _pack(params)
            n = self._flat.size
            self._g, self._m, self._v, self._s, self._u = _mapped_zeros(5, n)
            self._finite = np.empty(self._flat.shape, dtype=bool)
        g, m, v, s, u = self._g, self._m, self._v, self._s, self._u
        _gather(self._params, self._views, params, grads, g, self._finite)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        # m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        # p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps), grouped exactly so.
        m *= b1
        np.multiply(1.0 - b1, g, out=s)
        m += s
        v *= b2
        np.multiply(1.0 - b2, g, out=s)
        s *= g
        v += s
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += self.epsilon
        np.divide(m, bc1, out=u)
        u *= self.lr
        u /= s
        self._flat -= u


class SGDMomentum:
    """Heavy-ball update: v <- momentum*v - lr*g; p <- p + v.

    Like `Adam`, the first `step` packs the parameters into one flat buffer
    whose views become their `Tensor.data`, and binds the optimizer to them.
    """

    def __init__(self, lr: float, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self._params: tuple[Tensor, ...] | None = None

    def step(self, params: Sequence[Tensor], grads: Sequence[Array]) -> None:
        if self._params is None:
            self._params, self._views, self._flat = _pack(params)
            self._g, self._v, self._s = _mapped_zeros(3, self._flat.size)
            self._finite = np.empty(self._flat.shape, dtype=bool)
        g, v, s = self._g, self._v, self._s
        _gather(self._params, self._views, params, grads, g, self._finite)
        v *= self.momentum
        np.multiply(self.lr, g, out=s)
        v -= s
        self._flat += v
