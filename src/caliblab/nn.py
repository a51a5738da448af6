"""Dense layers and first-order optimizers on top of the autodiff engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Array, Tensor, parameter

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
        out = x @ w.T + self.bias
        if self.activation == "relu":
            out = out.relu()
        return out

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


def _check_grads(params: Sequence[Tensor], grads: Sequence[Array]) -> None:
    if len(params) != len(grads):
        raise ValueError("one gradient per parameter is required")
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.data.shape:
            raise ValueError(f"gradient {i} shape {g.shape} != param {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {i}")


class Adam:
    """Adam with bias-corrected moment estimates."""

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
        self._m: list[Array] | None = None
        self._v: list[Array] | None = None

    def step(self, params: Sequence[Tensor], grads: Sequence[Array]) -> None:
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


class SGDMomentum:
    """Heavy-ball update: v <- momentum*v - lr*g; p <- p + v."""

    def __init__(self, lr: float, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self._v: list[Array] | None = None

    def step(self, params: Sequence[Tensor], grads: Sequence[Array]) -> None:
        _check_grads(params, grads)
        if self._v is None:
            self._v = [np.zeros_like(p.data) for p in params]
        for p, g, v in zip(params, grads, self._v):
            v *= self.momentum
            v -= self.lr * g
            p.data += v
