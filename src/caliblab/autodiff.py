"""Reverse-mode automatic differentiation on dense float64 arrays.

The engine is a small tape: every operation returns a new ``Tensor`` that
remembers its parents and a closure computing the vector-Jacobian products.
``backward`` walks the graph once in reverse topological order, so gradients
for a fixed graph are bitwise reproducible. All values are 64-bit floats and
are never silently downcast.

A training step is dominated by per-node bookkeeping, not arithmetic, so
the chains that every step builds are single nodes with hand-written
backward rules: ``softmax``, ``bias_relu`` (a dense layer's bias add and
relu) and ``sq_dist`` here; cross-entropy, the evidential data term, the
Dirichlet KL, AvUC, the MMCE sum and the three LDU terms in ``losses``; the
spectral-norm rescaling in ``uncertainty``. Each rule repeats the arithmetic
of the primitive-op composition it replaces in the same order, including
the order in which gradients from several uses of one value are added, so
training gives the same bits as the composition would. Those modules build
their nodes with ``Tensor._from_op``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy import special as _sp

Array = np.ndarray

# Guard used in denominators of derivative rules that are singular at zero
# (sqrt, euclidean norms). Keeps backward finite; the true subgradient at the
# singular point is taken to be zero because the numerator vanishes there too.
_TINY = 1e-300


def _as_array(value) -> Array:
    return np.asarray(value, dtype=np.float64)


def _kept_shape(shape: tuple[int, ...], axis) -> tuple[int, ...]:
    """`shape` with the summed `axis` (an int or a tuple) kept as ones."""
    axes = {ax % len(shape) for ax in (axis if isinstance(axis, tuple) else (axis,))}
    return tuple(1 if i in axes else n for i, n in enumerate(shape))


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` over the axes numpy broadcasting introduced for `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """One node of the computation graph: a value plus its backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = _as_array(data)
        if not np.isfinite(arr).all():
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple[Array | None, ...]] | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _from_op(
        data: Array,
        parents: tuple["Tensor", ...],
        vjp: Callable[[Array], tuple[Array | None, ...]],
        op: str,
    ) -> "Tensor":
        requires_grad = False
        for p in parents:
            if p.requires_grad:
                requires_grad = True
                break
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = requires_grad
        out.op = op
        if requires_grad:
            out._parents = parents
            out._vjp = vjp
        else:
            # Constant subgraphs are folded away: nothing to differentiate.
            out._parents = ()
            out._vjp = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        data = a.data + b.data

        def vjp(g: Array):
            return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

        return Tensor._from_op(data, (a, b), vjp, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        data = a.data - b.data

        def vjp(g: Array):
            return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

        return Tensor._from_op(data, (a, b), vjp, "sub")

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        data = a.data * b.data

        def vjp(g: Array):
            return (
                _unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape),
            )

        return Tensor._from_op(data, (a, b), vjp, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        data = a.data / b.data

        def vjp(g: Array):
            return (
                _unbroadcast(g / b.data, a.data.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
            )

        return Tensor._from_op(data, (a, b), vjp, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def vjp(g: Array):
            return (-g,)

        return Tensor._from_op(-a.data, (a,), vjp, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        a = self
        c = float(exponent)
        data = a.data**c

        def vjp(g: Array):
            return (g * c * a.data ** (c - 1.0),)

        return Tensor._from_op(data, (a,), vjp, "pow")

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError("matmul expects 2-D operands")
        if a.data.shape[1] != b.data.shape[0]:
            raise ValueError(
                f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}"
            )
        data = a.data @ b.data

        def vjp(g: Array):
            return g @ b.data.T, a.data.T @ g

        return Tensor._from_op(data, (a, b), vjp, "matmul")

    # -- shape ops ---------------------------------------------------------

    def reshape(self, shape) -> "Tensor":
        a = self
        data = a.data.reshape(shape)

        def vjp(g: Array):
            return (g.reshape(a.data.shape),)

        return Tensor._from_op(data, (a,), vjp, "reshape")

    @property
    def T(self) -> "Tensor":
        a = self
        if a.data.ndim != 2:
            raise ValueError("transpose expects a 2-D tensor")

        def vjp(g: Array):
            return (g.T,)

        return Tensor._from_op(a.data.T, (a,), vjp, "transpose")

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)
        # The shape of `g` with the summed axes kept, to broadcast over them.
        kept = data.shape
        if axis is not None and not keepdims:
            kept = _kept_shape(a.data.shape, axis)

        def vjp(g: Array):
            out = np.empty(a.data.shape)
            out[...] = g.reshape(kept)
            return (out,)

        return Tensor._from_op(data, (a,), vjp, "sum")

    def mean(self) -> "Tensor":
        a = self
        n = float(a.data.size)
        data = np.asarray(a.data.mean())

        def vjp(g: Array):
            out = np.empty(a.data.shape)
            out[...] = g / n
            return (out,)

        return Tensor._from_op(data, (a,), vjp, "mean")

    # -- elementwise nonlinear ops ------------------------------------------

    def exp(self) -> "Tensor":
        a = self
        data = np.exp(a.data)

        def vjp(g: Array):
            return (g * data,)

        return Tensor._from_op(data, (a,), vjp, "exp")

    def log(self) -> "Tensor":
        a = self
        data = np.log(a.data)

        def vjp(g: Array):
            return (g / a.data,)

        return Tensor._from_op(data, (a,), vjp, "log")

    def sqrt(self) -> "Tensor":
        a = self
        data = np.sqrt(a.data)

        def vjp(g: Array):
            return (g * 0.5 / np.maximum(data, _TINY),)

        return Tensor._from_op(data, (a,), vjp, "sqrt")

    def abs(self) -> "Tensor":
        a = self

        def vjp(g: Array):
            return (g * np.sign(a.data),)

        return Tensor._from_op(np.abs(a.data), (a,), vjp, "abs")

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0.0

        def vjp(g: Array):
            return (g * mask,)

        return Tensor._from_op(a.data * mask, (a,), vjp, "relu")

    def sigmoid(self) -> "Tensor":
        a = self
        data = _sp.expit(a.data)

        def vjp(g: Array):
            return (g * data * (1.0 - data),)

        return Tensor._from_op(data, (a,), vjp, "sigmoid")

    def digamma(self) -> "Tensor":
        a = self
        data = _sp.psi(a.data)

        def vjp(g: Array):
            return (g * _sp.polygamma(1, a.data),)

        return Tensor._from_op(data, (a,), vjp, "digamma")

    def gammaln(self) -> "Tensor":
        a = self
        data = _sp.gammaln(a.data)

        def vjp(g: Array):
            return (g * _sp.psi(a.data),)

        return Tensor._from_op(data, (a,), vjp, "gammaln")

    def clamp_min(self, lo: float) -> "Tensor":
        a = self
        mask = a.data > lo

        def vjp(g: Array):
            return (g * mask,)

        return Tensor._from_op(np.maximum(a.data, lo), (a,), vjp, "clamp_min")

    def clamp_max(self, hi: float) -> "Tensor":
        a = self
        mask = a.data < hi

        def vjp(g: Array):
            return (g * mask,)

        return Tensor._from_op(np.minimum(a.data, hi), (a,), vjp, "clamp_max")

    def row_max(self) -> "Tensor":
        """Maximum per row of a 2-D tensor; gradient flows to the first argmax."""
        a = self
        if a.data.ndim != 2:
            raise ValueError("row_max expects a 2-D tensor")
        idx = np.argmax(a.data, axis=1)
        rows = np.arange(a.data.shape[0])
        data = a.data[rows, idx]

        def vjp(g: Array):
            out = np.zeros_like(a.data)
            out[rows, idx] = g
            return (out,)

        return Tensor._from_op(data, (a,), vjp, "row_max")

    # -- autodiff ----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss node")
        if not self.requires_grad:
            raise ValueError("loss does not depend on any differentiable tensor")

        order = _topological_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            grads = node._vjp(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # A private copy: `g` may be the child's own gradient or
                    # be handed to another parent as well.
                    parent.grad = np.array(g)
                else:
                    parent.grad += g


def _topological_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS; recursion would overflow on long op chains. A node is
    # pushed bare to be expanded and as a 1-tuple to be emitted after its
    # parents.
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list = [root]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            order.append(node[0])
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node,))
        for parent in node._parents:
            if parent.requires_grad and parent not in seen:
                stack.append(parent)
    return order


# -- module-level helpers ----------------------------------------------------


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    if type(value) is float:
        # Python-float constants (the 1.0 in `1.0 - conf`) skip the array
        # finiteness scan.
        if not math.isfinite(value):
            raise ValueError("tensor values must be finite")
        return Tensor._from_op(np.array(value), (), None, "leaf")
    return Tensor(value)


def parameter(data) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction for overflow safety, one node.

    The subtracted row maximum is treated as a constant; softmax is shift
    invariant so the gradient is unchanged. The backward rule repeats, in
    the same order, the arithmetic of the composition
    ``z = exp(logits - max)``, ``z / z.sum(1)``.
    """
    logits = as_tensor(logits)
    if logits.data.ndim != 2:
        raise ValueError("softmax expects a 2-D tensor of row logits")
    z = np.exp(logits.data - np.max(logits.data, axis=1, keepdims=True))
    s = z.sum(axis=1, keepdims=True)

    def vjp(g: Array):
        gz = g / s + (-g * z / (s * s)).sum(axis=1, keepdims=True)
        return (gz * z,)

    return Tensor._from_op(z / s, (logits,), vjp, "softmax")


def bias_relu(pre: Tensor, bias: Tensor) -> Tensor:
    """``relu(pre + bias)`` for a 2-D batch and a 1-D bias, one node.

    The backward rule is the relu mask followed by the broadcast add's
    split: the batch gradient as is, the bias gradient summed over rows.
    """
    a, b = as_tensor(pre), as_tensor(bias)
    if a.data.ndim != 2 or b.data.shape != a.data.shape[1:]:
        raise ValueError(
            f"bias_relu expects a 2-D batch and a matching 1-D bias, got "
            f"{a.data.shape} and {b.data.shape}"
        )
    z = a.data + b.data
    mask = z > 0.0

    def vjp(g: Array):
        gz = g * mask
        return gz, gz.sum(axis=0)

    return Tensor._from_op(z * mask, (a, b), vjp, "bias_relu")


def sq_dist(a: Tensor, b: Tensor) -> Tensor:
    """Squared euclidean distances between the rows of `a` and of `b`, one node.

    Row i, column j holds ||a_i - b_j||^2. The backward rule repeats the
    arithmetic of the composition ``diff = a[:, None] - b[None]``,
    ``(diff * diff).sum(2)``.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("sq_dist expects 2-D row arrays")
    if a.data.shape[1] != b.data.shape[1]:
        raise ValueError(
            f"sq_dist width mismatch: {a.data.shape[1]} != {b.data.shape[1]}"
        )
    diff = a.data[:, None, :] - b.data[None, :, :]

    def vjp(g: Array):
        g_diff = g[:, :, None] * diff
        g_diff = g_diff + g_diff
        return g_diff.sum(axis=1), (-g_diff).sum(axis=0)

    return Tensor._from_op((diff * diff).sum(axis=2), (a, b), vjp, "sq_dist")


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


def gradients(loss: Tensor, params: Sequence[Tensor]) -> list[Array]:
    """Backprop `loss` and return one gradient array per parameter.

    Parameters that do not influence the loss get explicit zero gradients.
    """
    zero_grads(params)
    loss.backward()
    return [
        p.grad if p.grad is not None else np.zeros_like(p.data) for p in params
    ]


def finite_diff_grad(
    f: Callable[[], float],
    params: Sequence[Tensor],
    eps: float = 1e-4,
) -> list[Array]:
    """Central-difference gradient of `f` with respect to `params`.

    `f` must recompute its value from the parameters' current data each call;
    coordinates are perturbed in place and always restored.
    """
    grads: list[Array] = []
    for p in params:
        g = np.zeros_like(p.data)
        flat_p = p.data.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            saved = flat_p[i]
            flat_p[i] = saved + eps
            f_plus = float(f())
            flat_p[i] = saved - eps
            f_minus = float(f())
            flat_p[i] = saved
            flat_g[i] = (f_plus - f_minus) / (2.0 * eps)
        grads.append(g)
    return grads
