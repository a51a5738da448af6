"""Log-gamma, digamma, trigamma and the logistic function, in numpy.

The evidential loss, its Dirichlet KL and AvUC need these four functions.
For x > 0 the first three shift the argument up to z = x + N with the
recurrences (sums over k = 0 .. N - 1)

    ln G(x) = ln G(z) - sum_k ln(x + k),
    psi(x)  = psi(z)  - sum_k 1 / (x + k),
    psi'(x) = psi'(z) + sum_k 1 / (x + k)^2,

and take ln G(z), psi(z) and psi'(z) from the Stirling/Bernoulli series.
A call costs a fixed number of numpy calls whatever its size, so a training
step puts all of its arguments through one call of
``lgamma_digamma_trigamma``. Every entry takes the same arithmetic in the
same order, so its values do not depend on what it was batched with.

Positive integers up to ``_INT_TOP`` read log-gamma and digamma from a
table instead, so that ``gammaln(1) == gammaln(2) == 0`` and
``digamma(2) - digamma(1) == 1`` hold exactly: dead evidence gives
alpha = 1 exactly, and the KL of the flat Dirichlet must vanish exactly.

On [1e-8, 1e15] each function is within 1e-13 * max(1, |f(x)|) of the true
value. Arguments must be positive; other values give no meaningful result.
"""

from __future__ import annotations

import math

import numpy as np

Array = np.ndarray

_SHIFT = 16
# Row k of ``x + _ROWS`` is x + k; the last row is z = x + N.
_ROWS = np.arange(_SHIFT + 1.0)[:, None]

# The series at z >= 16 with the Bernoulli numbers B_2 .. B_12 (the first
# omitted term is about 1e-18):
#   ln G(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + sum_k B_2k / (2k (2k-1)) z^(1-2k)
#   psi(z)  = ln z - 1/(2z)                   - sum_k B_2k / (2k) z^(-2k)
#   psi'(z) = 1/z + 1/(2z^2)                  + sum_k B_2k z^(-2k-1)
# The shift sums below run to k = N, one term further than the recurrences,
# and the terms here absorb that: (z - 1/2) ln z becomes (z + 1/2) ln z,
# -1/(2z) becomes +1/(2z) and +1/(2z^2) becomes -1/(2z^2). Digamma is
# summed negated. Each remaining power c z^p is a (p, c) pair, evaluated
# as c exp(p ln z), so that one exp serves every power of all three.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
_LGAMMA_POWERS = [(1, -1.0), (0, 0.5 * math.log(2.0 * math.pi))] + [
    (1 - 2 * k, b / (2 * k * (2 * k - 1))) for k, b in enumerate(_BERNOULLI, 1)
]
_NEG_DIGAMMA_POWERS = [(-1, -0.5), (0, 0.0)] + [
    (-2 * k, b / (2 * k)) for k, b in enumerate(_BERNOULLI, 1)
]
_TRIGAMMA_POWERS = [(-1, 1.0), (-2, -0.5)] + [
    (-2 * k - 1, b) for k, b in enumerate(_BERNOULLI, 1)
]
_POWERS = np.array([_LGAMMA_POWERS, _NEG_DIGAMMA_POWERS, _TRIGAMMA_POWERS])
# Shaped (3, 8, 1) to broadcast over the arguments; the exponents are
# negated because -ln z is the logarithm at hand.
_NEG_EXPONENTS = -_POWERS[:, :, :1]
_COEFFICIENTS = _POWERS[:, :, 1:]

# ln G(n) and psi(n) for n = 0 .. _INT_TOP; column 0 (a pole) is nan.
# psi(n) sums H_(n-1) and then subtracts Euler's constant, so that
# psi(2) - psi(1) is exactly 1.
_INT_TOP = 32
_INT_TABLE = np.full((2, _INT_TOP + 1), np.nan)
_harmonic = 0.0
for _n in range(1, _INT_TOP + 1):
    _INT_TABLE[:, _n] = math.lgamma(_n), _harmonic - 0.5772156649015329
    _harmonic += 1.0 / _n
del _harmonic, _n

_PAD = np.ones(1)


def lgamma_digamma_trigamma(x) -> Array:
    """ln G, psi and psi' of every entry of `x`, in one pass.

    Returns an array shaped ``(3, *x.shape)``: log-gamma, digamma and
    trigamma.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    if flat.size < 2:
        # numpy sums the rows of an (r, 1) array in another order than the
        # rows of an (r, n) array; a second column keeps one order for all.
        flat = np.concatenate((flat, _PAD))
    shifted = flat + _ROWS
    z = shifted[-1]
    # The shift-sum rows of each function, and one more row each:
    #   ln G:  -ln(x + k) = ln(1 / (x + k)),  then (z + 1/2) ln z
    #   -psi:  1 / (x + k),                   then -ln z
    #   psi':  1 / (x + k)^2,                 then 0
    sums = np.zeros((3, _SHIFT + 2, flat.size))
    inv = np.divide(1.0, shifted, out=sums[1, : _SHIFT + 1])
    minus_log_z = np.log(inv, out=sums[0, : _SHIFT + 1])[-1]
    np.multiply(inv, inv, out=sums[2, : _SHIFT + 1])
    np.multiply(-0.5 - z, minus_log_z, out=sums[0, -1])
    np.copyto(sums[1, -1], minus_log_z)
    powers = np.multiply(_NEG_EXPONENTS, minus_log_z)
    np.exp(powers, out=powers)
    powers *= _COEFFICIENTS

    out = np.add.reduce(sums, axis=1)
    out += np.add.reduce(powers, axis=1)
    np.negative(out[1], out=out[1])
    n = np.fmin(flat, _INT_TOP + 0.5).astype(np.intp)
    np.copyto(out[:2], _INT_TABLE.take(n, axis=1, mode="clip"), where=n == flat)
    return out[:, : x.size].reshape((3,) + x.shape)


def gammaln(x) -> Array:
    """ln G(x), the log of the gamma function, for x > 0."""
    return lgamma_digamma_trigamma(x)[0]


def digamma(x) -> Array:
    """psi(x) = d/dx ln G(x), for x > 0."""
    return lgamma_digamma_trigamma(x)[1]


def expit(x) -> Array:
    """The logistic function 1 / (1 + exp(-x)).

    Where exp(-x) overflows the result is exactly 0, with no warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))
