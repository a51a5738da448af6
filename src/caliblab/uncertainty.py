"""Deterministic uncertainty heads: evidential, spectral-norm, prototype.

Three architectural pieces give a single-pass network a usable uncertainty
signal:

* an evidential head that maps logits to Dirichlet parameters,
* spectral normalization that caps the Lipschitz constant of dense layers,
* a distance-based prototype layer whose logits are negative euclidean
  distances to trainable class prototypes.

``head_output`` turns backbone features into the probabilities, confidence
and uncertainty of any of the three heads, so downstream losses and metrics
never special-case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Array, Tensor, as_tensor, softmax, sq_dist
from .config import HEAD_LOSS_KEYS


class TrainingError(RuntimeError):
    """Raised when a run cannot proceed (for example a non-finite loss)."""


@dataclass
class DirichletOutput:
    """Evidential head outputs; all fields are tape tensors, rows align."""

    evidence: Tensor      # relu(logits), shape (n, M)
    alpha: Tensor         # evidence + 1
    strength: Tensor      # row sums of alpha, shape (n, 1)
    prob: Tensor          # expected probabilities alpha / strength
    uncertainty: Tensor   # M / strength, shape (n,)


def evidence_head(logits: Tensor) -> DirichletOutput:
    """Interpret logits as evidence for a Dirichlet over class probabilities.

    Evidence is relu(logits), so it is non-negative; each class parameter is
    evidence + 1 and the per-sample uncertainty mass is M / sum(alpha). With
    zero evidence the head is maximally uncertain: uniform probabilities and
    uncertainty exactly 1.
    """
    logits = as_tensor(logits)
    if logits.data.ndim != 2:
        raise ValueError("evidence head expects 2-D logits")
    n_classes = logits.data.shape[1]
    evidence = logits.relu()
    alpha = evidence + 1.0
    strength = alpha.sum(axis=1, keepdims=True)
    prob = alpha / strength
    uncertainty = (float(n_classes) / strength).reshape((-1,))
    return DirichletOutput(
        evidence=evidence,
        alpha=alpha,
        strength=strength,
        prob=prob,
        uncertainty=uncertainty,
    )


# Power-iteration steps of the first refresh, before the convergence loop.
_INIT_ITERS = 30


class SpectralNorm:
    """Spectral normalization state for one weight matrix.

    Keeps persistent singular-vector estimates that are refined by power
    iteration (`refresh`), and rescales the weight so its spectral norm does
    not exceed `coeff`. Already-compliant weights pass through unchanged
    because the divisor is max(1, sigma/coeff).
    """

    def __init__(
        self,
        coeff: float,
        shape: tuple[int, int],
        rng: np.random.Generator,
        power_iters: int = 1,
    ):
        if coeff <= 0:
            raise ValueError("spectral norm coefficient must be positive")
        if power_iters < 1:
            raise ValueError("power-iteration count must be positive")
        self.coeff = float(coeff)
        self.power_iters = int(power_iters)
        n_out, n_in = shape
        u = rng.standard_normal(n_out)
        self.u = u / np.linalg.norm(u)
        v = rng.standard_normal(n_in)
        self.v = v / np.linalg.norm(v)
        self._initialized = False

    def refresh(self, weight: Array) -> float:
        """Run `power_iters` power-iteration steps on `weight`; returns sigma.

        The first call runs `_INIT_ITERS` steps and then continues until the
        estimate stabilizes, so the initial estimate is trustworthy even for
        spectra with near-tied leading singular values.
        """
        if not self._initialized:
            sigma = self._iterate(weight, _INIT_ITERS)
            for _ in range(1000):
                prev = sigma
                sigma = self._iterate(weight, 1)
                if abs(sigma - prev) <= 1e-10 * max(sigma, 1.0):
                    break
            self._initialized = True
            return sigma
        return self._iterate(weight, self.power_iters)

    def _iterate(self, weight: Array, steps: int) -> float:
        u, v = self.u, self.v
        for _ in range(steps):
            wu = weight.T @ u
            norm = np.linalg.norm(wu)
            if norm > 0.0:
                v = wu / norm
            wv = weight @ v
            norm = np.linalg.norm(wv)
            if norm > 0.0:
                u = wv / norm
        self.u, self.v = u, v
        return float(u @ weight @ v)

    def normalized(self, weight: Tensor) -> Tensor:
        """Weight divided by max(1, sigma/coeff), sigma on the tape.

        Sigma is the bilinear form u^T W v with the persistent vectors held
        constant, so the rescaling is differentiated through W. One tape
        node; its backward rule repeats the arithmetic of the composition
        ``weight / clamp_min(sigma / coeff, 1)``.
        """
        if not self._initialized:
            self.refresh(weight.data)
        w = weight.data
        u_row = self.u.reshape(1, -1)
        v_col = self.v.reshape(-1, 1)
        inv_coeff = 1.0 / self.coeff
        ratio = (u_row @ w @ v_col).reshape(()) * inv_coeff
        scale = np.maximum(ratio, 1.0)

        def vjp(g: Array):
            g_scale = (-g * w / (scale * scale)).sum(axis=(0, 1))
            g_sigma = g_scale * (ratio > 1.0) * inv_coeff
            g_uw = g_sigma.reshape((1, 1)) @ v_col.T
            return (g / scale + u_row.T @ g_uw,)

        return Tensor._from_op(w / scale, (weight,), vjp, "sn_normalized")


def init_prototypes(
    n_classes: int, dim: int, rng: np.random.Generator
) -> Array:
    """Standard-normal prototypes scaled by 1/sqrt(dim), one row per class."""
    return rng.standard_normal((n_classes, dim)) / np.sqrt(dim)


def dm_logits(latent: Tensor, prototypes: Tensor) -> Tensor:
    """Distance-based logits: minus the euclidean distance to each prototype.

    A sample sitting exactly on prototype k gets logit_k = 0; every other
    logit is negative, so the softmax over these logits peaks at the nearest
    prototype.
    """
    if prototypes is None:
        raise ValueError("the dm head needs prototypes")
    latent = as_tensor(latent)
    prototypes = as_tensor(prototypes)
    if latent.data.ndim != 2 or prototypes.data.ndim != 2:
        raise ValueError("dm_logits expects 2-D latent and prototype arrays")
    if latent.data.shape[1] != prototypes.data.shape[1]:
        raise ValueError(
            f"latent width {latent.data.shape[1]} != prototype width "
            f"{prototypes.data.shape[1]}"
        )
    return -(sq_dist(latent, prototypes).sqrt())


@dataclass
class ModelOutput:
    """Everything a classification head produces for one batch."""

    head: str
    logits: Tensor
    probs: Tensor
    confidence: Tensor
    uncertainty: Tensor
    dirichlet: DirichletOutput | None = None
    prototypes: Tensor | None = None

    @property
    def predictions(self) -> Array:
        """Argmax class per row; a tie goes to the lowest class index."""
        return np.argmax(self.probs.data, axis=1)


def head_output(
    head: str, features: Tensor, prototypes: Tensor | None = None
) -> ModelOutput:
    """Probabilities, confidence and uncertainty of a head on backbone features.

    dm scores `features` as a latent against `prototypes` with `dm_logits`;
    softmax and enn take `features` as their logits. enn reads probabilities
    and the uncertainty mass M/S off the Dirichlet of `evidence_head`;
    softmax and dm take softmax(logits) and score uncertainty as 1 - conf.
    Confidence is the winning probability for every head. Non-finite logits
    raise TrainingError before any probability is formed.
    """
    if head not in HEAD_LOSS_KEYS:
        raise ValueError(f"unknown head kind {head!r}")
    features = as_tensor(features)
    is_dm = head == "dm"
    logits = dm_logits(features, prototypes) if is_dm else features
    if not np.all(np.isfinite(logits.data)):
        raise TrainingError(
            f"non-finite {head} logits in the forward pass: the run diverged"
        )
    dirichlet = evidence_head(logits) if head == "enn" else None
    probs = softmax(logits) if dirichlet is None else dirichlet.prob
    conf = probs.row_max()
    return ModelOutput(
        head=head,
        logits=logits,
        probs=probs,
        confidence=conf,
        uncertainty=1.0 - conf if dirichlet is None else dirichlet.uncertainty,
        dirichlet=dirichlet,
        prototypes=prototypes if is_dm else None,
    )
