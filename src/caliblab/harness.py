"""Training, evaluation, grid search, multi-seed runs, and ensembling.

A run is fully determined by its ``TrainingConfig`` and ``Dataset``: the
master seed fans out into independent streams for initialization, batch
shuffling, and augmentation, and every optimizer and dataset operation is
numpy-deterministic, so repeated runs produce identical parameters and
prediction records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, constant, gradients, parameter
from .config import ModelSpec, OptimizerSpec, TrainingConfig, grid_candidates
from .datasets import Dataset, augment
from .losses import total_loss
from .metrics import (
    CalibrationReport,
    Predictions,
    balanced_accuracy,
    calibration_report,
    expected_calibration_error,
)
from .nn import Adam, DenseLayer, SGDMomentum, init_dense
from .uncertainty import (
    ModelOutput,
    SpectralNorm,
    TrainingError,
    head_output,
    init_prototypes,
)

METRIC_NAMES = ("bacc", "ece", "aece", "mce", "oe", "brier")


class Classifier:
    """Dense backbone plus one of the three uncertainty heads."""

    def __init__(
        self,
        spec: ModelSpec,
        n_features: int,
        n_classes: int,
        rng: np.random.Generator,
    ):
        spec.validate()
        self.spec = spec
        self.n_features = n_features
        self.n_classes = n_classes

        widths = [n_features, *spec.hidden]
        self.layers: list[DenseLayer] = []
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            self.layers.append(init_dense(n_in, n_out, rng, activation="relu"))
        if spec.head in ("softmax", "enn"):
            self.layers.append(
                init_dense(widths[-1], n_classes, rng, activation="identity")
            )
            self.prototypes = None
        else:  # dm: prototypes live in the latent space of the last layer
            self.prototypes = parameter(
                init_prototypes(n_classes, widths[-1], rng)
            )

        self.sn: list[SpectralNorm | None] = []
        for layer in self.layers:
            if spec.spectral_norm:
                self.sn.append(
                    SpectralNorm(
                        coeff=spec.sn_coeff,
                        shape=layer.weight.data.shape,
                        rng=rng,
                        power_iters=spec.sn_power_iters,
                    )
                )
            else:
                self.sn.append(None)

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        if self.prototypes is not None:
            params.append(self.prototypes)
        return params

    def forward(self, x: np.ndarray, refresh_sn: bool = False) -> ModelOutput:
        """Score a batch. `refresh_sn` advances the power iteration once and
        belongs in the training loop; evaluation must not mutate state."""
        out = constant(np.asarray(x, dtype=np.float64))
        if out.data.ndim != 2 or out.data.shape[1] != self.n_features:
            raise ValueError(
                f"expected batch of width {self.n_features}, got {out.data.shape}"
            )
        for layer, sn in zip(self.layers, self.sn):
            weight = None
            if sn is not None:
                if refresh_sn:
                    sn.refresh(layer.weight.data)
                weight = sn.normalized(layer.weight)
            out = layer(out, weight=weight)
        return head_output(self.spec.head, out, self.prototypes)


def make_optimizer(spec: OptimizerSpec):
    spec.validate()
    if spec.kind == "adam":
        return Adam(
            lr=spec.lr, beta1=spec.beta1, beta2=spec.beta2, epsilon=spec.epsilon
        )
    return SGDMomentum(lr=spec.lr, momentum=spec.momentum)


def fit(config: TrainingConfig, dataset: Dataset) -> tuple[Classifier, int]:
    """Train a classifier on the dataset's train split; returns (model, steps)."""
    config.validate()
    seq = np.random.SeedSequence(config.seed)
    rng_init, rng_shuffle, rng_augment = (
        np.random.default_rng(s) for s in seq.spawn(3)
    )
    model = Classifier(config.model, dataset.n_features, dataset.n_classes, rng_init)
    params = model.parameters()
    opt = make_optimizer(config.optimizer)

    n = dataset.x_train.shape[0]
    steps = 0
    for epoch in range(config.epochs):
        perm = rng_shuffle.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            xb = dataset.x_train[idx]
            yb = dataset.y_train[idx]
            if config.augment:
                xb, yb = augment(xb, yb, rng_augment, dataset.spec)
            try:
                output = model.forward(xb, refresh_sn=True)
            except TrainingError as exc:
                raise TrainingError(
                    f"epoch {epoch}, batch {start // config.batch_size}: {exc}"
                ) from None
            loss = total_loss(output, yb, config.loss)
            if not np.all(np.isfinite(loss.data)):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            opt.step(params, gradients(loss, params))
            steps += 1
    return model, steps


def predict_records(
    model: Classifier,
    x: np.ndarray,
    y: np.ndarray,
    sample_ids: np.ndarray | None = None,
) -> Predictions:
    """Score a batch without recording a tape: the parameters are read as
    constants for the forward pass, so no node keeps its inputs alive."""
    params = model.parameters()
    for p in params:
        p.requires_grad = False
    try:
        output = model.forward(x)
    finally:
        for p in params:
            p.requires_grad = True
    return Predictions(
        sample_id=np.arange(len(y)) if sample_ids is None else sample_ids,
        true_label=y,
        pred_label=output.predictions,
        confidence=output.confidence.data,
        uncertainty=output.uncertainty.data,
        probs=output.probs.data,
    )


def params_digest(model: Classifier) -> str:
    blob = b"".join(np.ascontiguousarray(p.data).tobytes() for p in model.parameters())
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunResult:
    records: Predictions
    report: CalibrationReport
    seed: int
    steps: int
    wall_time_s: float
    params_digest: str


def train(
    config: TrainingConfig, dataset: Dataset, n_bins: int = 10
) -> RunResult:
    """Fit on train, score the test split, and report calibration metrics."""
    started = time.perf_counter()
    model, steps = fit(config, dataset)
    records = predict_records(model, dataset.x_test, dataset.y_test)
    report = calibration_report(records, n_bins=n_bins)
    return RunResult(
        records=records,
        report=report,
        seed=config.seed,
        steps=steps,
        wall_time_s=time.perf_counter() - started,
        params_digest=params_digest(model),
    )


# -- grid search ---------------------------------------------------------------


@dataclass
class GridCandidate:
    overrides: dict
    val_bacc: float
    val_ece: float


@dataclass
class GridResult:
    best: TrainingConfig
    best_overrides: dict
    trace: list[GridCandidate]


def grid_search(
    config: TrainingConfig,
    dataset: Dataset,
    space: dict[str, list],
    n_bins: int = 10,
) -> GridResult:
    """Exhaustive sweep over the Cartesian product of `space`.

    Every candidate is validated before the first fit. Candidates are
    ranked by validation balanced accuracy; exact ties fall back to the
    lower validation ECE and then to first-seen order. The trace records
    every candidate in evaluation order.
    """
    if not space:
        raise ValueError("grid search needs at least one swept key")
    for key, values in space.items():
        if not values:
            raise ValueError(f"grid key {key!r} lists no candidate values")

    trace: list[GridCandidate] = []
    best: TrainingConfig | None = None
    best_overrides: dict = {}
    best_bacc = -np.inf
    best_ece = np.inf
    for overrides, candidate in grid_candidates(config, space):
        model, _ = fit(candidate, dataset)
        records = predict_records(model, dataset.x_val, dataset.y_val)
        bacc = balanced_accuracy(records)
        ece = expected_calibration_error(records, n_bins)
        trace.append(GridCandidate(overrides=overrides, val_bacc=bacc, val_ece=ece))
        if bacc > best_bacc or (bacc == best_bacc and ece < best_ece):
            best = candidate
            best_overrides = overrides
            best_bacc = bacc
            best_ece = ece
    return GridResult(best=best, best_overrides=best_overrides, trace=trace)


# -- multi-seed aggregation ------------------------------------------------------


@dataclass
class AggregateReport:
    seeds: list[int]
    runs: list[RunResult]
    mean: dict[str, float]
    std: dict[str, float]
    ensemble_report: CalibrationReport | None


def multi_seed(
    config: TrainingConfig,
    dataset: Dataset,
    k: int,
    n_bins: int = 10,
    with_ensemble: bool = True,
) -> AggregateReport:
    """Repeat the run with k consecutive seeds; aggregate mean and sample std."""
    if k < 2:
        raise ValueError("multi-seed aggregation needs k >= 2 runs")
    seeds = [config.seed + i for i in range(k)]
    runs = [
        train(dataclasses.replace(config, seed=s), dataset, n_bins=n_bins)
        for s in seeds
    ]
    values = {
        name: np.array([r.report.metric_dict()[name] for r in runs])
        for name in METRIC_NAMES
    }
    mean = {name: float(v.mean()) for name, v in values.items()}
    std = {name: float(v.std(ddof=1)) for name, v in values.items()}
    ensemble_report = None
    if with_ensemble:
        combined = ensemble([r.records for r in runs])
        ensemble_report = calibration_report(combined, n_bins=n_bins)
    return AggregateReport(
        seeds=seeds, runs=runs, mean=mean, std=std, ensemble_report=ensemble_report
    )


# -- ensembling ------------------------------------------------------------------


def ensemble(logs: Iterable[Predictions]) -> Predictions:
    """Average probability vectors across aligned prediction logs.

    Logs must cover the same sample ids in the same order with identical
    true labels. The logs are folded one at a time into a running sum of
    their probabilities, which is then divided by their count, so an
    iterator that builds each log on demand holds one log at a time; the
    result is bit-equal to stacking the logs and taking their mean.
    Averaged rows are renormalized only if their sum drifts from 1 by more
    than 1e-9; confidence is the winning averaged probability and
    uncertainty its complement. A tie between classes goes to the lowest
    class index.
    """
    count = 0
    for log in logs:
        count += 1
        if count == 1:
            # Copies, so that nothing keeps the first log's storage alive.
            sample_id = np.array(log.sample_id)
            true_label = np.array(log.true_label)
            total = np.array(log.probs)
        elif not np.array_equal(log.sample_id, sample_id):
            raise ValueError(
                f"log {count} is not aligned with log 1 (sample ids differ)"
            )
        elif not np.array_equal(log.true_label, true_label):
            raise ValueError(f"log {count} disagrees with log 1 on true labels")
        elif log.probs.shape != total.shape:
            raise ValueError(f"log {count} has a different number of classes")
        else:
            total += log.probs
        del log  # before the iterator builds the next one
    if count < 2:
        raise ValueError("ensemble needs at least two prediction logs")

    mean_probs = np.divide(total, count, out=total)
    sums = mean_probs.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        mean_probs /= sums[:, None]
    preds = np.argmax(mean_probs, axis=1)
    conf = mean_probs[np.arange(len(preds)), preds]
    unc = 1.0 - conf
    # Frozen, so that Predictions adopts these private arrays without copies.
    for column in (sample_id, true_label, preds, conf, unc, mean_probs):
        column.setflags(write=False)
    return Predictions(
        sample_id=sample_id,
        true_label=true_label,
        pred_label=preds,
        confidence=conf,
        uncertainty=unc,
        probs=mean_probs,
    )
