"""Release acceptance gate: one test per numbered criterion.

Each test prints a single ``[ACCEPTANCE n] <name>: PASS/FAIL`` line so the
gate outcome is readable straight off the pytest output, then asserts the
criterion at its stated tolerance.
"""

import contextlib
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from caliblab.autodiff import constant, finite_diff_grad
from caliblab.cli import main as cli_main
from caliblab.config import LossWeights, ModelSpec, OptimizerSpec, TrainingConfig, load_config
from caliblab.datasets import DatasetSpec, make_dataset
from caliblab.harness import Classifier, grid_search, multi_seed, train
from caliblab.losses import cross_entropy, evidential_loss, mmce_loss, total_loss
from caliblab.metrics import (
    PredictionRecord,
    Predictions,
    adaptive_calibration_error,
    balanced_accuracy,
    brier_score,
    calibration_report,
    expected_calibration_error,
    max_calibration_error,
    overconfidence_error,
)
from caliblab.uncertainty import SpectralNorm, evidence_head

from oracles import (
    mmce_three_sums,
    naive_bacc,
    naive_brier,
    naive_ece,
    naive_mce,
    naive_oe,
    top_singular_value,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@contextlib.contextmanager
def announced(capsys, number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"\n[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'}")


# -- 1. gradient fidelity ---------------------------------------------------------

GRAD_MARGIN = 1e-3

GRADCHECK_CONFIGS = [
    ("baseline", ModelSpec(hidden=(5, 4)), LossWeights()),
    ("avuc", ModelSpec(hidden=(5, 4)), LossWeights(avuc=0.7)),
    ("mmce", ModelSpec(hidden=(5, 4)), LossWeights(mmce=0.8)),
    ("enn", ModelSpec(hidden=(5, 4), head="enn"), LossWeights(evidential_kl=0.5)),
    (
        "enn-avuc",
        ModelSpec(hidden=(5, 4), head="enn"),
        LossWeights(evidential_kl=0.5, avuc=0.7),
    ),
    (
        "enn-mmce",
        ModelSpec(hidden=(5, 4), head="enn"),
        LossWeights(evidential_kl=0.5, mmce=0.8),
    ),
    (
        "sn",
        ModelSpec(hidden=(5, 4), spectral_norm=True, sn_coeff=0.9),
        LossWeights(),
    ),
    (
        "sn-avuc",
        ModelSpec(hidden=(5, 4), spectral_norm=True, sn_coeff=0.9),
        LossWeights(avuc=0.7),
    ),
    (
        "sn-mmce",
        ModelSpec(hidden=(5, 4), spectral_norm=True, sn_coeff=0.9),
        LossWeights(mmce=0.8),
    ),
    (
        "dm",
        ModelSpec(hidden=(5, 4), head="dm"),
        LossWeights(dm_entropy=0.5, proto_dispersion=1.2, uncertainty_bce=0.9),
    ),
    (
        "dm-avuc",
        ModelSpec(hidden=(5, 4), head="dm"),
        LossWeights(
            dm_entropy=0.5, proto_dispersion=1.2, uncertainty_bce=0.9, avuc=0.7
        ),
    ),
    (
        "dm-mmce",
        ModelSpec(hidden=(5, 4), head="dm"),
        LossWeights(
            dm_entropy=0.5, proto_dispersion=1.2, uncertainty_bce=0.9, mmce=0.8
        ),
    ),
]


def _effective_weights(model):
    weights = []
    for layer, sn in zip(model.layers, model.sn):
        if sn is None:
            weights.append(layer.weight.data)
        else:
            weights.append(sn.normalized(layer.weight).data)
    return weights


def _well_conditioned(model, x, weights_spec):
    """True when every non-smooth point stays at a safe margin from the
    sampled instance, so central differences see a locally smooth loss."""
    spec = model.spec
    eff = _effective_weights(model)
    act = np.asarray(x, dtype=np.float64)
    n_layers = len(model.layers)
    logits = None
    for idx, layer in enumerate(model.layers):
        pre = act @ eff[idx].T + layer.bias.data
        if spec.head in ("softmax", "enn") and idx == n_layers - 1:
            # identity output layer; the enn head relus these logits next
            if spec.head == "enn" and np.min(np.abs(pre)) < GRAD_MARGIN:
                return False
            logits = pre
        else:
            if np.min(np.abs(pre)) < GRAD_MARGIN:
                return False
            act = np.maximum(pre, 0.0)
    if spec.spectral_norm:
        for sn, layer in zip(model.sn, model.layers):
            sigma = float(sn.u @ layer.weight.data @ sn.v)
            if abs(sigma / sn.coeff - 1.0) < GRAD_MARGIN:
                return False
    if spec.head == "dm":
        protos = model.prototypes.data
        dists = np.sqrt(((act[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2))
        if np.min(dists) < GRAD_MARGIN:
            return False
        logits = -dists
    if spec.head == "enn":
        alpha = np.maximum(logits, 0.0) + 1.0
        probs = alpha / alpha.sum(axis=1, keepdims=True)
    else:
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
    ordered = np.sort(probs, axis=1)
    if np.min(ordered[:, -1] - ordered[:, -2]) < GRAD_MARGIN:
        return False
    conf = ordered[:, -1]
    if weights_spec.mmce > 0:
        diffs = np.abs(conf[:, None] - conf[None, :])
        off = diffs[~np.eye(len(conf), dtype=bool)]
        if off.size and np.min(off) < GRAD_MARGIN:
            return False
    if weights_spec.uncertainty_bce > 0:
        u = 1.0 - conf
        if np.min(u) < 1e-4 or np.max(u) > 1.0 - 1e-4:
            return False
    return True


def _gradcheck_config(name, spec, weights, n_instances=20):
    n_features, n_classes, batch = 3, 3, 5
    rng = np.random.default_rng(
        np.random.SeedSequence([1, sum(map(ord, name))])
    )
    worst = 0.0
    kept = 0
    for _ in range(400):
        if kept >= n_instances:
            break
        model = Classifier(spec, n_features, n_classes, rng)
        x = rng.normal(0.0, 1.0, size=(batch, n_features))
        y = rng.integers(0, n_classes, size=batch)
        if spec.spectral_norm:
            for sn, layer in zip(model.sn, model.layers):
                sn.refresh(layer.weight.data)
        if not _well_conditioned(model, x, weights):
            continue
        kept += 1
        params = model.parameters()
        loss = total_loss(model.forward(x), y, weights)
        loss.backward()
        analytic = [p.grad.copy() for p in params]
        fd = finite_diff_grad(
            lambda: float(total_loss(model.forward(x), y, weights).data),
            params,
            eps=1e-4,
        )
        for a, b in zip(analytic, fd):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    assert kept >= n_instances, f"{name}: only {kept} well-conditioned instances"
    return worst


def test_criterion_01_gradient_fidelity(capsys):
    with announced(capsys, 1, "gradient fidelity"):
        started = time.perf_counter()
        for name, spec, weights in GRADCHECK_CONFIGS:
            worst = _gradcheck_config(name, spec, weights)
            assert worst <= 1e-4, f"{name}: worst relative error {worst:.3e}"
        elapsed = time.perf_counter() - started
        assert elapsed <= 30.0, f"gradient checks took {elapsed:.1f}s"


# -- 2. metric oracle equivalence -------------------------------------------------


def _random_records(rng, n, classes):
    logits = rng.standard_normal((n, classes)) * rng.uniform(0.5, 3.0)
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = z / z.sum(axis=1, keepdims=True)
    preds = np.argmax(probs, axis=1)
    true = rng.integers(0, classes, n)
    return Predictions.from_records([
        PredictionRecord(
            sample_id=i,
            true_label=int(true[i]),
            pred_label=int(preds[i]),
            confidence=float(probs[i, preds[i]]),
            uncertainty=float(1.0 - probs[i, preds[i]]),
            probs=probs[i],
        )
        for i in range(n)
    ])


def _binary_records(conf, correct):
    return Predictions.from_records([
        PredictionRecord(
            sample_id=i,
            true_label=0 if ok else 1,
            pred_label=0,
            confidence=float(c),
            uncertainty=1.0 - float(c),
            probs=np.array([float(c), 1.0 - float(c)]),
        )
        for i, (c, ok) in enumerate(zip(conf, correct))
    ])


def test_criterion_02_metric_oracle_equivalence(capsys):
    with announced(capsys, 2, "metric oracle equivalence"):
        rng = np.random.default_rng(2)
        n_bins = 10
        for _ in range(100):
            n = int(rng.integers(n_bins, 201))
            classes = int(rng.integers(2, 6))
            records = _random_records(rng, n, classes)
            conf = [r.confidence for r in records]
            correct = [r.pred_label == r.true_label for r in records]
            true = [r.true_label for r in records]
            pred = [r.pred_label for r in records]
            probs = np.array([r.probs for r in records])
            assert abs(
                expected_calibration_error(records, n_bins)
                - naive_ece(conf, correct, n_bins)
            ) <= 1e-12
            assert abs(
                adaptive_calibration_error(records, n_bins)
                - naive_ece(conf, correct, n_bins, scheme="adaptive")
            ) <= 1e-12
            assert abs(
                max_calibration_error(records, n_bins) - naive_mce(conf, correct, n_bins)
            ) <= 1e-12
            assert abs(
                overconfidence_error(records, n_bins) - naive_oe(conf, correct, n_bins)
            ) <= 1e-12
            assert abs(brier_score(records) - naive_brier(probs, true)) <= 1e-12
            assert abs(balanced_accuracy(records) - naive_bacc(true, pred)) <= 1e-12
        worked = _binary_records([0.9, 0.8, 0.7, 0.3], [True, False, True, False])
        assert abs(expected_calibration_error(worked, n_bins=2) - 0.175) <= 1e-12
        assert abs(max_calibration_error(worked, n_bins=2) - 0.3) <= 1e-12
        assert abs(overconfidence_error(worked, n_bins=2) - 0.1025) <= 1e-12
        assert abs(adaptive_calibration_error(worked, n_bins=2) - 0.175) <= 1e-12


# -- 3. exact zero / identity cases ----------------------------------------------


def test_criterion_03_exact_zero_and_identity_cases(capsys):
    with announced(capsys, 3, "exact zero and identity cases"):
        records = _binary_records([1.0] * 16, [True] * 16)
        report = calibration_report(records, n_bins=10)
        assert report.ece == 0.0
        assert report.aece == 0.0
        assert report.mce == 0.0
        assert report.oe == 0.0
        assert report.brier == 0.0
        assert report.bacc == 1.0

        rng = np.random.default_rng(3)
        for _ in range(5):
            model = Classifier(ModelSpec(hidden=(6, 5)), 4, 3, rng)
            x = rng.normal(size=(6, 4))
            y = rng.integers(0, 3, size=6)
            output = model.forward(x)
            combined = total_loss(output, y, LossWeights())
            plain = cross_entropy(output.probs, y)
            assert float(combined.data) == float(plain.data)


# -- 4. spectral-norm bound -------------------------------------------------------


def test_criterion_04_spectral_norm_bound(capsys):
    with announced(capsys, 4, "spectral norm bound"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_out = int(rng.integers(1, 17))
            n_in = int(rng.integers(1, 17))
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            weight = rng.normal(0.0, scale, size=(n_out, n_in))
            coeff = float(rng.uniform(0.3, 3.0))
            state = SpectralNorm(coeff=coeff, shape=weight.shape, rng=rng)
            state.refresh(weight)
            scaled = state.normalized(constant(weight))
            assert top_singular_value(scaled.data) <= coeff * 1.001


# -- 5. evidential-head analytic cases --------------------------------------------


def test_criterion_05_evidential_analytic_cases(capsys):
    with announced(capsys, 5, "evidential analytic cases"):
        # zero evidence: alpha = (1, 1), true class 0
        flat = evidence_head(constant(np.array([[0.0, 0.0]])))
        assert float(evidential_loss(flat, np.array([0])).data) == 1.0
        # evidence 9 on the true class: alpha = (10, 1)
        peaked = evidence_head(constant(np.array([[9.0, 0.0]])))
        assert abs(float(evidential_loss(peaked, np.array([0])).data) - 0.1) <= 1e-12
        # uncertainty M/S strictly decreases as any class gains evidence
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            base = rng.uniform(0.0, 5.0, size=m)
            boost = base.copy()
            boost[rng.integers(0, m)] += rng.uniform(0.1, 3.0)
            out = evidence_head(constant(np.stack([base, boost])))
            assert out.uncertainty.data[1] < out.uncertainty.data[0]


# -- 6. kernel calibration-loss oracle --------------------------------------------


def test_criterion_06_mmce_oracle(capsys):
    with announced(capsys, 6, "kernel calibration loss oracle"):
        rng = np.random.default_rng(6)
        for n in range(1, 33):
            for _ in range(3):
                conf = rng.uniform(0.02, 0.98, size=n)
                correct = rng.random(n) < rng.uniform(0.2, 0.9)
                ours = float(mmce_loss(constant(conf), correct).data)
                assert abs(ours - mmce_three_sums(conf, correct)) <= 1e-12
            matched = rng.random(n) < 0.5
            exact = float(mmce_loss(constant(matched.astype(float)), matched).data)
            assert exact == 0.0


# -- 7. directional trends on noisy blobs ------------------------------------------


def test_criterion_07_calibration_trends(capsys):
    with announced(capsys, 7, "calibration trends on noisy blobs"):
        started = time.perf_counter()
        dataset = make_dataset(
            DatasetSpec(
                kind="blobs",
                samples=2000,
                classes=2,
                noise=1.0,
                label_noise=0.15,
                train_frac=0.05,
                val_frac=0.05,
                test_frac=0.9,
                seed=0,
            )
        )
        base = TrainingConfig(
            model=ModelSpec(hidden=(64, 64)),
            loss=LossWeights(),
            optimizer=OptimizerSpec(lr=3e-3),
            epochs=600,
            batch_size=16,
            seed=0,
        )
        agg_base = multi_seed(base, dataset, k=10)

        grid = grid_search(base, dataset, {"loss.mmce": [0.2, 0.4]})
        agg_mmce = multi_seed(grid.best, dataset, k=10, with_ensemble=False)

        avuc_cfg = dataclasses.replace(base, loss=LossWeights(avuc=1.5))
        agg_avuc = multi_seed(avuc_cfg, dataset, k=10, with_ensemble=False)

        base_ece = agg_base.mean["ece"]
        base_bacc = agg_base.mean["bacc"]
        assert agg_mmce.mean["ece"] <= base_ece, (
            f"kernel-calibrated mean ECE {agg_mmce.mean['ece']:.4f} "
            f"> baseline {base_ece:.4f}"
        )
        assert agg_avuc.mean["ece"] <= base_ece, (
            f"avuc mean ECE {agg_avuc.mean['ece']:.4f} > baseline {base_ece:.4f}"
        )
        ens = agg_base.ensemble_report
        assert ens.ece <= base_ece, (
            f"ensemble ECE {ens.ece:.4f} > mean single-run ECE {base_ece:.4f}"
        )
        for name, bacc in (
            ("mmce", agg_mmce.mean["bacc"]),
            ("avuc", agg_avuc.mean["bacc"]),
            ("ensemble", ens.bacc),
        ):
            assert bacc >= base_bacc - 0.03, (
                f"{name} BACC {bacc:.4f} fell more than 0.03 below "
                f"baseline {base_bacc:.4f}"
            )
        elapsed = time.perf_counter() - started
        assert elapsed <= 300.0, f"trend experiment took {elapsed:.1f}s"


# -- 8. determinism and evaluate round-trip ----------------------------------------

RUN_INI = """\
[model]
hidden = 8

[optimizer]
lr = 0.05

[run]
epochs = 6
batch_size = 16
seed = 3

[data]
kind = blobs
samples = 100
classes = 2
noise = 0.4
seed = 1
"""


def test_criterion_08_determinism_and_round_trip(capsys, tmp_path):
    with announced(capsys, 8, "determinism and evaluate round-trip"):
        config = tmp_path / "run.ini"
        config.write_text(RUN_INI)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_main(["train", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli_main(["train", "--config", str(config), "--out", str(out_b)]) == 0
        log_a = (out_a / "predictions.csv").read_bytes()
        log_b = (out_b / "predictions.csv").read_bytes()
        assert log_a == log_b

        capsys.readouterr()  # drop the train progress lines
        assert cli_main(["evaluate", str(out_a / "predictions.csv")]) == 0
        evaluated = json.loads(capsys.readouterr().out)
        paired = json.loads((out_a / "report.json").read_text())
        for key in ("ece", "aece", "mce", "oe", "brier", "bacc"):
            assert abs(evaluated[key] - paired[key]) <= 1e-9
        assert evaluated["n_samples"] == paired["n_samples"]


# -- 9. shipped configuration coverage ---------------------------------------------


def test_criterion_09_configuration_coverage(capsys):
    with announced(capsys, 9, "shipped configuration coverage"):
        paths = sorted(CONFIG_DIR.glob("table*/*.ini"))
        assert len(paths) == 24, f"expected 24 shipped configs, found {len(paths)}"

        spot = {p.parent.name + "/" + p.name: load_config(p) for p in paths}
        assert spot["table1/enn.ini"].training.loss.evidential_kl == 40.0
        assert spot["table1/avuc.ini"].training.loss.avuc == 0.6
        assert spot["table1/mmce.ini"].training.loss.mmce == 25.0

        for path in paths:
            loaded = load_config(path)
            dataset = make_dataset(loaded.data)
            result = train(loaded.training, dataset)
            assert result.steps > 0
            metrics = result.report.metric_dict()
            assert all(np.isfinite(v) for v in metrics.values()), path.name
