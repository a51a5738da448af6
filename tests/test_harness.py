"""End-to-end harness tests: fit, train, grid search, multi-seed, ensemble."""

import dataclasses

import numpy as np
import pytest

from caliblab.config import LossWeights, ModelSpec, OptimizerSpec, TrainingConfig
from caliblab.datasets import Dataset, DatasetSpec, make_dataset
from caliblab.harness import (
    Classifier,
    TrainingError,
    ensemble,
    fit,
    grid_search,
    multi_seed,
    params_digest,
    predict_records,
    train,
)
from caliblab.metrics import Predictions, balanced_accuracy
from caliblab.reports import prediction_log_text

from oracles import stacked_mean_ensemble, top_singular_value


def quick_config(**kw):
    model = kw.pop("model", ModelSpec(hidden=(8,)))
    loss = kw.pop("loss", LossWeights())
    optimizer = kw.pop("optimizer", OptimizerSpec(lr=0.05))
    defaults = dict(epochs=20, batch_size=16, seed=0)
    defaults.update(kw)
    return TrainingConfig(model=model, loss=loss, optimizer=optimizer, **defaults)


def blobs(samples=100, classes=2, noise=0.4, seed=0, **kw):
    return make_dataset(
        DatasetSpec(kind="blobs", samples=samples, classes=classes, noise=noise, seed=seed, **kw)
    )


def test_fit_is_bitwise_deterministic():
    ds = blobs()
    cfg = quick_config(epochs=5)
    model_a, steps_a = fit(cfg, ds)
    model_b, steps_b = fit(cfg, ds)
    assert steps_a == steps_b
    assert params_digest(model_a) == params_digest(model_b)
    rec_a = predict_records(model_a, ds.x_test, ds.y_test)
    rec_b = predict_records(model_b, ds.x_test, ds.y_test)
    assert prediction_log_text(rec_a) == prediction_log_text(rec_b)


def test_different_seeds_give_different_models():
    ds = blobs()
    a, _ = fit(quick_config(epochs=2, seed=0), ds)
    b, _ = fit(quick_config(epochs=2, seed=1), ds)
    assert params_digest(a) != params_digest(b)


def test_step_count_is_epochs_times_batches():
    ds = blobs(samples=60)  # 48 train samples
    _, steps = fit(quick_config(epochs=3, batch_size=16), ds)
    assert steps == 3 * 3  # ceil(48 / 16) = 3 batches per epoch
    _, steps = fit(quick_config(epochs=2, batch_size=20), ds)
    assert steps == 2 * 3  # ceil(48 / 20) = 3


def test_training_separable_blobs_reaches_high_accuracy():
    ds = blobs(samples=120, noise=0.3, seed=3)
    result = train(quick_config(epochs=30), ds)
    assert result.report.bacc >= 0.95
    assert result.steps == 30 * int(np.ceil(96 / 16))
    assert result.wall_time_s > 0
    assert len(result.records) == len(ds.y_test)


def test_each_head_trains_and_scores():
    ds = blobs(samples=120, noise=0.3, seed=4)
    for model in [
        ModelSpec(hidden=(8,)),
        ModelSpec(hidden=(8,), head="enn"),
        ModelSpec(hidden=(8,), head="dm"),
        ModelSpec(hidden=(8,), spectral_norm=True, sn_coeff=2.0),
    ]:
        loss = LossWeights(evidential_kl=1.0) if model.head == "enn" else LossWeights()
        result = train(quick_config(model=model, loss=loss, epochs=15), ds)
        assert result.report.bacc > 0.7


def test_augmented_training_still_learns():
    ds = blobs(samples=120, noise=0.4, seed=5)
    result = train(quick_config(epochs=20, augment=True), ds)
    assert result.report.bacc > 0.9


def test_sgd_momentum_training_works():
    ds = blobs(samples=120, noise=0.3, seed=6)
    cfg = quick_config(
        optimizer=OptimizerSpec(lr=0.05, kind="sgd-momentum", momentum=0.8),
        epochs=20,
    )
    result = train(cfg, ds)
    assert result.report.bacc > 0.9


def test_spectral_norm_bound_holds_after_training():
    ds = blobs(samples=60, noise=0.4, seed=7)
    cfg = quick_config(
        model=ModelSpec(hidden=(8, 8), spectral_norm=True, sn_coeff=0.9),
        epochs=10,
    )
    model, _ = fit(cfg, ds)
    model.forward(ds.x_train[:8], refresh_sn=True)  # sync estimates to final weights
    for layer, sn in zip(model.layers, model.sn):
        sigma = top_singular_value(sn.normalized(layer.weight).data)
        assert sigma <= 0.9 * 1.001


def test_diverged_run_raises_training_error():
    # one update at an absurd learning rate sends the weights to ~1e290, so
    # the next forward pass overflows and the loop must fail loudly
    ds = blobs(samples=60)
    cfg = quick_config(
        model=ModelSpec(hidden=(8, 8)),
        optimizer=OptimizerSpec(lr=1e290),
        epochs=2,
        batch_size=16,
    )
    with pytest.raises(TrainingError, match="non-finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            fit(cfg, ds)


def test_diverged_dm_head_raises_training_error():
    # prototypes at 1e200 overflow the squared distances, so the distance
    # logits are -inf; forward must fail before softmax sees them
    model = Classifier(
        ModelSpec(hidden=(8,), head="dm"), 2, 3, np.random.default_rng(0)
    )
    model.prototypes.data[...] = 1e200
    with pytest.raises(TrainingError, match="non-finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            model.forward(np.ones((4, 2)))


def test_forward_rejects_wrong_feature_width():
    ds = blobs()
    model, _ = fit(quick_config(epochs=1), ds)
    with pytest.raises(ValueError, match="width"):
        model.forward(np.zeros((3, 5)))


def test_predict_records_uses_given_sample_ids():
    ds = blobs()
    model, _ = fit(quick_config(epochs=1), ds)
    ids = np.arange(100, 100 + len(ds.y_test))
    records = predict_records(model, ds.x_test, ds.y_test, sample_ids=ids)
    assert [r.sample_id for r in records] == list(ids)
    default = predict_records(model, ds.x_test, ds.y_test)
    assert [r.sample_id for r in default] == list(range(len(ds.y_test)))


# -- grid search -----------------------------------------------------------------


def test_grid_search_prefers_the_learning_configuration():
    ds = blobs(samples=100, noise=0.3, seed=8)
    cfg = quick_config(epochs=10)
    result = grid_search(cfg, ds, {"optimizer.lr": [1e-7, 0.05]})
    assert result.best_overrides == {"optimizer.lr": 0.05}
    assert len(result.trace) == 2
    assert [c.overrides["optimizer.lr"] for c in result.trace] == [1e-7, 0.05]
    assert result.best.optimizer.lr == 0.05


def test_grid_search_breaks_exact_ties_by_first_seen():
    # kernel_width is inert while the mmce weight is zero, so both candidates
    # run identically and tie on every metric: the first one must win
    ds = blobs(samples=60, seed=9)
    cfg = quick_config(epochs=2)
    result = grid_search(cfg, ds, {"loss.kernel_width": [0.4, 0.2]})
    assert result.trace[0].val_bacc == result.trace[1].val_bacc
    assert result.trace[0].val_ece == result.trace[1].val_ece
    assert result.best_overrides == {"loss.kernel_width": 0.4}


def test_grid_search_sweeps_cartesian_product_in_key_order():
    ds = blobs(samples=60, seed=10)
    cfg = quick_config(epochs=1)
    result = grid_search(
        cfg, ds, {"run.epochs": [1, 2], "optimizer.lr": [0.01, 0.02]}
    )
    combos = [(c.overrides["run.epochs"], c.overrides["optimizer.lr"]) for c in result.trace]
    assert combos == [(1, 0.01), (1, 0.02), (2, 0.01), (2, 0.02)]


def test_grid_search_rejects_empty_space():
    ds = blobs()
    with pytest.raises(ValueError, match="at least one"):
        grid_search(quick_config(), ds, {})
    with pytest.raises(ValueError, match="no candidate values"):
        grid_search(quick_config(), ds, {"loss.mmce": []})


def test_grid_search_validates_candidates():
    ds = blobs()
    with pytest.raises(Exception, match="head = enn"):
        grid_search(quick_config(epochs=1), ds, {"loss.evidential_kl": [1.0]})


def test_grid_search_rejects_an_invalid_candidate_before_any_fit(monkeypatch):
    fits = []
    monkeypatch.setattr("caliblab.harness.fit", lambda *args: fits.append(args))
    space = {"optimizer.lr": [0.1, 0.2], "loss.mmce": [1.0, -1.0]}
    with pytest.raises(ValueError, match="'loss.mmce': -1.0.*must be non-negative"):
        grid_search(quick_config(epochs=1), blobs(), space)
    assert fits == []


# -- multi-seed ------------------------------------------------------------------


def test_multi_seed_aggregates_mean_and_sample_std():
    ds = blobs(samples=120, noise=0.5, seed=11)
    cfg = quick_config(epochs=8, seed=5)
    agg = multi_seed(cfg, ds, k=3)
    assert agg.seeds == [5, 6, 7]
    assert len(agg.runs) == 3
    for name in ("bacc", "ece", "brier"):
        vals = np.array([r.report.metric_dict()[name] for r in agg.runs])
        assert abs(agg.mean[name] - vals.mean()) < 1e-15
        assert abs(agg.std[name] - vals.std(ddof=1)) < 1e-15
    assert agg.ensemble_report is not None


def test_sample_std_uses_bessel_correction():
    # two runs with metric values {a, b} must aggregate to std |a-b|/sqrt(2)
    ds = blobs(samples=100, noise=0.6, seed=12)
    agg = multi_seed(quick_config(epochs=3, seed=0), ds, k=2, with_ensemble=False)
    for name, values in (
        (n, [r.report.metric_dict()[n] for r in agg.runs]) for n in ("ece", "bacc")
    ):
        expect = abs(values[0] - values[1]) / np.sqrt(2.0)
        assert abs(agg.std[name] - expect) < 1e-12
    assert agg.ensemble_report is None


def test_multi_seed_requires_at_least_two_runs():
    ds = blobs()
    with pytest.raises(ValueError, match="k >= 2"):
        multi_seed(quick_config(), ds, k=1)


# -- ensembling -------------------------------------------------------------------


def _records_for(seed, ds):
    model, _ = fit(quick_config(epochs=4, seed=seed), ds)
    return predict_records(model, ds.x_test, ds.y_test)


def test_ensemble_of_identical_logs_is_identity():
    ds = blobs(seed=13)
    records = _records_for(0, ds)
    combined = ensemble([records, records])
    for orig, comb in zip(records, combined):
        assert np.array_equal(orig.probs, comb.probs)
        assert comb.pred_label == orig.pred_label
        assert comb.confidence == orig.confidence


def test_ensemble_averages_probability_rows():
    ds = blobs(seed=14)
    a = _records_for(0, ds)
    b = _records_for(1, ds)
    combined = ensemble([a, b])
    for ra, rb, rc in zip(a, b, combined):
        assert np.max(np.abs(rc.probs - (ra.probs + rb.probs) / 2.0)) < 1e-12
        lo = np.minimum(ra.probs, rb.probs)
        hi = np.maximum(ra.probs, rb.probs)
        assert np.all(rc.probs >= lo - 1e-12) and np.all(rc.probs <= hi + 1e-12)
        assert rc.true_label == ra.true_label


def test_ensemble_tie_goes_to_lowest_class():
    def log(row):
        probs = np.array([row])
        top = int(np.argmax(probs))
        return Predictions(
            sample_id=[0],
            true_label=[1],
            pred_label=[top],
            confidence=[row[top]],
            uncertainty=[1.0 - row[top]],
            probs=probs,
        )

    combined = ensemble([log([0.6, 0.4]), log([0.4, 0.6])])
    assert combined.pred_label.tolist() == [0]
    assert combined.confidence.tolist() == [0.5]


def test_ensemble_rejects_misaligned_logs():
    ds = blobs(seed=15)
    a = _records_for(0, ds)
    b = _records_for(1, ds)

    shifted = Predictions.from_records(
        [dataclasses.replace(r, sample_id=r.sample_id + 1) for r in b]
    )
    with pytest.raises(ValueError, match="log 2.*sample ids"):
        ensemble([a, shifted])

    relabeled = Predictions.from_records(
        [dataclasses.replace(r, true_label=1 - r.true_label) for r in b]
    )
    with pytest.raises(ValueError, match="log 2.*true labels"):
        ensemble([a, relabeled])

    with pytest.raises(ValueError, match="at least two"):
        ensemble([a])


def _edge_row(rng, classes):
    """A random probability row whose sum is as far above 1 as validation
    allows, so that averaging such rows can drift past the 1e-9 bound."""
    row = rng.dirichlet(np.ones(classes))
    row[-1] += 1e-9
    while abs(row.sum() - 1.0) <= 1e-9:
        row[-1] = np.nextafter(row[-1], 2.0)
    while abs(row.sum() - 1.0) > 1e-9:
        row[-1] = np.nextafter(row[-1], -2.0)
    return row


def _logs_with_edges(rng, k, n, classes):
    """k aligned logs: random rows, edge rows, and a last row tied between
    classes 0 and 1 in every log."""
    ids = rng.permutation(n) + 7
    labels = rng.integers(0, classes, n)
    logs = []
    for _ in range(k):
        probs = rng.dirichlet(np.ones(classes), size=n)
        for i in range(0, n - 1, 3):
            probs[i] = _edge_row(rng, classes)
        probs[-1] = 0.0
        probs[-1, :2] = 0.5
        preds = np.argmax(probs, axis=1)
        conf = probs[np.arange(n), preds]
        logs.append(
            Predictions(
                sample_id=ids,
                true_label=labels,
                pred_label=preds,
                confidence=conf,
                uncertainty=1.0 - conf,
                probs=probs,
            )
        )
    return logs


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ensemble_fold_is_bit_equal_to_the_stacked_mean(k):
    rng = np.random.default_rng(100 + k)
    logs = _logs_with_edges(rng, k, 60, 3)
    drift = np.abs(np.stack([log.probs for log in logs]).mean(axis=0).sum(axis=1) - 1)
    assert drift.max() > 1e-9  # the renormalizing branch runs
    want = stacked_mean_ensemble(logs)
    assert want["probs"][-1, 0] == want["probs"][-1, 1]  # the tied row
    for combined in (ensemble(logs), ensemble(iter(logs))):
        assert np.array_equal(combined.sample_id, logs[0].sample_id)
        assert np.array_equal(combined.true_label, logs[0].true_label)
        assert combined.pred_label[-1] == 0
        for name, column in want.items():
            got = getattr(combined, name)
            assert got.dtype == column.dtype and got.shape == column.shape, name
            assert got.tobytes() == column.tobytes(), name


def test_ensemble_of_an_iterator_keeps_todays_errors():
    a, b = _logs_with_edges(np.random.default_rng(9), 2, 12, 3)
    with pytest.raises(ValueError, match="ensemble needs at least two prediction logs"):
        ensemble(iter([]))
    with pytest.raises(ValueError, match="ensemble needs at least two prediction logs"):
        ensemble(iter([a]))
    shifted = dataclasses.replace(b, sample_id=b.sample_id + 1)
    with pytest.raises(ValueError, match=r"log 2 is not aligned with log 1 \(sample ids"):
        ensemble(iter([a, shifted]))


def test_ensemble_accuracy_is_at_least_plausible():
    # sanity: ensembling aligned predictors should not collapse performance
    ds = blobs(samples=120, noise=0.6, seed=16)
    logs = [_records_for(s, ds) for s in range(3)]
    singles = [balanced_accuracy(r) for r in logs]
    combined = balanced_accuracy(ensemble(logs))
    assert combined >= min(singles) - 0.1


@pytest.mark.parametrize(
    "model",
    [
        ModelSpec(hidden=(8,)),
        ModelSpec(hidden=(8,), head="enn", spectral_norm=True),
        ModelSpec(hidden=(8,), head="dm", spectral_norm=True),
    ],
)
def test_scoring_records_no_tape_and_matches_the_taped_forward(model):
    ds = blobs()
    fitted, _ = fit(quick_config(model=model, epochs=2), ds)
    taped = fitted.forward(ds.x_test)
    assert taped.probs._parents  # a plain forward records a tape
    scored = []
    forward = fitted.forward
    fitted.forward = lambda x, **kw: scored.append(forward(x, **kw)) or scored[-1]
    records = predict_records(fitted, ds.x_test, ds.y_test)
    out = scored[0]
    for t in (out.logits, out.probs, out.confidence, out.uncertainty):
        assert t._parents == () and not t.requires_grad
    assert all(p.requires_grad for p in fitted.parameters())
    assert np.array_equal(records.probs, taped.probs.data)
    assert np.array_equal(records.confidence, taped.confidence.data)
    assert np.array_equal(records.uncertainty, taped.uncertainty.data)
    assert np.array_equal(records.pred_label, taped.predictions)
