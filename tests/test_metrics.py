"""Metric tests: worked examples, oracle agreement, invariants, validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    reliability_bins,
)

from oracles import (
    naive_bacc,
    naive_bin_table,
    naive_brier,
    naive_ece,
    naive_mce,
    naive_oe,
)


def binary_records(conf, correct):
    """Binary records that always predict class 0 with the given confidence."""
    records = []
    for i, (c, ok) in enumerate(zip(conf, correct)):
        c = float(c)
        records.append(
            PredictionRecord(
                sample_id=i,
                true_label=0 if ok else 1,
                pred_label=0,
                confidence=c,
                uncertainty=1.0 - c,
                probs=np.array([c, 1.0 - c]),
            )
        )
    return Predictions.from_records(records)


def random_records(rng, n, classes):
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


WORKED = binary_records([0.9, 0.8, 0.7, 0.3], [True, False, True, False])


def test_worked_example_ece():
    assert abs(expected_calibration_error(WORKED, n_bins=2) - 0.175) < 1e-12


def test_worked_example_mce():
    assert abs(max_calibration_error(WORKED, n_bins=2) - 0.3) < 1e-12


def test_worked_example_overconfidence():
    assert abs(overconfidence_error(WORKED, n_bins=2) - 0.1025) < 1e-12


def test_worked_example_adaptive_ece():
    assert abs(adaptive_calibration_error(WORKED, n_bins=2) - 0.175) < 1e-12


def test_perfectly_calibrated_one_hot_predictions_score_zero():
    records = binary_records([1.0] * 12, [True] * 12)
    report = calibration_report(records, n_bins=10)
    assert report.ece == 0.0
    assert report.aece == 0.0
    assert report.mce == 0.0
    assert report.oe == 0.0
    assert report.brier == 0.0
    assert report.bacc == 1.0


def test_binned_metrics_match_naive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 201))
        classes = int(rng.integers(2, 6))
        n_bins = int(rng.integers(1, 16))
        records = random_records(rng, n, classes)
        conf = [r.confidence for r in records]
        correct = [r.pred_label == r.true_label for r in records]
        assert (
            abs(expected_calibration_error(records, n_bins) - naive_ece(conf, correct, n_bins))
            <= 1e-12
        )
        assert (
            abs(max_calibration_error(records, n_bins) - naive_mce(conf, correct, n_bins))
            <= 1e-12
        )
        assert (
            abs(overconfidence_error(records, n_bins) - naive_oe(conf, correct, n_bins))
            <= 1e-12
        )
        if n >= n_bins:
            assert (
                abs(
                    adaptive_calibration_error(records, n_bins)
                    - naive_ece(conf, correct, n_bins, scheme="adaptive")
                )
                <= 1e-12
            )
        true = [r.true_label for r in records]
        pred = [r.pred_label for r in records]
        assert abs(balanced_accuracy(records) - naive_bacc(true, pred)) <= 1e-12
        probs = np.array([r.probs for r in records])
        assert abs(brier_score(records) - naive_brier(probs, true)) <= 1e-12


def test_boundary_confidence_goes_to_upper_bin():
    records = binary_records([0.7], [True])
    table = reliability_bins(records, n_bins=10, scheme="fixed")
    assert table.count[7] == 1  # 0.7 belongs to [0.7, 0.8), not [0.6, 0.7)
    assert table.count.sum() == 1


def test_confidence_one_lands_in_top_bin():
    records = binary_records([1.0], [True])
    table = reliability_bins(records, n_bins=10, scheme="fixed")
    assert table.count[9] == 1


def test_adaptive_split_sizes_differ_by_at_most_one():
    records = binary_records([0.55, 0.6, 0.65, 0.7, 0.75], [True] * 5)
    table = reliability_bins(records, n_bins=2, scheme="adaptive")
    assert list(table.count) == [3, 2]


def test_adaptive_binning_requires_enough_records():
    records = binary_records([0.9, 0.8], [True, False])
    with pytest.raises(ValueError, match="at least 3"):
        reliability_bins(records, n_bins=3, scheme="adaptive")


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="scheme"):
        reliability_bins(WORKED, n_bins=2, scheme="quantile")


def test_metrics_are_permutation_invariant():
    rng = np.random.default_rng(1)
    records = random_records(rng, 50, 3)
    rows = list(records)
    shuffled = Predictions.from_records([rows[i] for i in rng.permutation(50)])
    a = calibration_report(records, n_bins=7)
    b = calibration_report(shuffled, n_bins=7)
    for key in a.metric_dict():
        assert abs(a.metric_dict()[key] - b.metric_dict()[key]) < 1e-12


def test_max_calibration_error_dominates_expected():
    rng = np.random.default_rng(2)
    for _ in range(20):
        records = random_records(rng, int(rng.integers(5, 100)), 3)
        assert max_calibration_error(records, 10) >= expected_calibration_error(
            records, 10
        ) - 1e-15


def test_balanced_accuracy_weights_classes_equally():
    # 3 of 4 samples are class 0 and all predictions say class 0:
    # plain accuracy would be 0.75, balanced accuracy is 0.5
    records = binary_records([0.9, 0.9, 0.9, 0.9], [True, True, True, False])
    assert balanced_accuracy(records) == 0.5


def test_balanced_accuracy_ignores_absent_classes():
    probs = np.array([0.7, 0.2, 0.1])
    records = Predictions.from_records([
        PredictionRecord(0, 0, 0, 0.7, 0.3, probs),
        PredictionRecord(1, 1, 0, 0.7, 0.3, probs),
    ])
    # classes present: {0, 1}; class 2 exists in probs but has no samples
    assert balanced_accuracy(records) == 0.5


def test_brier_hand_values():
    records = binary_records([0.8], [True])
    assert abs(brier_score(records) - 0.08) < 1e-15
    records = binary_records([0.5], [True])
    assert abs(brier_score(records) - 0.5) < 1e-15


def test_report_agrees_with_standalone_metric_functions():
    rng = np.random.default_rng(3)
    records = random_records(rng, 64, 4)
    report = calibration_report(records, n_bins=12)
    assert report.ece == expected_calibration_error(records, 12)
    assert report.aece == adaptive_calibration_error(records, 12)
    assert report.mce == max_calibration_error(records, 12)
    assert report.oe == overconfidence_error(records, 12)
    assert report.bacc == balanced_accuracy(records)
    assert report.brier == brier_score(records)
    assert set(report.metric_dict()) == {"bacc", "ece", "aece", "mce", "oe", "brier"}


def test_validation_rejects_broken_records():
    good = next(iter(binary_records([0.8], [True])))
    with pytest.raises(ValueError, match="at least one"):
        Predictions.from_records([])
    bad = PredictionRecord(0, 0, 0, 0.8, 0.2, np.array([0.8, 0.4]))
    with pytest.raises(ValueError, match="simplex"):
        Predictions.from_records([bad])
    bad = PredictionRecord(0, 0, 0, 0.5, 0.2, np.array([0.8, 0.2]))
    with pytest.raises(ValueError, match="confidence does not match"):
        Predictions.from_records([bad])
    bad = PredictionRecord(0, 5, 0, 0.8, 0.2, np.array([0.8, 0.2]))
    with pytest.raises(ValueError, match="true label"):
        Predictions.from_records([bad])
    bad = PredictionRecord(0, 0, 3, 0.8, 0.2, np.array([0.8, 0.2]))
    with pytest.raises(ValueError, match="predicted label"):
        Predictions.from_records([bad])
    bad = PredictionRecord(0, 0, 0, 0.8, 1.7, np.array([0.8, 0.2]))
    with pytest.raises(ValueError, match="uncertainty"):
        Predictions.from_records([bad])
    wide = PredictionRecord(1, 0, 0, 0.6, 0.4, np.array([0.6, 0.3, 0.1]))
    with pytest.raises(ValueError, match="record 1: inconsistent probability width"):
        Predictions.from_records([good, wide])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 1.0, allow_nan=False), st.booleans()),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 15),
)
def test_binned_metric_ranges(pairs, n_bins):
    conf = [c for c, _ in pairs]
    correct = [ok for _, ok in pairs]
    records = binary_records(conf, correct)
    ece = expected_calibration_error(records, n_bins)
    mce = max_calibration_error(records, n_bins)
    oe = overconfidence_error(records, n_bins)
    assert 0.0 <= ece <= 1.0
    assert 0.0 <= mce <= 1.0
    assert 0.0 <= oe <= 1.0
    assert mce >= ece - 1e-15
    assert 0.0 <= brier_score(records) <= 2.0


def test_predictions_reject_non_finite_values():
    # A NaN in the losing column passed the simplex and confidence checks
    # once, and the Brier score of such records came out NaN.
    rows = [
        PredictionRecord(i, 0, 0, 0.6, 0.4, np.array([0.6, np.nan])) for i in range(12)
    ]
    with pytest.raises(ValueError, match="record 0: non-finite"):
        Predictions.from_records(rows)
    good = list(binary_records([0.8] * 6, [True] * 6))
    for field, value in (
        ("probs", np.array([0.8, np.inf])),
        ("probs", np.array([np.nan, 0.2])),
        ("confidence", np.nan),
        ("uncertainty", -np.inf),
    ):
        rows = list(good)
        rows[4] = dataclasses.replace(good[4], **{field: value})
        with pytest.raises(ValueError, match="record 4: non-finite"):
            Predictions.from_records(rows)


def test_predictions_rows_and_columns():
    records = binary_records([0.9, 0.6, 0.7], [True, False, True])
    assert len(records) == 3 and records.n_classes == 2
    rows = list(records)
    assert [r.sample_id for r in rows] == [0, 1, 2]
    assert type(rows[1].true_label) is int and type(rows[1].confidence) is float
    assert np.array_equal(Predictions.from_records(rows).probs, records.probs)
    assert not records.probs.flags.writeable  # validated once, so frozen
    with pytest.raises(ValueError, match="true_label must hold integers"):
        Predictions(
            sample_id=[0],
            true_label=[0.5],
            pred_label=[0],
            confidence=[1.0],
            uncertainty=[0.0],
            probs=[[1.0, 0.0]],
        )


def _columns(probs):
    preds = np.argmax(probs, axis=1)
    conf = probs[np.arange(len(probs)), preds]
    return dict(
        sample_id=np.arange(len(probs)),
        true_label=np.zeros(len(probs), dtype=np.int64),
        pred_label=preds,
        confidence=conf,
        uncertainty=1.0 - conf,
    )


def test_predictions_copies_writable_arrays():
    probs = np.array([[0.9, 0.1], [0.3, 0.7]])
    records = Predictions(probs=probs, **_columns(probs))
    assert not np.shares_memory(records.probs, probs)
    probs[0] = [0.1, 0.9]
    assert records.probs[0].tolist() == [0.9, 0.1]

    # A read-only view does not make its writable owner read-only.
    view = probs.view()
    view.setflags(write=False)
    records = Predictions(probs=view, **_columns(probs))
    assert not np.shares_memory(records.probs, probs)


def test_predictions_adopts_frozen_owners():
    probs = np.array([[0.9, 0.1], [0.3, 0.7]])
    columns = _columns(probs)
    for arr in [probs, *columns.values()]:
        arr.setflags(write=False)
    records = Predictions(probs=probs, **columns)
    assert records.probs is probs
    for name, arr in columns.items():
        assert getattr(records, name) is arr, name
    # A frozen owner of another dtype is still converted.
    as_int32 = columns["sample_id"].astype(np.int32)
    as_int32.setflags(write=False)
    columns["sample_id"] = as_int32
    records = Predictions(probs=probs, **columns)
    assert records.sample_id.dtype == np.int64
    assert not records.sample_id.flags.writeable


def _log_on_bin_edges(seed, classes, n):
    """Random softmax rows, a quarter of them moved onto a confidence k/10."""
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((n, classes)) * rng.uniform(0.5, 3.0)
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = z / z.sum(axis=1, keepdims=True)
    edges = [k / 10 for k in range(11) if k / 10 >= 1 / classes]
    for i in rng.choice(n, size=n // 4, replace=False):
        top = edges[rng.integers(len(edges))]
        probs[i] = [top] + [(1.0 - top) / (classes - 1)] * (classes - 1)
    preds = np.argmax(probs, axis=1)
    conf = probs[np.arange(n), preds]
    true = rng.integers(0, classes, n)
    return Predictions(
        sample_id=np.arange(n),
        true_label=true,
        pred_label=preds,
        confidence=conf,
        uncertainty=1.0 - conf,
        probs=probs,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
    st.integers(10, 500),
    st.sampled_from([2, 3, 5, 7, 10]),
)
@example(seed=0, classes=3, n=23, n_bins=10)  # adaptive groups of 3 and 2
def test_bin_tables_and_metrics_match_oracle_on_random_logs(seed, classes, n, n_bins):
    records = _log_on_bin_edges(seed, classes, n)
    conf = records.confidence.tolist()
    true = records.true_label.tolist()
    pred = records.pred_label.tolist()
    correct = [p == t for p, t in zip(pred, true)]
    report = calibration_report(records, n_bins)
    for table in (report.fixed_bins, report.adaptive_bins):
        want = naive_bin_table(conf, correct, n_bins, table.scheme)
        assert (table.n_bins, table.n_samples) == (n_bins, n)
        assert table.count.tolist() == want["count"]
        for field in ("lower", "upper", "mean_confidence", "accuracy"):
            assert np.max(np.abs(getattr(table, field) - want[field])) <= 1e-12
    expected = {
        "bacc": naive_bacc(true, pred),
        "ece": naive_ece(conf, correct, n_bins),
        "aece": naive_ece(conf, correct, n_bins, scheme="adaptive"),
        "mce": naive_mce(conf, correct, n_bins),
        "oe": naive_oe(conf, correct, n_bins),
        "brier": naive_brier(records.probs, true),
    }
    for key, value in report.metric_dict().items():
        assert abs(value - expected[key]) <= 1e-12, key
