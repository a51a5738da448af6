"""Prediction-log, report-JSON, diagram export, and atomic-write tests."""

import json
import math
import os
import sys
import threading
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblab import reports
from caliblab.metrics import Predictions, calibration_report, reliability_bins
from caliblab.reports import (
    commit_artifacts,
    prediction_log_text,
    read_prediction_log,
    reliability_csv_text,
    reliability_svg_text,
    report_json_text,
    report_payload,
)

from oracles import naive_prediction_log
from test_metrics import binary_records, random_records


def test_prediction_log_round_trip_is_metric_exact(tmp_path):
    rng = np.random.default_rng(0)
    records = random_records(rng, 40, 3)
    path = tmp_path / "predictions.csv"
    commit_artifacts([(path, prediction_log_text(records))])
    loaded = read_prediction_log(path)
    assert len(loaded) == 40
    for orig, back in zip(records, loaded):
        assert back.sample_id == orig.sample_id
        assert back.true_label == orig.true_label
        assert back.pred_label == orig.pred_label
        assert abs(back.confidence - orig.confidence) < 1e-12
        assert np.max(np.abs(back.probs - orig.probs)) < 1e-12
    a = calibration_report(records, n_bins=10)
    b = calibration_report(loaded, n_bins=10)
    for key, value in a.metric_dict().items():
        assert abs(b.metric_dict()[key] - value) < 1e-9


def test_prediction_log_text_is_deterministic():
    rng = np.random.default_rng(1)
    records = random_records(rng, 10, 2)
    assert "".join(prediction_log_text(records)) == "".join(prediction_log_text(records))
    header = "".join(prediction_log_text(records)).splitlines()[0]
    assert header == "sample_id,true_label,pred_label,confidence,uncertainty,p_0,p_1"


def test_prediction_log_read_errors_name_lines(tmp_path):
    path = tmp_path / "log.csv"

    path.write_text("bogus,header\n")
    with pytest.raises(ValueError, match="header"):
        read_prediction_log(path)

    good = "".join(prediction_log_text(binary_records([0.8], [True])))
    path.write_text(good + "1,0,0,0.5\n")
    with pytest.raises(ValueError, match="line 3"):
        read_prediction_log(path)

    path.write_text(good.replace("8.0", "oops", 1))
    with pytest.raises(ValueError, match="line 2"):
        read_prediction_log(path)

    header = good.splitlines()[0]
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_prediction_log(path)

    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_prediction_log(path)


# Written by the csv.writer-based formatter that preceded the bulk one.
GOLDEN_LOG = (
    "sample_id,true_label,pred_label,confidence,uncertainty,p_0,p_1,p_2\r\n"
    "7,0,0,7.000000000000e-01,3.000000000000e-01,"
    "7.000000000000e-01,2.000000000000e-01,1.000000000000e-01\r\n"
    "3,2,1,3.533333333333e-01,6.466666666667e-01,"
    "3.233333333333e-01,3.533333333333e-01,3.233333333333e-01\r\n"
    "12,1,1,1.000000000000e+00,0.000000000000e+00,"
    "0.000000000000e+00,1.000000000000e+00,0.000000000000e+00\r\n"
    "0,1,2,5.000000000000e-01,5.000000000000e-01,"
    "2.500000000000e-01,2.500000000000e-01,5.000000000000e-01\r\n"
    "100000,0,0,9.999998000000e-01,2.000000000058e-07,"
    "9.999998000000e-01,1.000000000000e-07,1.000000000000e-07\r\n"
)


def test_prediction_log_text_matches_golden_bytes():
    probs = np.array(
        [
            [0.7, 0.2, 0.1],
            [1 / 3 - 0.01, 1 / 3 + 0.02, 1 / 3 - 0.01],
            [0.0, 1.0, 0.0],
            [0.25, 0.25, 0.5],
            [1 - 2e-7, 1e-7, 1e-7],
        ]
    )
    pred = np.argmax(probs, axis=1)
    conf = probs[np.arange(5), pred]
    records = Predictions(
        sample_id=[7, 3, 12, 0, 100000],
        true_label=[0, 2, 1, 1, 0],
        pred_label=pred,
        confidence=conf,
        uncertainty=1.0 - conf,
        probs=probs,
    )
    assert "".join(prediction_log_text(records)) == GOLDEN_LOG


@pytest.mark.parametrize(
    "line, old, new",
    [
        (2, "7,0,0,", "7,1.5,0,"),  # true_label written as a float
        (5, ",5.000000000000e-01\r\n", ",abc\r\n"),  # probability not a number
        (4, ",0.000000000000e+00\r\n", "\r\n"),  # short row
        (3, "3,2,1,", "\r\n3,2,1,"),  # blank line
    ],
)
def test_prediction_log_malformed_cells_name_their_line(tmp_path, line, old, new):
    path = tmp_path / "log.csv"
    path.write_bytes(GOLDEN_LOG.replace(old, new, 1).encode())
    with pytest.raises(ValueError, match=f"log.csv: line {line}: "):
        read_prediction_log(path)


def test_prediction_log_non_finite_cell_names_its_line(tmp_path):
    path = tmp_path / "log.csv"
    path.write_bytes(GOLDEN_LOG.replace("1.000000000000e-07\r\n", "nan\r\n").encode())
    with pytest.raises(ValueError, match="line 6: record 4: non-finite"):
        read_prediction_log(path)


@pytest.mark.parametrize(
    "line, old, new",
    [
        (1, b"sample_id", b"sample\xffid"),  # header not UTF-8
        (3, b"3,2,1,", b"3,2,\xff1,"),  # row not UTF-8
        (2, b"7,0,0,", b"99999999999999999999,0,0,"),  # sample_id beyond int64
    ],
)
def test_prediction_log_bad_bytes_and_int64_overflow_name_their_line(
    tmp_path, line, old, new
):
    path = tmp_path / "log.csv"
    path.write_bytes(GOLDEN_LOG.encode().replace(old, new, 1))
    with pytest.raises(ValueError, match=f"log.csv: line {line}: "):
        read_prediction_log(path)


def _exact_ties(d: int):
    """Odd multiples of 2**-(13 + d) in [10**-d, 10**(1 - d)): each has 14
    significant digits ending in 5, an exact tie at 13 digits."""
    j = 13 + d
    lo = -(-(2**j) // 10**d)
    hi = -(-(10 * 2**j) // 10**d) - 1
    return st.integers(lo // 2, (hi - 1) // 2).map(lambda t: (2 * t + 1) / 2**j)


_BIN_EDGES = [k / 10 for k in range(11)]
_CELLS = st.one_of(
    st.sampled_from(
        [0.0, 1.0, -1e-12, 5e-324, 1e-11, 0.99999999999995]
        + _BIN_EDGES
        + [math.nextafter(edge, t) for edge in _BIN_EDGES for t in (0.0, 1.0)]
    ),
    st.integers(1, 7).flatmap(_exact_ties),
    st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(
    n_classes=st.integers(2, 8),
    rows=st.lists(
        st.tuples(_CELLS, _CELLS, st.integers(0, 10**14), st.integers(0, 7)),
        min_size=1,
        max_size=12,
    ),
)
def test_prediction_log_text_matches_per_cell_formatting(n_classes, rows):
    # Each row puts a drawn cell x and 1 - x in two classes and a second
    # drawn cell in the uncertainty column.
    probs = np.zeros((len(rows), n_classes))
    for i, (x, _, _, shift) in enumerate(rows):
        probs[i, shift % n_classes] = x
        probs[i, (shift + 1) % n_classes] = 1.0 - x
    pred = np.argmax(probs, axis=1)
    records = Predictions(
        sample_id=[sid for _, _, sid, _ in rows],
        true_label=[shift % n_classes for *_, shift in rows],
        pred_label=pred,
        confidence=probs[np.arange(len(rows)), pred],
        uncertainty=[u for _, u, _, _ in rows],
        probs=probs,
    )
    assert "".join(prediction_log_text(records)) == naive_prediction_log(records)


def _float_columns(probs):
    conf = probs.max(axis=1)
    return np.column_stack([conf, 1.0 - conf, probs])


def test_prediction_log_fast_path_covers_dirichlet_and_one_hot_rows():
    rng = np.random.default_rng(3)
    _, exact = reports._float_cells(_float_columns(rng.dirichlet(np.ones(4), 5000)))
    assert np.mean(~exact) < 0.01
    one_hot = np.eye(4)[rng.integers(0, 4, 5000)]
    _, exact = reports._float_cells(_float_columns(one_hot))
    assert exact.all()


def test_prediction_log_text_matches_per_cell_formatting_across_blocks():
    records = random_records(np.random.default_rng(5), 5000, 5)  # many blocks
    assert "".join(prediction_log_text(records)) == naive_prediction_log(records)


def _peak_above_current(call):
    """call() and the most traced memory it held beyond what was live."""
    live, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    result = call()
    return result, tracemalloc.get_traced_memory()[1] - live


def test_prediction_log_io_memory_is_bounded(tmp_path):
    records = random_records(np.random.default_rng(4), 20000, 4)
    path = tmp_path / "log.csv"
    tracemalloc.start()
    try:
        text, write_peak = _peak_above_current(lambda: prediction_log_text(records))
        _, commit_peak = _peak_above_current(lambda: commit_artifacts([(path, text)]))
        loaded, read_peak = _peak_above_current(lambda: read_prediction_log(path))
    finally:
        tracemalloc.stop()
    columns = ("sample_id", "true_label", "pred_label", "confidence", "uncertainty")
    arrays = loaded.probs.nbytes + sum(getattr(loaded, c).nbytes for c in columns)
    assert write_peak <= 2.5 * len(text)
    assert commit_peak <= 0.25 * len(text)
    assert read_peak <= 3 * arrays


def _unchecked(**columns) -> Predictions:
    """Predictions that skip validation, to reach cells no valid log has."""
    records = object.__new__(Predictions)
    for name, column in columns.items():
        object.__setattr__(records, name, np.asarray(column))
    return records


_ODD_IDS = [-(2**63), 2**63 - 1, -1, 0, 10**15, 7]


@pytest.mark.parametrize(
    "first, second",
    [
        (0.0, 1.0),  # zeros
        (-1e-10, 1.0 + 1e-10),  # a negative cell
        (-0.0, 1.0),  # a negative zero
        (1e-300, 1.0 - 1e-300),  # a three-digit negative exponent
        (9.99999999999995e-100, 1.0),  # rounds up to a two-digit exponent
        (0.25, 0.75),
    ],
)
def test_prediction_log_length_is_the_file_size(tmp_path, first, second):
    n = len(_ODD_IDS)
    probs = np.tile([first, second], (n, 1))
    records = Predictions(
        sample_id=_ODD_IDS,
        true_label=np.arange(n) % 2,
        pred_label=np.ones(n, dtype=np.int64),
        confidence=probs[:, 1],
        uncertainty=probs[:, 0],
        probs=probs,
    )
    path = tmp_path / "log.csv"
    commit_artifacts([(path, prediction_log_text(records))])
    text = prediction_log_text(records)
    assert len(text) == path.stat().st_size == len("".join(text))


def test_prediction_log_length_counts_cells_no_valid_log_has(tmp_path):
    # Each row has one odd value, in its confidence and first probability.
    values = np.array(
        [1e200, -1e200, 9.99999999999999e99, 1e100, 1e-100, -3.5, 5e-324, 0.5]
    )
    n = values.size
    records = _unchecked(
        sample_id=np.arange(n, dtype=np.int64) - 4,
        true_label=np.zeros(n, dtype=np.int64),
        pred_label=np.full(n, 12345, dtype=np.int64),
        confidence=values,
        uncertainty=np.full(n, 0.5),
        probs=np.column_stack([values, np.ones(n)]),
    )
    path = tmp_path / "log.csv"
    commit_artifacts([(path, prediction_log_text(records))])
    assert path.read_bytes().decode("ascii") == naive_prediction_log(records)
    assert len(prediction_log_text(records)) == path.stat().st_size


def test_read_log_columns_are_frozen_views_of_one_table(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("".join(prediction_log_text(random_records(np.random.default_rng(6), 50, 3))))
    loaded = read_prediction_log(path)
    table = loaded.probs.base
    assert isinstance(table, np.ndarray) and table.dtype.names
    assert not table.flags.writeable
    for name in ("sample_id", "true_label", "pred_label", "confidence", "uncertainty"):
        column = getattr(loaded, name)
        assert not column.flags.writeable, name
        assert column.base is table, name
    assert not loaded.probs.flags.writeable


def test_report_json_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    records = random_records(rng, 30, 3)
    report = calibration_report(records, n_bins=5)
    path = tmp_path / "report.json"
    commit_artifacts([(path, report_json_text(report, meta={"seed": 3}))])
    loaded = json.loads(path.read_text())
    for key, value in report.metric_dict().items():
        assert abs(loaded[key] - value) < 1e-9
    assert loaded["n_bins"] == 5
    assert loaded["n_samples"] == 30
    assert loaded["meta"]["seed"] == 3
    assert loaded["bins"]["fixed"]["scheme"] == "fixed"
    assert len(loaded["bins"]["adaptive"]["count"]) == 5


def test_report_payload_orders_metrics_first():
    records = binary_records([0.9, 0.4], [True, False])
    payload = report_payload(calibration_report(records, n_bins=2))
    keys = list(payload)
    assert keys[:6] == ["bacc", "ece", "aece", "mce", "oe", "brier"]
    assert json.dumps(payload)  # payload must be JSON-serializable as-is


def test_reliability_csv_lists_only_occupied_bins():
    records = binary_records([0.95, 0.9, 0.2], [True, False, False])
    table = reliability_bins(records, n_bins=10, scheme="fixed")
    text = reliability_csv_text(table)
    lines = text.strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,mean_conf,accuracy"
    assert len(lines) == 3  # bins [0.2, 0.3) and [0.9, 1.0] are occupied
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert counts == [1, 2]


def test_reliability_svg_is_wellformed_and_annotated():
    records = binary_records([0.95, 0.7, 0.3], [True, True, False])
    for scheme in ("fixed", "adaptive"):
        table = reliability_bins(records, n_bins=3, scheme=scheme)
        text = reliability_svg_text(table)
        root = ET.fromstring(text)  # raises on malformed XML
        assert root.tag.endswith("svg")
        assert "<rect" in text and "<line" in text
        assert scheme in text


def test_atomic_write_replaces_existing_content(tmp_path):
    path = tmp_path / "file.txt"
    commit_artifacts([(path, "first")])
    commit_artifacts([(path, "second")])
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


def test_atomic_write_failure_leaves_no_tmp(tmp_path):
    missing_dir = tmp_path / "absent" / "file.txt"
    with pytest.raises(OSError):
        commit_artifacts([(missing_dir, "content")])
    assert list(tmp_path.iterdir()) == []


def test_commit_artifacts_is_all_or_nothing(tmp_path):
    good_a = tmp_path / "a.txt"
    good_b = tmp_path / "b.txt"
    commit_artifacts([(good_a, "aaa"), (good_b, "bbb")])
    assert good_a.read_text() == "aaa"
    assert good_b.read_text() == "bbb"

    target = tmp_path / "out"
    target.mkdir()
    ok = target / "ok.txt"
    bad = target / "nope" / "deep.txt"  # parent missing: staging fails
    with pytest.raises(OSError):
        commit_artifacts([(ok, "data"), (bad, "data")])
    assert list(target.iterdir()) == []  # nothing staged or committed survives


def test_streamed_entry_that_fails_partway_commits_nothing(tmp_path):
    names = ["a.csv", "b.csv", "c.json"]
    for name in names:
        (tmp_path / name).write_text(f"old {name}")

    def failing():
        yield "new b, first piece\n"
        yield "new b, second piece\n"
        raise RuntimeError("formatting failed")

    log = prediction_log_text(random_records(np.random.default_rng(9), 600, 3))
    plan = [
        (tmp_path / "a.csv", log),
        (tmp_path / "b.csv", failing()),
        (tmp_path / "c.json", "new c"),
    ]
    with pytest.raises(RuntimeError, match="formatting failed"):
        commit_artifacts(plan)
    assert sorted(p.name for p in tmp_path.iterdir()) == names  # no *.tmp left
    for name in names:
        assert (tmp_path / name).read_text() == f"old {name}"


def test_committed_files_get_the_mode_open_gives(tmp_path):
    reference = tmp_path / "reference.txt"
    reference.write_text("x")
    path = tmp_path / "committed.txt"
    commit_artifacts([(path, "x")])
    assert path.stat().st_mode == reference.stat().st_mode


def test_concurrent_commits_to_one_directory_never_collide(tmp_path):
    writers, rounds = 4, 50  # more threads than cores, so commits interleave
    names = ["a.csv", "b.json"]
    texts = {w: f"writer {w}\n" * 2000 for w in range(writers)}
    errors = []

    def commit(w):
        try:
            for _ in range(rounds):
                commit_artifacts([(tmp_path / n, texts[w]) for n in names])
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=commit, args=(w,)) for w in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(os.listdir(tmp_path)) == names  # no temporary file left
    for name in names:
        assert (tmp_path / name).read_text() in texts.values()
