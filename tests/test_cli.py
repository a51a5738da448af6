"""CLI tests: every subcommand end to end, error paths, atomicity, env var."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from caliblab import cli
from caliblab.cli import main
from caliblab.config import load_config
from caliblab.metrics import Predictions
from caliblab.reports import commit_artifacts, prediction_log_text, read_prediction_log

SRC = Path(__file__).resolve().parent.parent / "src"

QUICK = """\
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


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(QUICK)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_train_writes_predictions_and_report(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert run_cli("train", "--config", config_path, "--out", out) == 0
    records = read_prediction_log(out / "predictions.csv")
    assert len(records) == 10  # test split of 100 samples
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["ece"] <= 1.0
    assert report["n_samples"] == 10
    meta = report["meta"]
    assert set(meta) >= {"config_digest", "seed", "steps", "params_digest"}
    assert meta["seed"] == 3
    printed = capsys.readouterr().out
    assert "predictions.csv" in printed and "report.json" in printed


def test_train_reruns_byte_identically(tmp_path, config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("train", "--config", config_path, "--out", out_a) == 0
    assert run_cli("train", "--config", config_path, "--out", out_b) == 0
    assert (out_a / "predictions.csv").read_bytes() == (
        out_b / "predictions.csv"
    ).read_bytes()
    ra = (out_a / "report.json").read_text()
    rb = (out_b / "report.json").read_text()
    # wall time legitimately differs between runs; every other byte agrees
    da, db = json.loads(ra), json.loads(rb)
    da["meta"].pop("wall_time_s")
    db["meta"].pop("wall_time_s")
    assert da == db


def test_evaluate_reproduces_the_written_report(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    run_cli("train", "--config", config_path, "--out", out)
    capsys.readouterr()
    assert run_cli("evaluate", out / "predictions.csv") == 0
    evaluated = json.loads(capsys.readouterr().out)
    stored = json.loads((out / "report.json").read_text())
    for key in ("bacc", "ece", "aece", "mce", "oe", "brier"):
        assert abs(evaluated[key] - stored[key]) < 1e-9
    assert evaluated["meta"]["source_log"].endswith("predictions.csv")


def test_evaluate_respects_bins_flag(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    run_cli("train", "--config", config_path, "--out", out)
    capsys.readouterr()
    assert run_cli("evaluate", out / "predictions.csv", "--bins", "4") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_bins"] == 4
    assert len(payload["bins"]["fixed"]["count"]) == 4


def test_diagram_writes_csv_and_svg(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    run_cli("train", "--config", config_path, "--out", out)
    for scheme in ("fixed", "adaptive"):
        dest = tmp_path / f"diag_{scheme}"
        code = run_cli(
            "diagram",
            "--log",
            out / "predictions.csv",
            "--scheme",
            scheme,
            "--bins",
            "3",
            "--out",
            dest,
        )
        assert code == 0
        csv_text = (dest / "reliability.csv").read_text()
        assert csv_text.startswith("bin_lo,bin_hi,count,mean_conf,accuracy")
        svg_text = (dest / "reliability.svg").read_text()
        assert svg_text.startswith("<svg") and scheme in svg_text


def test_multiseed_and_ensemble_commands(tmp_path, config_path, capsys):
    out = tmp_path / "multi"
    assert run_cli("multiseed", "--config", config_path, "--seeds", "2", "--out", out) == 0
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["seeds"] == [3, 4]
    assert len(agg["per_seed"]) == 2
    assert set(agg["mean"]) == {"bacc", "ece", "aece", "mce", "oe", "brier"}
    assert agg["ensemble"]["n_samples"] == 10
    log_a = out / "predictions_seed3.csv"
    log_b = out / "predictions_seed4.csv"
    assert log_a.exists() and log_b.exists()

    dest = tmp_path / "ens"
    assert run_cli("ensemble", log_a, log_b, "--out", dest) == 0
    combined = read_prediction_log(dest / "ensemble_predictions.csv")
    assert len(combined) == 10
    report = json.loads((dest / "ensemble_report.json").read_text())
    assert len(report["meta"]["source_logs"]) == 2


def test_multiseed_rejects_single_seed(tmp_path, config_path, capsys):
    assert run_cli("multiseed", "--config", config_path, "--seeds", "1") == 1
    assert "at least 2" in capsys.readouterr().err


def test_ensemble_needs_two_logs(tmp_path, config_path, capsys, monkeypatch):
    out = tmp_path / "out"
    run_cli("train", "--config", config_path, "--out", out)
    capsys.readouterr()

    def no_read(path):
        raise AssertionError(f"read {path}")

    # The count is checked before any file is parsed.
    monkeypatch.setattr(cli, "read_prediction_log", no_read)
    assert run_cli("ensemble", out / "predictions.csv") == 1
    err = capsys.readouterr().err
    assert "error: ensemble needs at least two prediction logs" in err


ENSEMBLE_PEAK = """
import contextlib, io, json, sys, tracemalloc
from caliblab.cli import main
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, tracemalloc.get_traced_memory()[1]]))
"""


def test_ensemble_holds_one_input_log_at_a_time(tmp_path):
    # Three 20k-row logs. Holding every log, or a stacked copy of their
    # probabilities, puts the peak near 8 times one log's arrays; folding
    # one log at a time into frozen tables keeps it near 5.
    n, classes = 20_000, 4
    rng = np.random.default_rng(11)
    ids, labels = rng.permutation(n), rng.integers(0, classes, n)
    paths = []
    for j in range(3):
        probs = rng.dirichlet(np.ones(classes), size=n)
        preds = np.argmax(probs, axis=1)
        conf = probs[np.arange(n), preds]
        log = Predictions(
            sample_id=ids,
            true_label=labels,
            pred_label=preds,
            confidence=conf,
            uncertainty=1.0 - conf,
            probs=probs,
        )
        paths.append(tmp_path / f"log{j}.csv")
        commit_artifacts([(paths[-1], prediction_log_text(log))])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["ensemble", *map(str, paths), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", ENSEMBLE_PEAK, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    one_log = n * (5 + classes) * 8  # three int64 and 2 + classes float64 columns
    assert peak <= 6 * one_log, f"peak {peak / one_log:.2f} x one log's arrays"


def test_ensemble_streams_its_log_into_the_commit(tmp_path):
    # The same three 20k-row logs. Formatting the ensemble's log a block at
    # a time while it is written, instead of as one string, keeps the peak
    # at the fold and the report, about 2.2 times one log's arrays.
    n, classes = 20_000, 4
    rng = np.random.default_rng(11)
    ids, labels = rng.permutation(n), rng.integers(0, classes, n)
    paths = []
    for j in range(3):
        probs = rng.dirichlet(np.ones(classes), size=n)
        preds = np.argmax(probs, axis=1)
        conf = probs[np.arange(n), preds]
        log = Predictions(
            sample_id=ids,
            true_label=labels,
            pred_label=preds,
            confidence=conf,
            uncertainty=1.0 - conf,
            probs=probs,
        )
        paths.append(tmp_path / f"log{j}.csv")
        commit_artifacts([(paths[-1], prediction_log_text(log))])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["ensemble", *map(str, paths), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", ENSEMBLE_PEAK, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    one_log = n * (5 + classes) * 8
    assert peak <= 2.5 * one_log, f"peak {peak / one_log:.2f} x one log's arrays"


def test_grid_command_writes_trace_and_best_config(tmp_path, capsys):
    path = tmp_path / "grid.ini"
    path.write_text(QUICK + "\n[grid]\noptimizer.lr = 1e-7, 0.05\n")
    out = tmp_path / "out"
    assert run_cli("grid", "--config", path, "--out", out) == 0
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "optimizer.lr,val_bacc,val_ece"
    assert len(trace) == 3
    best = load_config(out / "best.ini")
    assert best.training.optimizer.lr == 0.05
    assert best.data.samples == 100


def test_grid_without_grid_section_fails_cleanly(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert run_cli("grid", "--config", config_path, "--out", out) == 1
    assert "[grid]" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_config_errors_exit_nonzero_and_name_the_problem(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(QUICK + "\n[loss]\nevidential_kl = 10\n")
    out = tmp_path / "out"
    assert run_cli("train", "--config", bad, "--out", out) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "evidential_kl" in err and "head = enn" in err
    # nothing may be left behind on failure
    assert not out.exists() or list(out.iterdir()) == []


def test_missing_config_file_exits_nonzero(tmp_path, capsys):
    assert run_cli("train", "--config", tmp_path / "absent.ini") == 1
    assert "cannot read" in capsys.readouterr().err


def test_unreadable_log_exits_nonzero(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    assert run_cli("evaluate", missing) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_rejects_a_log_with_a_nan_cell(tmp_path, capsys):
    # Twelve rows whose losing probability is NaN: the report would carry a
    # NaN Brier score, which is not valid JSON.
    rows = ["sample_id,true_label,pred_label,confidence,uncertainty,p_0,p_1"]
    rows += [f"{i},0,0,6.0e-01,4.0e-01,6.0e-01,nan" for i in range(12)]
    log = tmp_path / "nan.csv"
    log.write_text("\r\n".join(rows) + "\r\n")
    assert run_cli("evaluate", log) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nan.csv: line 2: record 0: non-finite" in captured.err


def test_out_dir_env_var_is_honored(tmp_path, config_path, monkeypatch, capsys):
    dest = tmp_path / "from_env"
    monkeypatch.setenv("CALIBLAB_OUT", str(dest))
    assert run_cli("train", "--config", config_path) == 0
    assert (dest / "predictions.csv").exists()
    assert (dest / "report.json").exists()


def test_usage_errors_exit_with_argparse_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["train"])  # --config is required
    assert excinfo.value.code == 2
