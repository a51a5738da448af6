"""Self-test of the benchmark: each workload at a tiny size, untraced and
traced, the oracle's power to reject a wrong report, and the refusal to run
without the program's sources.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_at_tiny_size(name, trace):
    report = run.run(name, seed=1, seconds=0.01, trace=trace, size=workloads.TINY)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_PASSES
    table = tracing.PER_LAYER if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m: u for m, u, _ in table
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(np.isfinite(values))
    if not trace:
        assert all(v > 0 for v in values)


def test_tracer_restores_the_program():
    lab = workloads.import_caliblab(ROOT)
    before = (lab.harness.total_loss, lab.cli.calibration_report, lab.Tensor.__add__)
    tracer = tracing.Tracer()
    tracer.install()
    assert lab.harness.total_loss is not before[0]
    assert lab.cli.calibration_report is lab.metrics.calibration_report
    tracer.uninstall()
    assert not tracer.missing
    after = (lab.harness.total_loss, lab.cli.calibration_report, lab.Tensor.__add__)
    assert after == before


def test_logs_hit_every_reachable_bin_and_the_edges(tmp_path):
    ids, labels, logs = oracle.make_logs(seed=5, rows=4000)
    path = tmp_path / "log.csv"
    path.write_text(oracle.log_text(ids, labels, logs[0]), encoding="utf-8", newline="")
    conf = oracle.read_log(path)["conf"]
    assert {0.5, 1.0} <= set(conf.tolist())
    counts = np.bincount(oracle.fixed_bin_index(conf, 10), minlength=10)
    # A 4-class maximum is at least 0.25, so bins 0 and 1 cannot fill.
    assert np.all(counts[2:] > 0)


def test_oracle_rejects_an_ece_off_by_1e_6(tmp_path):
    ids, labels, logs = oracle.make_logs(seed=3, rows=2000)
    path = tmp_path / "log.csv"
    path.write_text(oracle.log_text(ids, labels, logs[0]), encoding="utf-8", newline="")
    lab = workloads.import_caliblab(ROOT)
    report = lab.calibration_report(lab.read_prediction_log(path))
    payload = json.loads(lab.reports.report_json_text(report))
    want = oracle.oracle_report(oracle.read_log(path))
    assert oracle.compare_report(payload, want) == []
    payload["ece"] += 1e-6
    problems = oracle.compare_report(payload, want)
    assert len(problems) == 1 and problems[0].startswith("ece")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "log-100k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
