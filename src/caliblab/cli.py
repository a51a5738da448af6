"""Command-line interface.

Subcommands: train, evaluate, grid, ensemble, multiseed, diagram. Commands
that produce files take ``--out``; when omitted, the directory comes from
the CALIBLAB_OUT environment variable, falling back to the current
directory. Artifact writing is all-or-nothing: a failing command exits
nonzero without leaving partial files behind.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, config_digest, dump_config, load_config
from .datasets import make_dataset
from .harness import (
    TrainingError,
    ensemble,
    grid_search,
    multi_seed,
    train,
)
from .metrics import calibration_report, reliability_bins
from .reports import (
    commit_artifacts,
    prediction_log_text,
    read_prediction_log,
    reliability_csv_text,
    reliability_svg_text,
    report_json_text,
    report_payload,
)

ENV_OUT_DIR = "CALIBLAB_OUT"


def _resolve_out(args) -> Path:
    out = Path(args.out if args.out is not None else os.environ.get(ENV_OUT_DIR, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    loaded = load_config(args.config)
    dataset = make_dataset(loaded.data)
    result = train(loaded.training, dataset, n_bins=args.bins)
    report = result.report
    meta = {
        "config_digest": config_digest(loaded.training, loaded.data),
        "seed": result.seed,
        "steps": result.steps,
        "wall_time_s": result.wall_time_s,
        "params_digest": result.params_digest,
    }
    out = _resolve_out(args)
    commit_artifacts(
        [
            (out / "predictions.csv", prediction_log_text(result.records)),
            (out / "report.json", report_json_text(report, meta)),
        ]
    )
    print(
        f"wrote {out / 'predictions.csv'} and {out / 'report.json'} "
        f"(bacc={report.bacc:.4f}, ece={report.ece:.4f})"
    )
    return 0


def cmd_evaluate(args) -> int:
    records = read_prediction_log(args.log)
    report = calibration_report(records, n_bins=args.bins)
    meta = {"source_log": str(args.log)}
    sys.stdout.write(report_json_text(report, meta))
    return 0


def cmd_grid(args) -> int:
    loaded = load_config(args.config)
    if not loaded.grid:
        raise ConfigError("config file has no [grid] section to sweep")
    dataset = make_dataset(loaded.data)
    result = grid_search(loaded.training, dataset, loaded.grid, n_bins=args.bins)

    keys = list(loaded.grid.keys())
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(keys + ["val_bacc", "val_ece"])
    for cand in result.trace:
        row = [str(cand.overrides[k]) for k in keys]
        row += [f"{cand.val_bacc:.12e}", f"{cand.val_ece:.12e}"]
        writer.writerow(row)

    out = _resolve_out(args)
    commit_artifacts(
        [
            (out / "trace.csv", buf.getvalue()),
            (out / "best.ini", dump_config(result.best, loaded.data)),
        ]
    )
    best = ", ".join(f"{k}={v}" for k, v in result.best_overrides.items())
    print(f"wrote {out / 'trace.csv'} and {out / 'best.ini'} (best: {best})")
    return 0


def cmd_ensemble(args) -> int:
    if len(args.logs) < 2:
        raise ValueError("ensemble needs at least two prediction logs")
    # A generator, so that ensemble holds one parsed log at a time.
    combined = ensemble(read_prediction_log(p) for p in args.logs)
    report = calibration_report(combined, n_bins=args.bins)
    meta = {"source_logs": [str(p) for p in args.logs]}
    out = _resolve_out(args)
    commit_artifacts(
        [
            (out / "ensemble_predictions.csv", prediction_log_text(combined)),
            (out / "ensemble_report.json", report_json_text(report, meta)),
        ]
    )
    print(
        f"wrote {out / 'ensemble_predictions.csv'} and "
        f"{out / 'ensemble_report.json'} (bacc={report.bacc:.4f}, ece={report.ece:.4f})"
    )
    return 0


def cmd_multiseed(args) -> int:
    if args.seeds < 2:
        raise ValueError("--seeds must be at least 2")
    loaded = load_config(args.config)
    dataset = make_dataset(loaded.data)
    agg = multi_seed(loaded.training, dataset, args.seeds, n_bins=args.bins)

    digest = config_digest(loaded.training, loaded.data)
    payload = {
        "seeds": agg.seeds,
        "mean": agg.mean,
        "std": agg.std,
        "per_seed": [
            {"seed": run.seed, **run.report.metric_dict()} for run in agg.runs
        ],
        "ensemble": report_payload(agg.ensemble_report, {"config_digest": digest}),
        "meta": {"config_digest": digest, "n_bins": args.bins},
    }
    out = _resolve_out(args)
    plan = [
        (
            out / f"predictions_seed{run.seed}.csv",
            prediction_log_text(run.records),
        )
        for run in agg.runs
    ]
    plan.append((out / "aggregate.json", json.dumps(payload, indent=2) + "\n"))
    commit_artifacts(plan)
    print(
        f"wrote {len(agg.runs)} prediction logs and {out / 'aggregate.json'} "
        f"(mean ece={agg.mean['ece']:.4f} +- {agg.std['ece']:.4f})"
    )
    return 0


def cmd_diagram(args) -> int:
    records = read_prediction_log(args.log)
    table = reliability_bins(records, n_bins=args.bins, scheme=args.scheme)
    out = _resolve_out(args)
    commit_artifacts(
        [
            (out / "reliability.csv", reliability_csv_text(table)),
            (out / "reliability.svg", reliability_svg_text(table)),
        ]
    )
    print(f"wrote {out / 'reliability.csv'} and {out / 'reliability.svg'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caliblab",
        description="Train, evaluate, and calibrate small uncertainty-aware classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument(
            "--out",
            default=None,
            help=f"output directory (default: ${ENV_OUT_DIR} or current directory)",
        )

    def add_bins(p):
        p.add_argument("--bins", type=int, default=10, help="number of confidence bins")

    p = sub.add_parser("train", help="train one model and write its artifacts")
    p.add_argument("--config", required=True, help="path to a config file")
    add_out(p)
    add_bins(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a prediction log to JSON on stdout")
    p.add_argument("log", help="prediction log CSV")
    add_bins(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid", help="exhaustive sweep over the [grid] section")
    p.add_argument("--config", required=True, help="path to a config file")
    add_out(p)
    add_bins(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ensemble", help="average several prediction logs")
    p.add_argument("logs", nargs="+", help="two or more prediction log CSVs")
    add_out(p)
    add_bins(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("multiseed", help="repeat a run over several seeds")
    p.add_argument("--config", required=True, help="path to a config file")
    p.add_argument("--seeds", type=int, required=True, help="number of seeds (>= 2)")
    add_out(p)
    add_bins(p)
    p.set_defaults(func=cmd_multiseed)

    p = sub.add_parser("diagram", help="reliability diagram CSV + SVG from a log")
    p.add_argument("--log", required=True, help="prediction log CSV")
    p.add_argument(
        "--scheme",
        choices=("fixed", "adaptive"),
        default="fixed",
        help="binning scheme",
    )
    add_out(p)
    add_bins(p)
    p.set_defaults(func=cmd_diagram)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TrainingError, ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
