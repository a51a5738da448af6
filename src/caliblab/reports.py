"""File formats: prediction logs, report JSON, reliability CSV and SVG.

Floats in CSV artifacts are printed with 13 significant digits so logs
round-trip far inside the 1e-9 tolerances used downstream, and identical
runs produce byte-identical files. Prediction logs are written with one
format string per row and read in bulk with numpy's C parser. All writers
go through ``commit_artifacts``, which stages each file under a unique
temporary name in the target directory and then renames it into place, so
a crash never leaves a partially written artifact at the target path and
concurrent writers never share a temporary file.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .metrics import BinTable, CalibrationReport, Predictions, RecordError

_FLOAT_FMT = "{:.12e}"

_LOG_FIXED_FIELDS = [
    "sample_id",
    "true_label",
    "pred_label",
    "confidence",
    "uncertainty",
]
_LOG_INT_FIELDS = 3  # sample_id, true_label, pred_label


# -- prediction logs -----------------------------------------------------------


def log_header(n_classes: int) -> list[str]:
    return _LOG_FIXED_FIELDS + [f"p_{c}" for c in range(n_classes)]


def prediction_log_text(records: Predictions) -> str:
    """The log as CSV text with CRLF line ends, as ``csv.writer`` writes it."""
    n_classes = records.n_classes
    # "%.12e" formats a float exactly as _FLOAT_FMT does.
    row = "%d,%d,%d,%.12e,%.12e" + ",%.12e" * n_classes + "\r\n"
    rows = zip(
        records.sample_id.tolist(),
        records.true_label.tolist(),
        records.pred_label.tolist(),
        records.confidence.tolist(),
        records.uncertainty.tolist(),
        *records.probs.T.tolist(),
    )
    header = ",".join(log_header(n_classes)) + "\r\n"
    return header + "".join(map(row.__mod__, rows))


def _log_dtype(n_classes: int) -> np.dtype:
    fields = [(name, np.int64) for name in _LOG_FIXED_FIELDS[:_LOG_INT_FIELDS]]
    fields += [(name, np.float64) for name in _LOG_FIXED_FIELDS[_LOG_INT_FIELDS:]]
    return np.dtype(fields + [("probs", np.float64, (n_classes,))])


def _malformed(path, body: bytes, width: int, reason) -> ValueError:
    """The error for a log body the bulk parser rejected: re-scan the rows
    one at a time and name the first malformed line, else give `reason`."""
    for lineno, row in enumerate(csv.reader(body.decode("utf-8").splitlines()), 2):
        if len(row) != width:
            return ValueError(
                f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
            )
        try:
            for cell in row[:_LOG_INT_FIELDS]:
                int(cell)
            for cell in row[_LOG_INT_FIELDS:]:
                float(cell)
        except ValueError as exc:
            return ValueError(f"{path}: line {lineno}: {exc}")
    return ValueError(f"{path}: {reason}")


def read_prediction_log(path) -> Predictions:
    """Parse a prediction log; malformed content names the 1-based line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise ValueError(f"{path}: line 1: empty file")
    first, _, body = data.partition(b"\n")
    header = next(csv.reader([first.decode("utf-8")]))
    n_classes = len(header) - len(_LOG_FIXED_FIELDS)
    if n_classes < 2 or header != log_header(n_classes):
        raise ValueError(f"{path}: line 1: bad header")
    if not body:
        raise ValueError(f"{path}: no data rows")
    try:
        table = np.loadtxt(
            io.BytesIO(body),
            delimiter=",",
            dtype=_log_dtype(n_classes),
            comments=None,
            ndmin=1,
            encoding="utf-8",
        )
    except ValueError as exc:
        raise _malformed(path, body, len(header), exc) from None
    # loadtxt skips blank lines; in a log every line is a row.
    if table.shape[0] != body.count(b"\n") + (not body.endswith(b"\n")):
        raise _malformed(path, body, len(header), "blank line")
    try:
        return Predictions(
            sample_id=table["sample_id"],
            true_label=table["true_label"],
            pred_label=table["pred_label"],
            confidence=table["confidence"],
            uncertainty=table["uncertainty"],
            probs=table["probs"],
        )
    except RecordError as exc:
        raise ValueError(f"{path}: line {exc.index + 2}: {exc}") from exc


# -- report JSON -----------------------------------------------------------------


def _table_payload(table: BinTable) -> dict:
    return {
        "scheme": table.scheme,
        "lower": [float(v) for v in table.lower],
        "upper": [float(v) for v in table.upper],
        "count": [int(v) for v in table.count],
        "mean_confidence": [float(v) for v in table.mean_confidence],
        "accuracy": [float(v) for v in table.accuracy],
    }


def report_payload(report: CalibrationReport, meta: dict | None = None) -> dict:
    payload = {
        "bacc": report.bacc,
        "ece": report.ece,
        "aece": report.aece,
        "mce": report.mce,
        "oe": report.oe,
        "brier": report.brier,
        "n_bins": report.n_bins,
        "n_samples": report.n_samples,
        "bins": {
            "fixed": _table_payload(report.fixed_bins),
            "adaptive": _table_payload(report.adaptive_bins),
        },
        "meta": meta or {},
    }
    return payload


def report_json_text(report: CalibrationReport, meta: dict | None = None) -> str:
    return json.dumps(report_payload(report, meta), indent=2) + "\n"


# -- reliability diagram ----------------------------------------------------------


def reliability_csv_text(table: BinTable) -> str:
    """One row per non-empty bin: bin_lo,bin_hi,count,mean_conf,accuracy."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["bin_lo", "bin_hi", "count", "mean_conf", "accuracy"])
    for k in range(table.n_bins):
        if table.count[k] == 0:
            continue
        writer.writerow(
            [
                _FLOAT_FMT.format(table.lower[k]),
                _FLOAT_FMT.format(table.upper[k]),
                int(table.count[k]),
                _FLOAT_FMT.format(table.mean_confidence[k]),
                _FLOAT_FMT.format(table.accuracy[k]),
            ]
        )
    return buf.getvalue()


_SVG_SIZE = 440
_SVG_PAD = 50


def _sx(value: float) -> float:
    return _SVG_PAD + value * (_SVG_SIZE - 2 * _SVG_PAD)


def _sy(value: float) -> float:
    return _SVG_SIZE - _SVG_PAD - value * (_SVG_SIZE - 2 * _SVG_PAD)


def reliability_svg_text(table: BinTable) -> str:
    """Reliability diagram: accuracy bars per bin plus the identity diagonal."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect x="0" y="0" width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
        f'<rect x="{_sx(0):.1f}" y="{_sy(1):.1f}" '
        f'width="{_sx(1) - _sx(0):.1f}" height="{_sy(0) - _sy(1):.1f}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for k in range(table.n_bins):
        if table.count[k] == 0:
            continue
        lo = max(float(table.lower[k]), 0.0)
        hi = min(float(table.upper[k]), 1.0)
        acc = float(table.accuracy[k])
        conf = float(table.mean_confidence[k])
        x = _sx(lo)
        width = max(_sx(hi) - _sx(lo), 1.0)
        parts.append(
            f'<rect x="{x:.2f}" y="{_sy(acc):.2f}" width="{width:.2f}" '
            f'height="{max(_sy(0) - _sy(acc), 0.0):.2f}" '
            'fill="#4878cf" fill-opacity="0.7" stroke="#2a4d8f" stroke-width="0.5"/>'
        )
        parts.append(
            f'<line x1="{x:.2f}" y1="{_sy(conf):.2f}" x2="{x + width:.2f}" '
            f'y2="{_sy(conf):.2f}" stroke="#c44e52" stroke-width="1.5"/>'
        )
    parts.append(
        f'<line x1="{_sx(0):.1f}" y1="{_sy(0):.1f}" x2="{_sx(1):.1f}" '
        f'y2="{_sy(1):.1f}" stroke="#222" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    parts.append(
        f'<text x="{_sx(0.5):.1f}" y="{_SVG_SIZE - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">confidence</text>'
    )
    parts.append(
        f'<text x="14" y="{_sy(0.5):.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 14 {_sy(0.5):.1f})">accuracy</text>'
    )
    parts.append(
        f'<text x="{_sx(0):.1f}" y="{_SVG_SIZE - 32}" font-family="sans-serif" '
        f'font-size="11">scheme={table.scheme} bins={table.n_bins} '
        f'n={table.n_samples}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- multi-artifact commit ---------------------------------------------------------


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# mkstemp creates files that only their owner can read; committed artifacts
# get the mode open() would have given them.
_ARTIFACT_MODE = 0o666 & ~_umask()


def commit_artifacts(plan: list[tuple[object, str]]) -> None:
    """Write several artifacts with all-or-nothing semantics.

    Each entry is (path, text). Every payload is staged to a temporary file
    with a unique name in the target's directory first; only after all
    stages succeed are the targets renamed into place. Writers that commit
    to one directory at the same time never touch each other's temporary
    files, and each target ends up holding one writer's complete text.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        for path, text in plan:
            path = Path(path)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name + ".", suffix=".tmp"
            )
            staged.append((Path(tmp), path))
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.chmod(tmp, _ARTIFACT_MODE)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
