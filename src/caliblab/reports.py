"""File formats: prediction logs, report JSON, reliability CSV and SVG.

Floats in CSV artifacts are printed with 13 significant digits so logs
round-trip far inside the 1e-9 tolerances used downstream, and identical
runs produce byte-identical files.

The prediction-log writer returns the whole log as one string, but it
formats a fixed-size block of rows at a time: one vectorized pass turns the
block's float cells into the exact bytes ``%.12e`` gives, and Python formats
only each row's three integers (and, with ``%``, the rare row of negative
or out-of-range floats). The reader takes the header with ``readline`` and
lets numpy's C parser read the body straight from the open file, so it
never holds the file's text; the parsed table is frozen and becomes the
columns of the returned ``Predictions``, so it is held once. A failed parse
re-reads the file to name the first bad line.

All writers go through ``commit_artifacts``, which stages each file under a
unique temporary name in the target directory, writing it in bounded
slices, and then renames it into place, so a crash never leaves a
partially written artifact at the target path and concurrent writers never
share a temporary file.
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


# Each float cell is written as ",d.dddddddddddde+XX": 19 bytes whenever the
# value is non-negative and its decimal exponent has two digits.
_CELL = 19
_BLOCK_ROWS = 2048  # bounds the writer's working memory, whatever the log size
_POW10 = np.array([float(10**k) for k in range(23)])  # exact up to 10**22
_SPLIT = 2.0**27 + 1  # Veltkamp splitting constant for float64


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = hi + lo exactly, each half with at most 26 significant bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


# Entry i holds the ASCII digits of i, zero-padded, read as one integer, so
# that one gather fills a whole group of digits. The four-digit table is
# paired from the two-digit one, which keeps its build free of large
# temporaries that would stay in the heap.
_DIGITS2 = np.frombuffer("".join(map("{:02d}".format, range(100))).encode(), np.uint16)
_DIGITS4 = np.empty((100, 100, 2), dtype=np.uint16)
_DIGITS4[..., 0] = _DIGITS2[:, None]
_DIGITS4[..., 1] = _DIGITS2
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()


def _put(cells: np.ndarray, start: int, table: np.ndarray, index: np.ndarray):
    """Write table[index] into bytes start.. of every cell."""
    stop = start + table.itemsize
    cells[..., start:stop].view(table.dtype)[..., 0] = table[index]


def _float_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of `values` as the bytes of ``",%.12e" * n_columns``, in an
    (n, n_columns * 19) uint8 matrix, and a mask of the rows it got exact.

    The 13 significant digits of a cell are round(|x| * 10**k) for the k
    that puts them in [1e12, 1e13). The product is rounded once, and its
    rounding error is recovered exactly (Dekker's two-product), so the
    nearest integer, ties to even, is decided on the exact product: the
    correctly rounded mantissa that ``%`` prints. Zeros are exact. Rows with
    a negative cell, or a cell outside the exact range of 10**k
    (|x| < 1e-10 or |x| >= 1e13), are left out of the mask.
    """
    n, width = values.shape
    a = np.abs(values)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.minimum(np.maximum(12.0 - np.floor(np.log10(a)), 0.0), 22.0)
        k = k.astype(np.intp)
        y = a * _POW10[k]
        # log10 can be off by one next to a power of ten.
        k += y < 1e12
        k -= y >= 1e13
        np.minimum(np.maximum(k, 0), 22, out=k)
        y = a * _POW10[k]
        a_hi, a_lo = _split(a)
        p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
        err = ((a_hi * p_hi - y) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    # Now a * 10**k == y + err exactly.
    zero = a == 0.0
    fast = zero | ((y >= 1e12) & (y < 1e13))
    fast &= ~np.signbit(values)
    # Other cells get zeros, so that their digits (replaced later) stay in range.
    y = np.where(fast, y, 0.0)
    floor = np.floor(y)
    above_half = (y - floor - 0.5) + np.where(fast, err, 0.0)
    mant = floor.astype(np.int64)
    mant += (above_half > 0.0) | ((above_half == 0.0) & (mant & 1 == 1))
    carry = mant == 10**13  # rounded up to the next power of ten
    mant[carry] = 10**12
    exp = np.where(zero, 0, 12 - k + carry)

    high = mant // 10**8  # the leading digit and the next four
    low = mant - high * 10**8
    lead = high // 10**4
    mid = low // 10**4
    cells = np.empty((n, width, _CELL), dtype=np.uint8)
    cells[..., 0] = ord(",")
    cells[..., 1] = lead + ord("0")
    cells[..., 2] = ord(".")
    _put(cells, 3, _DIGITS4, high - lead * 10**4)
    _put(cells, 7, _DIGITS4, mid)
    _put(cells, 11, _DIGITS4, low - mid * 10**4)
    cells[..., 15] = ord("e")
    cells[..., 16] = np.where(exp < 0, ord("-"), ord("+"))
    _put(cells, 17, _DIGITS2, np.abs(exp))
    return cells.reshape(n, width * _CELL), fast.all(axis=1)


def _float_fields(values: np.ndarray) -> list[bytes]:
    """Each row of `values` as the bytes of ``",%.12e" * n_columns``: from
    ``_float_cells``, or formatted with ``%`` where that is not exact."""
    cells, exact = _float_cells(values)
    fields = cells.view(f"S{cells.shape[1]}").ravel().tolist()
    slow = ",%.12e" * values.shape[1]
    for i in np.flatnonzero(~exact).tolist():
        fields[i] = (slow % tuple(values[i].tolist())).encode("ascii")
    return fields


def prediction_log_text(records: Predictions) -> str:
    """The log as CSV text with CRLF line ends, as ``csv.writer`` writes it.

    Rows are formatted a block at a time: the float cells of a block in one
    vectorized pass (``_float_fields``), then one ``%`` call per row for
    the three integers.
    """
    blocks = [",".join(log_header(records.n_classes)) + "\r\n"]
    for start in range(0, len(records), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        values = np.concatenate(
            [
                records.confidence[rows, None],
                records.uncertainty[rows, None],
                records.probs[rows],
            ],
            axis=1,
        )
        block = zip(
            records.sample_id[rows].tolist(),
            records.true_label[rows].tolist(),
            records.pred_label[rows].tolist(),
            _float_fields(values),
        )
        blocks.append(b"".join(map(b"%d,%d,%d%s\r\n".__mod__, block)).decode("ascii"))
    return "".join(blocks)


def _log_dtype(n_classes: int) -> np.dtype:
    fields = [(name, np.int64) for name in _LOG_FIXED_FIELDS[:_LOG_INT_FIELDS]]
    fields += [(name, np.float64) for name in _LOG_FIXED_FIELDS[_LOG_INT_FIELDS:]]
    return np.dtype(fields + [("probs", np.float64, (n_classes,))])


_INT64 = range(-(2**63), 2**63)
_READ_CHUNK = 1 << 16


def _malformed(path, width: int, reason) -> ValueError:
    """The error for a log body the bulk parser rejected: re-read the rows
    one at a time and name the first malformed line, else give `reason`."""
    with open(path, "rb") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, 2):
            try:
                row = next(csv.reader([line.decode("utf-8")]), [])
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                for cell in row[:_LOG_INT_FIELDS]:
                    if int(cell) not in _INT64:
                        raise ValueError(f"integer {cell} is outside the int64 range")
                for cell in row[_LOG_INT_FIELDS:]:
                    float(cell)
            except ValueError as exc:
                return ValueError(f"{path}: line {lineno}: {exc}")
    return ValueError(f"{path}: {reason}")


def _count_lines(fh) -> int:
    """Lines from the file position to the end, a last unterminated one
    included, counted a bounded chunk at a time."""
    lines, last = 0, b"\n"
    for chunk in iter(lambda: fh.read(_READ_CHUNK), b""):
        lines += chunk.count(b"\n")
        last = chunk[-1:]
    return lines + (last != b"\n")


def read_prediction_log(path) -> Predictions:
    """Parse a prediction log; malformed content names the 1-based line.

    The body is parsed straight from the open file, so memory holds the
    table and never the file's text. The table is frozen before it is
    handed on, so the returned columns are read-only views of it, not
    copies.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: line 1: empty file")
        try:
            header = next(csv.reader([first.decode("utf-8")]))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: line 1: {exc}") from None
        n_classes = len(header) - len(_LOG_FIXED_FIELDS)
        if n_classes < 2 or header != log_header(n_classes):
            raise ValueError(f"{path}: line 1: bad header")
        body_start = fh.tell()
        if not fh.peek(1):
            raise ValueError(f"{path}: no data rows")
        try:
            table = np.loadtxt(
                fh,
                delimiter=",",
                dtype=_log_dtype(n_classes),
                comments=None,
                ndmin=1,
                encoding="utf-8",
            )
        except ValueError as exc:
            raise _malformed(path, len(header), exc) from None
        # loadtxt skips blank lines; in a log every line is a row.
        fh.seek(body_start)
        if table.shape[0] != _count_lines(fh):
            raise _malformed(path, len(header), "blank line")
    table.setflags(write=False)
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
_WRITE_CHARS = 1 << 16


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
                # Slices bound the encoded copy that each write makes.
                for start in range(0, len(text), _WRITE_CHARS):
                    fh.write(text[start : start + _WRITE_CHARS])
            os.chmod(tmp, _ARTIFACT_MODE)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
