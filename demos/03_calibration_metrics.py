"""Calibration metrics and reliability diagrams from prediction records.

Fabricates an overconfident model, walks through the binned calibration
metrics (ECE, AECE, MCE, OE), and writes a reliability diagram as CSV and
SVG next to this script.
"""

from pathlib import Path

import numpy as np

from caliblab.metrics import (
    PredictionRecord,
    Predictions,
    calibration_report,
    reliability_bins,
)
from caliblab.reports import reliability_csv_text, reliability_svg_text

rng = np.random.default_rng(42)

# An overconfident binary model: it claims ~0.9 confidence but is right
# only ~75% of the time.
n = 500
conf = rng.uniform(0.75, 0.99, size=n)
correct = rng.random(n) < 0.75
records = Predictions.from_records([
    PredictionRecord(
        sample_id=i,
        true_label=0 if correct[i] else 1,
        pred_label=0,
        confidence=float(conf[i]),
        uncertainty=float(1.0 - conf[i]),
        probs=np.array([conf[i], 1.0 - conf[i]]),
    )
    for i in range(n)
])

report = calibration_report(records, n_bins=10)
print("metrics for a deliberately overconfident model:")
for key, value in report.metric_dict().items():
    print(f"  {key:6s} {value:.4f}")

table = reliability_bins(records, n_bins=10, scheme="fixed")
print("\nfixed-width reliability bins (occupied only):")
print(f"{'bin':>12s} {'count':>6s} {'conf':>7s} {'acc':>7s} {'gap':>7s}")
for i in range(10):
    if table.count[i] == 0:
        continue
    lo, hi = table.lower[i], table.upper[i]
    gap = table.mean_confidence[i] - table.accuracy[i]
    print(
        f"[{lo:.2f},{hi:.2f}) {int(table.count[i]):6d} "
        f"{table.mean_confidence[i]:7.3f} "
        f"{table.accuracy[i]:7.3f} {gap:+7.3f}"
    )

out_dir = Path(__file__).resolve().parent
(out_dir / "reliability.csv").write_text(reliability_csv_text(table))
(out_dir / "reliability.svg").write_text(reliability_svg_text(table))
print("\nwrote reliability.csv and reliability.svg")
print("bars below the identity line are bins where confidence ran ahead")
print("of accuracy; the weighted average of those gaps is the ECE.")
