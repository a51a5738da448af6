"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py --workload configs-24 --seeds 0-9 --seconds 20

Runs ``bench/run.py`` once per seed, one run at a time, and prints for every
metric its median, its quartiles and its spread: the distance between the
quartiles as a share of the median (``statistics.quantiles(values, n=4)``).
With ``--out`` the per-run values and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="a range 0-9 or a list 1,5,7")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the runs and the summary here")
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [
            sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
        # The figures printed in seconds beside the result, for reference.
        printed = {}
        for line in lines[:-1]:
            if line.startswith("metric "):
                name, _, rest = line[len("metric "):].partition(": ")
                if name not in values:
                    printed[name] = float(rest.split()[0])
        runs.append({"seed": seed, "exit": proc.returncode,
                     "correct": result.get("correct"), "metrics": values,
                     "printed": printed})
        shown = {**values, **printed} if args.trace == 0 else {}
        print(f"seed {seed}: exit {proc.returncode} "
              + " ".join(f"{k}={v:.6g}" for k, v in shown.items()), flush=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)

    names = runs[0]["metrics"].keys() if runs else []
    summary = {}
    if len(runs) >= 2:
        summary = {n: summarize([r["metrics"][n] for r in runs]) for n in names}
        for n in ("wall_s", "ref_s"):
            if all(n in r["printed"] for r in runs):
                summary[n] = summarize([r["printed"][n] for r in runs])
    if args.trace == 0:
        for name, s in summary.items():
            print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "trace": args.trace, "runs": runs, "summary": summary},
            indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
