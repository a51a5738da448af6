"""Benchmark of caliblab: one command, three workloads, an optional trace.

    python3 bench/run.py --workload configs-24 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` and
the shipped configs are read from ``configs/``. Scratch files go under
``.bench_work/`` and are removed at exit; a traced run keeps its spans in
``.bench_work/traces/``.

A run writes the seed's inputs in a child interpreter, then repeats passes
of the workload's ops for about ``--seconds`` (at least two passes). Set-up
is timed in fresh child interpreters (``bench/child.py``), from starting one
until it has imported caliblab and its dependencies and done the workload's
config parsing and ``make_dataset``. It is repeated before the first pass
and after each pass, each time beside a reference child that only imports
numpy and scipy.special. Every pass must produce the same outputs; the first
pass's outputs are checked against independent references, after the peak
memory is read. With ``--trace 1`` a first pass warms up, then traced and
untraced passes alternate; the traced ones give the per-layer metrics.

Before and after every op and every set-up repetition the run times a
fixed reference kernel (``reference_s``). ``wall_ref`` is one pass in units
of that kernel: the sum of each op's median time over the passes, divided
by the median kernel time of the run. On a shared machine whose speed
swings by half for minutes at a time this ratio stays put while seconds do
not. Process start-up swings in its own way (a fifth between two half
hours at the same kernel speed), so ``setup_s`` is the median set-up
repetition divided by the median reference child, times REF_SETUP_S:
set-up seconds at the state in which the reference child takes 0.45 s.
Raw seconds for both are printed beside them.

The output is an environment block, one line per metric and, as the last
line, a JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when every op and check passed, 1 when one failed and 2
when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().with_name("child.py")
CHILD_TIMEOUT_S = 120
SETUP_REPS = 3  # before the first pass and again after each untraced pass
MIN_PASSES = 2
# The reference child's median time on the 2-core machine the benchmark was
# written on; setup_s is set-up time scaled to that machine state.
REF_SETUP_S = 0.45

# End-to-end metrics: (name, unit, better). Reported on every workload.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_REF_RNG = np.random.default_rng(20240511)
_REF_X = _REF_RNG.standard_normal((16, 64))
_REF_W = _REF_RNG.standard_normal((64, 64)) / 8.0


def reference_s() -> float:
    """Seconds for a fixed kernel shaped like the program's hot path: a tiny
    tape of matmul and relu steps recorded with closures and replayed
    backward, plus dict and string work. It uses no caliblab code, so it
    measures only how fast the machine runs at the moment."""
    start = time.perf_counter()
    for _ in range(40):
        x, tape = _REF_X, []
        for _ in range(5):
            y = np.maximum(x @ _REF_W, 0.0)
            tape.append((x, lambda g, y=y: g * (y > 0.0)))
            x = y / (1.0 + y.sum(axis=1, keepdims=True)) + _REF_X
        g, grads = np.ones_like(x), {}
        for x_in, back in reversed(tape):
            g = back(g) @ _REF_W.T
            grads[id(x_in)] = grads.get(id(x_in), 0.0) + g
        table = {}
        for i in range(200):
            table[i % 31] = (i, str(i % 13))
    return time.perf_counter() - start


def in_child(mode: str, workload: workloads.Workload) -> float:
    """Run one step of `workload` in a fresh interpreter (bench/child.py);
    returns the seconds from starting it to its ready line."""
    argv = [sys.executable, str(CHILD), mode, workload.name, str(workload.seed),
            str(workload.work), workload.size.name]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = any(line == "ready\n" for line in proc.stdout)
        seconds = time.perf_counter() - start
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if not ready or code != 0:
        raise RuntimeError(f"bench/child.py {mode} {workload.name} exited with code {code}")
    return seconds


class Runner:
    """Times passes of a workload's ops and keeps their outputs."""

    def __init__(self, workload: workloads.Workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.ops = workload.ops()
        self.durations: list[list[float]] = []  # per pass, per op, seconds
        self.kernel: list[float] = []  # reference_s times, around every op and set-up
        self.results: list[list[workloads.OpResult | None]] = []
        self.setup: list[float] = []  # seconds per set-up repetition
        self.setup_reference: list[float] = []  # the reference child beside each
        self.failed = 0
        self.attempted = 0

    def set_up(self) -> None:
        self.kernel.append(reference_s())
        for _ in range(SETUP_REPS):
            self.setup.append(in_child("setup", self.workload))
            self.setup_reference.append(in_child("reference", self.workload))
            self.kernel.append(reference_s())

    def run_pass(self) -> None:
        durations, results = [], []
        self.kernel.append(reference_s())
        for op in self.ops:
            if self.tracer is not None:
                self.tracer.run_id += 1
            self.attempted += op.weight
            start = time.perf_counter()
            try:
                op.run()
                ok = True
            except Exception:  # an op that raises is counted, not fatal
                traceback.print_exc()
                ok = False
            durations.append(time.perf_counter() - start)
            self.kernel.append(reference_s())
            result = None
            if ok:
                try:
                    result = op.result()
                except (OSError, ValueError, KeyError):
                    traceback.print_exc()
            if result is None:
                print(f"op failed: {op.name}", file=sys.stderr)
                self.failed += op.weight
            results.append(result)
        self.durations.append(durations)
        self.results.append(results)

    def run_for(self, seconds: float) -> None:
        """MIN_PASSES passes, then more while the next is expected to end
        within `seconds` of timed work; set-up is timed again after each."""
        timed = 0.0
        while True:
            start = time.perf_counter()
            self.run_pass()
            last = time.perf_counter() - start
            timed += last
            self.set_up()
            if len(self.durations) >= MIN_PASSES and timed + last > seconds:
                return

    def op_seconds(self) -> list[float]:
        """Each op's median time over the passes."""
        return [statistics.median(col) for col in zip(*self.durations)]

    def wall_s(self) -> float:
        return sum(self.op_seconds())

    def ref_s(self) -> float:
        return statistics.median(self.kernel)

    def wall_ref(self) -> float:
        return self.wall_s() / self.ref_s()


def run_alternating(untraced: Runner, traced: Runner, seconds: float) -> None:
    """Pairs of one traced and one untraced pass, so that both see the same
    warm program and the same machine speed; at least one pair, then more
    while the next is expected to end within `seconds`."""
    timed = 0.0
    while True:
        start = time.perf_counter()
        traced.tracer.install()
        try:
            traced.run_pass()
        finally:
            traced.tracer.uninstall()
        untraced.run_pass()
        last = time.perf_counter() - start
        timed += last
        if timed + last > seconds:
            return


def mismatched(first: list, later: list[list]) -> int:
    """Ops whose output differs from the same op in the first pass."""
    return sum(
        1
        for results in later
        for a, b in zip(first, results)
        if a is not None and b is not None and a.fingerprint != b.fingerprint
    )


def environment(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def run(
    name: str, seed: int, seconds: float, trace: bool, size: workloads.Size = workloads.FULL
) -> dict:
    """One benchmark run; returns the result and what is printed above it."""
    env = environment(seed)
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](ROOT, work, seed, size)
        in_child("inputs", workload)
        workload.setup(workloads.import_caliblab(ROOT))

        if trace:
            warm_up, untraced = Runner(workload), Runner(workload)
            tracer = tracing.Tracer()
            runner = Runner(workload, tracer)
            warm_up.run_pass()
            run_alternating(untraced, runner, seconds)
            runners = [warm_up, untraced, runner]
        else:
            runner = Runner(workload)
            runner.set_up()
            runner.run_for(seconds)
            runners = [runner]
        # The workload process's own peak, before the checks add theirs.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        first = runners[0].results[0]
        failed = sum(r.failed for r in runners)
        attempted = sum(r.attempted for r in runners)
        later = [res for r in runners for res in r.results][1:]
        mismatches = mismatched(first, later)
        if mismatches:
            print(f"{mismatches} op outputs differ between passes", file=sys.stderr)
        failed += mismatches

        problems = []
        if all(r is not None for r in first):
            try:
                problems = workload.check(first)
            except Exception as exc:  # a check that crashes is a failed check
                traceback.print_exc()
                problems = [f"check raised {exc!r}"]
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        failed += len(problems)

        printed = {}
        if trace:
            # The passes of a pair ran back to back, so seconds compare directly.
            overhead = runner.wall_s() / untraced.wall_s() - 1.0
            metrics = tracing.layer_metrics(tracer, len(runner.durations), overhead)
            zero = tracing.zero_call_layers(tracer, workload.required)
            for layer in zero:
                print(f"trace: required layer {layer} recorded no call", file=sys.stderr)
            if tracer.missing:
                print(f"trace: not found: {', '.join(tracer.missing)}", file=sys.stderr)
            failed += len(zero)
            tracer.write(ROOT / ".bench_work" / "traces" / f"{name}-seed{seed}")
            units = {m: u for m, u, _ in tracing.PER_LAYER}
        else:
            metrics = {
                "setup_s": statistics.median(runner.setup)
                / statistics.median(runner.setup_reference) * REF_SETUP_S,
                "wall_ref": runner.wall_ref(),
                "peak_rss_mb": peak_rss_mb,
            }
            units = {m: u for m, u, _ in END_TO_END}
            printed = printed_metrics(workload, runner, failed, attempted)
        env["loadavg_end"] = os.getloadavg()
        return {
            "env": env,
            "passes": len(runner.durations),
            "ops": dict(zip((op.name for op in runner.ops), runner.op_seconds())),
            "printed": printed,
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def printed_metrics(workload, runner: Runner, failed: int, attempted: int) -> dict:
    """Figures printed by name beside the result. They are in seconds as a
    user sees them, and several exist on one workload only, so they are not
    result metrics."""
    seconds = dict(zip((op.name for op in runner.ops), runner.op_seconds()))
    steps = sum(r.steps for r in runner.results[0] if r is not None)
    wall = runner.wall_s()
    out = {
        "setup_raw_s": (statistics.median(runner.setup), "s"),
        "setup_reference_s": (statistics.median(runner.setup_reference), "s"),
        "wall_s": (wall, "s"),
        "ref_s": (runner.ref_s(), "s"),
    }
    if steps:
        out["steps_per_s"] = (steps / wall, "steps/s")
    if workload.name == "log-100k":
        out["evaluate_s"] = (seconds["evaluate"], "s")
        out["diagram_s"] = (seconds["diagram fixed"] + seconds["diagram adaptive"], "s")
        out["ensemble_s"] = (seconds["ensemble"], "s")
        out["rows_per_s"] = (workload.rows_per_pass() / wall, "rows/s")
    out["ops_total"] = (attempted, "count")
    out["ops_failed"] = (failed, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "caliblab" / "__init__.py").is_file():
        print(f"error: no caliblab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "configs").is_dir():
        print(f"error: no shipped configs under {ROOT / 'configs'}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in report["env"].items():
        print(f"env {key}: {value}")
    print(f"workload {args.workload}: {report['passes']} passes, trace={args.trace}")
    for op, seconds in report["ops"].items():
        print(f"op {op}: {seconds:.6f} s (median)")
    for name, (value, unit) in report["printed"].items():
        print(f"metric {name}: {value:.6g} {unit}")
    result = report["result"]
    for name, entry in result["metrics"].items():
        print(f"metric {name}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
