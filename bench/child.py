"""One step of a benchmark run, in an interpreter of its own.

    python3 bench/child.py {inputs,setup,reference} <workload> <seed> <work dir> <size>

``inputs`` writes the seed's inputs under the work directory, so that their
memory is not counted in the workload process's peak. ``setup`` imports
caliblab and runs the workload's set-up, as a user's process would from its
start. ``reference`` imports numpy and scipy.special and nothing of
caliblab: it is the fixed start-up that set-up time is measured against.
``bench/run.py`` times ``setup`` and ``reference`` from starting this
interpreter to the ``ready`` line printed here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    mode, name, seed, work, size = argv
    workload = workloads.WORKLOADS[name](ROOT, Path(work), int(seed), workloads.SIZES[size])
    if mode == "inputs":
        workload.make_inputs()
    elif mode == "setup":
        workload.setup(workloads.import_caliblab(ROOT))
    elif mode == "reference":
        import scipy.special  # noqa: F401
    else:
        raise ValueError(f"unknown mode {mode!r}")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
