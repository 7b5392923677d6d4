"""Benchmark entry point for boxlift.

    python3 perfbench/run.py --workload road --seed 1 --seconds 20 --trace 0

Measures ``setup_s``, the median wall time of ``import boxlift.cli`` in
fresh interpreters started before and after the workload, scaled by the
machine's slowdown that the same interpreters measure (``gen.reference``);
runs the workload in its own fresh single-threaded process
(``workload.py``) and prints that process's report. The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code is
not 0 when a check fails or the checkout holds no ``src/boxlift``.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from gen import REFERENCE_NOMINAL_S

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("road", "crowded", "general", "bin_study")
SETUP_PROBES = 6  # fresh interpreters before the workload, and as many after
DEADLINE_S = 170.0

# Every workload process runs numpy's BLAS on one thread.
ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Times the import, then the reference unit three times (after the import,
# so the reference's own imports are not in it) and prints both.
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import boxlift.cli; "
    "print(time.perf_counter() - t); "
    "sys.path.insert(0, sys.argv[2]); import gen; "
    "print(sorted(gen.reference() for _ in range(3))[1])"
)


def import_seconds(probes):
    """(import, reference) wall seconds in each of ``probes`` fresh interpreters."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(HERE)],
            env=ENV, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(tuple(map(float, done.stdout.split()[-2:])))
    return times


def main():
    parser = argparse.ArgumentParser(description="boxlift benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "boxlift" / "cli.py").is_file():
        print(f"no boxlift sources under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    setup = []
    if not args.trace:
        import_seconds(1)  # may compile bytecode; not counted
        setup = import_seconds(SETUP_PROBES)
    child = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=ENV, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)),
    )
    if setup:  # probes on both sides of the workload see two states of the machine
        setup += import_seconds(SETUP_PROBES)
    lines = child.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(child.stdout)
        print(f"workload process exited {child.returncode} without a result", file=sys.stderr)
        return child.returncode or 1
    if setup:
        as_measured = median(t for t, _ in setup)
        slowdown = median(r for _, r in setup) / REFERENCE_NOMINAL_S
        setup_s = as_measured / slowdown
        lines.insert(-1, "# setup " + json.dumps({"as_measured": as_measured, "slowdown": slowdown}))
        lines.insert(-1, f"setup_s {setup_s:.6g} s")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
