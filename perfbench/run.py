#!/usr/bin/env python3
"""Benchmark entkit end to end (untraced run) or per layer (traced run).

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

Workloads are ``analyze``, ``files`` and ``scenario`` (see
``perfbench/workloads.py``); ``all`` runs each of them untraced and then
traced, one process per run. The entkit under the checkout's ``src/`` is
measured, never an installed copy. The load is one closed-loop caller in this
process (each op starts after the previous one returned) and no extra
threads; BLAS threads are capped at the number of usable cores.

A run generates its inputs from ``--seed`` and sets up: import, inputs,
files and one warm-up op per class. The set-up is repeated and its median
reported. The run then times whole passes over the workload's fixed cycle of
ops. With ``--trace 0`` it spends 68% of ``--seconds`` on ops and the rest on
one-at-a-time CLI processes, alternating the two. With ``--trace 1`` it
times the same number of passes untraced and then traced, a third of
``--seconds`` each, to give per-layer figures and the tracing overhead.
Every output is checked against ground truth.

Stdout holds a report of every metric with unit and direction. Its last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results, the run environment and, for traced runs, the
spans go to ``.perfbench/results/`` in the checkout. ``--smoke`` runs one
pass over tiny inputs to check the harness itself.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("analyze", "files", "scenario")


def cap_blas_threads(nproc: int) -> dict:
    """Set each BLAS thread variable to at most ``nproc``; must run before numpy loads."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and one pass")
    args = parser.parse_args(argv)
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            for trace in ("0", "1"):
                argv = ["--workload", name, "--seed", str(args.seed), "--seconds",
                        str(args.seconds), "--trace", trace] + ["--smoke"] * args.smoke
                status |= subprocess.run([sys.executable, __file__, *argv]).returncode
        return status

    nproc = len(os.sched_getaffinity(0))
    threads = cap_blas_threads(nproc)
    if not (SRC / "entkit" / "__init__.py").is_file():
        print(f"perfbench: no entkit sources in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import entkit

    if Path(entkit.__file__).resolve().parent != (SRC / "entkit").resolve():
        print(f"perfbench: imported entkit from {entkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness

    result = harness.run(args, T_START, ROOT, nproc, threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
