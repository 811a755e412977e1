#!/usr/bin/env python3
"""Build and run one workload of the layered KBC benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Builds perfbench/kbc_bench.exe with dune
(build output goes to stderr), runs the workload in a fresh process, and
passes its output through: the last line of stdout is one JSON object
{correct, attempted, failed, metrics}.  Exits non-zero, without a result
line, when the build or the run fails.  See perfbench/NOTES.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["dev_loop", "doc_stream", "doc_stream_big"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "kbc_bench.exe")
OUT = os.path.join(ROOT, ".bench_out")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune is not on PATH", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, "./perfbench/kbc_bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 3

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT,
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: workload timed out", file=sys.stderr)
        return 4
    out = run.stdout.decode()
    if run.returncode != 0:
        sys.stderr.write(out)
        print("run.py: workload exited with %d" % run.returncode, file=sys.stderr)
        return 5
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
