#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/bench.exe with dune
(the first build of a checkout takes a while), records whether the
compiler uses flambda, then runs the benchmark on one CPU, whose last
line of standard output is the result. It exits non-zero, printing no
result, when the repository sources are not there to build.

The benchmark is pinned to one CPU because on a small shared VM the
serve-mix closed loop, whose client and daemon threads wake each other
for every batch, ran twice as slow in some runs as in others when its
threads could spread over two vCPUs; pinned, its runs agree within a
few percent at nearly the same throughput.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def flambda():
    try:
        out = subprocess.run(
            ["ocamlopt", "-config-var", "flambda"],
            capture_output=True, text=True, timeout=30,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    for need in ("dune-project", "lib", "specs", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # The build leaves file-system work pending; serve-mix, whose daemon
    # writes thousands of small store files, should not wait behind it.
    os.sync()
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    print(f"perfbench pinned: cpu {cpus[0]} of {len(cpus)} allowed", flush=True)
    try:
        run = subprocess.run(
            [EXE, *sys.argv[1:], "--flambda", flambda()],
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
