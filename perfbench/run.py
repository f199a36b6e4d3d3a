#!/usr/bin/env python3
"""Builds and runs the LSBench replay benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload social --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the engine sources under src/
plus the replay driver) into .bench_build/perfbench; later runs rebuild only
what changed. Build output goes to stderr, so the last line of stdout is the
driver's JSON result. The exit code is the driver's: 0 when every output check
passed. perfbench/README.md describes the workloads and the metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lsbench_replay")
RUN_TIMEOUT_S = 170
# glibc backs malloc's heap with transparent huge pages. Under a hypervisor's
# nested paging every TLB miss is a two-level page walk, and without huge
# pages the latency of microsecond calls follows the host's memory load.
RUN_ENV = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")


def build():
    """Configures (once) and builds the driver; exits non-zero on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["social", "analytics", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(BUILD, "traces")]
    try:
        result = subprocess.run(cmd, cwd=ROOT, env=RUN_ENV, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("lsbench_replay did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
