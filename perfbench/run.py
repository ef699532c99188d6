#!/usr/bin/env python3
"""Build and run the uqsim host-cost benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload social --seed 1 --seconds 10 --trace 0

--workload all runs every workload in turn, each in its own process.

The simulator library is compiled from src/ into .bench_build/perfbench
(Release) on first use; later runs rebuild only what changed.  Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "uqsim_perfbench")
WORKLOADS = ("social", "incast", "stampede", "flaky_fabric")
# A run measures for --seconds and then checks and traces; it must
# never come near the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; exit non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources not found at "
                 + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
    except subprocess.CalledProcessError as error:
        sys.exit("perfbench: build failed: %s" % error)
    scratch = os.path.join(BUILD, "scratch")
    os.makedirs(scratch, exist_ok=True)
    # One process per workload, so peak_rss_mb is that workload's own.
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        command = [BINARY, "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scratch", scratch]
        sys.stdout.flush()
        try:
            result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: %s run exceeded %d s"
                     % (workload, RUN_TIMEOUT_S))
        if result.returncode != 0:
            return result.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
