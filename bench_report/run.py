#!/usr/bin/env python3
"""Builds bench_report from this checkout's sources and runs it.

Usage (from anywhere; arguments go to bench_report unchanged):
  python3 bench_report/run.py --workload knn_cophir --seed 1 --seconds 15 --trace 0
  python3 bench_report/run.py --smoke

The build tree is .bench_build/bench_report at the root of the checkout;
build output goes to stderr so the last line of stdout stays the
benchmark's JSON result. Exits non-zero without a result when the build
fails (for instance when the sources are not there).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_report")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_report",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("bench_report: build failed: " + " ".join(step))


def main():
    build()
    binary = os.path.join(BUILD, "bench_report")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
