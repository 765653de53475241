#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
gridsec libraries plus the perfbench program (Release) under .bench_build/;
later calls only rebuild what changed. Build output goes to stderr; the
program's report goes to stdout, its last line one JSON object. Every flag
is passed through to the program (see src/main.cpp); the exit code is the
program's, or 2 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY, "--reference-dir", os.path.join(HERE, "reference")]
    return subprocess.run(cmd + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
