#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload study|tap|daemon --seed N \
        --seconds S --trace 0|1 [--paced-rate R] [--study-threads T]

Run from the repository root. The first call configures and builds the
library plus the benchmark into .bench_build/perfbench (CMake, Ninja when
available); later calls only rebuild what changed. Every call then runs the
benchmark's self-tests and the workload. Build and self-test output goes to
stderr, so the workload's result object stays the last line of stdout.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def main():
    build()
    if subprocess.call([os.path.join(BUILD, "perfbench_selftest")],
                       stdout=sys.stderr) != 0:
        fail("self-tests failed")
    return subprocess.call([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                           cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
