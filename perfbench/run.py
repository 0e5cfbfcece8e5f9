#!/usr/bin/env python3
"""Build the powersched benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 20 --trace 0

Configures perfbench/CMakeLists.txt (a Release build of ../src plus the
benchmark) into .bench_build/perfbench, builds it, then runs the binary
from the repository root. Build output goes to standard error; the last
line of standard output is the benchmark's JSON result. Exits non-zero
without a result when the sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run measures for at most 60 s; set-up, checks and traced extras stay
# well inside the 180 s a run may take.
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "session.hpp")):
        fail("no powersched sources under " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    build()
    try:
        result = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
