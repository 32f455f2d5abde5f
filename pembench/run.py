#!/usr/bin/env python3
"""Builds and runs the PEM benchmark from the root of a checkout.

    python3 pembench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pembench/run.py --selftest

The first call configures and builds pembench/ (which compiles the
repository's `pem` library from source) into .bench_build/; later calls
only let CMake confirm the build is current.  Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result.  Exits non-zero, printing no result, when the checkout has
no library to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.stderr.write("pembench: no pem library next to %s\n" % HERE)
        return 2
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "pembench", "pembench_selftest"])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            return rc
    return 0


def main():
    rc = build()
    if rc != 0:
        sys.exit(rc)
    args = sys.argv[1:]
    if args == ["--selftest"]:
        exe, args = os.path.join(BUILD, "pembench_selftest"), []
    else:
        exe = os.path.join(BUILD, "pembench")
    # A child process rather than exec: the benchmark's getrusage figures
    # (peak RSS, reaped-children CPU) must not inherit the build's.
    sys.exit(subprocess.run([exe] + args).returncode)


if __name__ == "__main__":
    main()
