#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload short-plain --seed 1 \\
        --seconds 10 --trace 0

The benchmark binary is built from source (perfbench/CMakeLists.txt, which
compiles the library under src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; an up-to-date build is a no-op. Build output goes to
stderr so that the last line of stdout is the benchmark's JSON result. All
arguments are passed to the binary unchanged; see perfbench/README.md.
"""

import os
import subprocess
import sys


def build(bench_dir, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(bench_dir, build_dir)
    if binary is None:
        return 1
    result = subprocess.run([binary] + sys.argv[1:])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
