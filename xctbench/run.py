#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 xctbench/run.py --workload cold_slice --seed 1 --seconds 10 --trace 0
    python3 xctbench/run.py --selftest

The first call configures and compiles the MemXCT libraries and the
benchmark (CMake, release flags) into $CARGO_TARGET_DIR/xctbench, default
.bench_build/xctbench; later calls rebuild incrementally. Build output goes
to stderr. Every run first executes the benchmark's own self-tests, then the
benchmark binary, whose last stdout line is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "xctbench", "xctbench_tests"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("xctbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "xctbench"))
    if not build(build_dir):
        return 1
    tests = subprocess.run([os.path.join(build_dir, "xctbench_tests")],
                           stdout=sys.stderr, stderr=sys.stderr)
    if tests.returncode:
        print("xctbench: self-tests failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        return 0
    out_dir = os.path.join(build_dir, "out")
    cmd = [os.path.join(build_dir, "xctbench")] + argv + ["--out-dir", out_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
