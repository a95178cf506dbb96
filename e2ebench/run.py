#!/usr/bin/env python3
"""Build and run the end-to-end JigSaw benchmark from the repository root.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds the library and the benchmark (Release) under
$CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that is unset,
runs the benchmark's self-tests, then runs the benchmark. Build and
self-test output goes to stderr; the benchmark's last stdout line is its
JSON result. Any failure exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cmd):
    # stdout goes to stderr so only the benchmark writes to stdout.
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(build_root), "e2ebench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", build,
                "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return 1
    if run(["cmake", "--build", build, "-j", jobs, "--target", "e2e_bench",
            "e2e_selftest"]) != 0:
        return 1
    if run([os.path.join(build, "e2e_selftest")]) != 0:
        return 1
    return subprocess.run([os.path.join(build, "e2e_bench")] +
                          sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
