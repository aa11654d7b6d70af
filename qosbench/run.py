#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 qosbench/run.py --workload paper-qos|serve-fleet|serve-churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds qosbench (and the fdqos libraries it
links, from src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs it; the benchmark's last stdout line is its JSON result.
Build output goes to stderr. Capture segments are written to, and removed
from, .bench_out.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"qosbench: {message}", file=sys.stderr)
    sys.exit(2)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "qosbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail(f"cannot run {step[0]}: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    binary = os.path.join(build_dir, "qosbench")
    args = [binary, *sys.argv[1:], "--commit", commit(),
            "--work-dir", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()
