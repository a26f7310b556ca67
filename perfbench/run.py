#!/usr/bin/env python3
"""Builds and runs the pushpart end-to-end benchmark.

    python3 perfbench/run.py --workload plan-serve --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. Each run configures and builds the
library and the benchmark with CMake (Release) into the build directory,
$CARGO_TARGET_DIR when set and .bench_build otherwise; the first run pays
for the build and later runs find it up to date. The build's output goes to
stderr. The benchmark's own output passes through, and its last line is the
JSON result. Exits non-zero, printing no result, when the build fails or the
library sources are missing.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan-serve", "search-cold", "product")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures and builds both benchmark binaries; True on success."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "--target", "perfbench",
         "perfbench_selftest", "-j", jobs],
    ]
    # Runs that start together must not build over each other.
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", bdir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
