#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/run_tests.py

Builds through run.py, then:
  * runs the C++ tests of the helpers (percentiles, tail rule, mode check,
    generator determinism, span self times, product tolerance);
  * runs every workload briefly, untraced and traced, and checks that the
    result line carries exactly the metrics BENCHMARK.json declares;
  * runs every workload with a corrupted reference and checks that the run
    fails: exit code 1 and a result with correct = false.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (the benchmark's own build helper)

SECONDS = "0.4"


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    bdir = run.build_dir()
    if not run.build(bdir):
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    helpers = subprocess.run([os.path.join(bdir, "perfbench_selftest")])
    expect(helpers.returncode == 0, "helper tests")

    for workload in run.WORKLOADS:
        base = [os.path.join(bdir, "perfbench"), "--workload", workload,
                "--seed", "3", "--seconds", SECONDS, "--work-dir", bdir]
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            done = subprocess.run(base + ["--trace", trace],
                                  capture_output=True, text=True)
            res = result_of(done.stdout)
            expect(done.returncode == 0 and res and res["correct"] and
                   res["failed"] == 0 and res["attempted"] >= 1,
                   "%s --trace %s passes its checks" % (workload, trace))
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
            expect(got == declared,
                   "%s --trace %s reports the %s metrics" % (workload, trace, kind))
        done = subprocess.run(base + ["--trace", "0", "--corrupt-reference"],
                              capture_output=True, text=True)
        res = result_of(done.stdout)
        expect(done.returncode == 1 and res and not res["correct"] and
               res["failed"] >= 1,
               "%s fails when its reference is corrupted" % workload)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
