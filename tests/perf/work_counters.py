#!/usr/bin/env python3
"""Prints the work the benchmark workloads do, for a byte-for-byte gate.

    python3 tests/perf/work_counters.py --perfbench BUILD/perfbench --work-dir DIR

For every workload at seeds 1 and 2 it runs one traced one-second benchmark
run (`--seconds 1 --trace 1`) and prints two lines: the run's `counters:`
line, and the traced work counts (DFA walks, applied pushes and sweeps, comm
plan transfers, executor MACs). Op counts are fixed before a run starts, so
both lines repeat exactly at one seed on any machine and under any build
flags. tests/perf/work_counters.txt holds the expected output; CI reruns this
script and diffs the two. A change that alters the work regenerates the file
with this script and says why in CHANGES.md.
"""
import argparse
import json
import subprocess
import sys

WORKLOADS = ("plan-serve", "search-cold", "product")
SEEDS = (1, 2)
WORK = ("dfa.walks", "dfa.pushes_applied", "dfa.sweeps", "plan.transfers",
        "exec.macs")


def work_lines(perfbench, work_dir, workload, seed):
    done = subprocess.run(
        [perfbench, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1", "--work-dir", work_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        raise SystemExit("work_counters.py: %s seed %d failed" %
                         (workload, seed))
    counters = [l for l in lines if l.startswith("counters: ")]
    metrics = json.loads(lines[-1])["metrics"]
    traced = " ".join("%s=%d" % (name, round(metrics[name]["value"]))
                      for name in WORK)
    prefix = "%s seed %d" % (workload, seed)
    return ["%s %s" % (prefix, counters[0]), "%s work: %s" % (prefix, traced)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--perfbench", required=True,
                        help="path to a built perfbench binary")
    parser.add_argument("--work-dir", required=True,
                        help="directory for the runs' atlas and span files")
    args = parser.parse_args()
    for workload in WORKLOADS:
        for seed in SEEDS:
            for line in work_lines(args.perfbench, args.work_dir, workload,
                                   seed):
                print(line)


if __name__ == "__main__":
    main()
