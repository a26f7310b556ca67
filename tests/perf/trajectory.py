#!/usr/bin/env python3
"""Checks the committed benchmark trajectory, tests/perf/trajectory.jsonl.

    python3 tests/perf/trajectory.py --check

Each line of the trajectory is one JSON object for one (PR, workload, seed)
measurement series, alternating parent/change pairs of 15 s runs:

    pr        the PR number (never decreases down the file)
    commit    the change's commit id, or null when not yet known
    workload  a workload named in BENCHMARK.json
    seed      the benchmark seed
    claim     {"metric": M, "workload": W} for the gain the PR claimed on
              this series, or null
    pairs     the number of alternating pairs run
    won       the pairs the change won on the claimed metric, or on
              throughput_ops_s when claim is null; null when the records
              give no count
    parent    the parent's median of each BENCHMARK.json end-to-end metric
    change    the change's median of each, likewise

A median the records do not give is null; none is estimated. --check
prints nothing and exits 0 when every line holds; otherwise it names each
bad line and exits 1.
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
KEYS = {"pr", "commit", "workload", "seed", "claim", "pairs", "won",
        "parent", "change"}


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and v == v and v not in (float("inf"), float("-inf")))


def line_errors(entry, workloads, metrics, last_pr):
    """The problems with one parsed line, as strings."""
    if not isinstance(entry, dict):
        return ["not a JSON object"]
    errors = []
    if set(entry) != KEYS:
        errors.append("keys %s, expected %s" % (sorted(entry), sorted(KEYS)))
        return errors
    if not is_int(entry["pr"]) or entry["pr"] < 1:
        errors.append("pr must be a positive integer")
    elif last_pr is not None and entry["pr"] < last_pr:
        errors.append("pr %d follows pr %d" % (entry["pr"], last_pr))
    if entry["commit"] is not None and not isinstance(entry["commit"], str):
        errors.append("commit must be a string or null")
    if entry["workload"] not in workloads:
        errors.append("unknown workload %r" % (entry["workload"],))
    if not is_int(entry["seed"]):
        errors.append("seed must be an integer")
    claim = entry["claim"]
    if claim is not None:
        if not isinstance(claim, dict) or set(claim) != {"metric", "workload"}:
            errors.append("claim must be null or {metric, workload}")
        else:
            if claim["metric"] not in metrics:
                errors.append("claim names unknown metric %r" %
                              (claim["metric"],))
            if claim["workload"] not in workloads:
                errors.append("claim names unknown workload %r" %
                              (claim["workload"],))
    pairs, won = entry["pairs"], entry["won"]
    if not is_int(pairs) or pairs < 1:
        errors.append("pairs must be a positive integer")
    elif won is not None and (not is_int(won) or not 0 <= won <= pairs):
        errors.append("won must be null or an integer in [0, pairs]")
    for side in ("parent", "change"):
        medians = entry[side]
        if not isinstance(medians, dict) or set(medians) != set(metrics):
            errors.append("%s must hold exactly the end-to-end metrics %s" %
                          (side, metrics))
            continue
        for name, value in medians.items():
            if value is not None and not is_number(value):
                errors.append("%s %s must be a finite number or null" %
                              (side, name))
    return errors


def check(path, benchmark):
    with open(benchmark) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    bad = 0
    last_pr = None
    with open(path) as f:
        for number, text in enumerate(f, 1):
            try:
                entry = json.loads(text)
            except ValueError as e:
                errors = ["does not parse: %s" % e]
            else:
                errors = line_errors(entry, workloads, metrics, last_pr)
                if isinstance(entry, dict) and is_int(entry.get("pr")):
                    last_pr = max(last_pr or 0, entry["pr"])
            for error in errors:
                print("%s:%d: %s" % (path, number, error))
            bad += 1 if errors else 0
    return bad == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", required=True,
                        help="validate the trajectory file")
    parser.parse_args()
    ok = check(os.path.join(HERE, "trajectory.jsonl"),
               os.path.join(ROOT, "BENCHMARK.json"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
