#!/usr/bin/env python3
r"""Checks the bench JSON reports (BENCH_*.json) strictly and pins their shape.

    python3 tests/bench/json_documents.py --check BENCH_serve.json ...
    python3 tests/bench/json_documents.py --write BENCH_*.json \
        > tests/bench/json_documents.txt

Each document is parsed with json.load, refusing NaN, Infinity and
duplicate keys, and must be one object naming its producer in a "bench" or
"experiment" field. Its shape is the list of key paths in document order
("cells[].pr": member pr of an element of array cells), each with the value
kinds seen there (number, string, bool, null, object, array); an array's
elements share one path. --check compares every document's shape with the
producer's section of tests/bench/json_documents.txt, prints each
difference and exits 1 on any; --write prints the key file for the given
documents. Key paths do not depend on the run size, so the same file checks
the smoke documents and full-size runs alike.
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
KEYS = os.path.join(HERE, "json_documents.txt")


def refuse_constant(name):
    raise ValueError("non-finite number %s" % name)


def unique_pairs(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError("duplicate key %r" % key)
        seen[key] = value
    return seen


def load(path):
    """The parsed document and its producer name; raises ValueError."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f, parse_constant=refuse_constant,
                        object_pairs_hook=unique_pairs)
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    producer = doc.get("bench", doc.get("experiment"))
    if not isinstance(producer, str):
        raise ValueError('no "bench" or "experiment" string field')
    return doc, producer


def kind(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def shape(doc):
    """[(path, "kind|kind")] in first-seen order."""
    kinds = {}

    def walk(value, path):
        if path:
            kinds.setdefault(path, set()).add(kind(value))
        if isinstance(value, dict):
            for key, member in value.items():
                walk(member, path + "." + key if path else key)
        elif isinstance(value, list):
            for element in value:
                walk(element, path + "[]")

    walk(doc, "")
    return [(path, "|".join(sorted(k))) for path, k in kinds.items()]


def read_keys(path):
    """{producer: [(path, kinds)]} from the key file."""
    sections = {}
    current = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1], [])
            else:
                key, kinds = line.split(" ")
                current.append((key, kinds))
    return sections


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    parser.add_argument("documents", nargs="+")
    args = parser.parse_args()

    if args.write:
        print("# Key paths and value kinds of the bench JSON reports, one "
              "section per producer.")
        print("# Written by tests/bench/json_documents.py --write; checked "
              "by --check.")
        for path in args.documents:
            doc, producer = load(path)
            print("\n[%s]" % producer)
            for key, kinds in shape(doc):
                print(key, kinds)
        return 0

    expected = read_keys(KEYS)
    failed = False
    for path in args.documents:
        try:
            doc, producer = load(path)
        except (OSError, ValueError) as e:
            print("%s: %s" % (path, e))
            failed = True
            continue
        if producer not in expected:
            print("%s: producer %r has no section in %s"
                  % (path, producer, KEYS))
            failed = True
            continue
        got = shape(doc)
        if got != expected[producer]:
            failed = True
            print("%s: shape differs from [%s]" % (path, producer))
            for i in range(max(len(got), len(expected[producer]))):
                g = got[i] if i < len(got) else None
                e = expected[producer][i] if i < len(expected[producer]) \
                    else None
                if g != e:
                    print("  at %d: expected %s, got %s" % (i, e, g))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
