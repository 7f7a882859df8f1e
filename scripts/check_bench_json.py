#!/usr/bin/env python3
"""Checks that every committed BENCH_*.json at the repo root is a full run
of a Release build with the lock-rank detector compiled out, from a known
commit, and that no committed series row records a failed run.

A number measured with the detector armed, or on a smoke load, measures
the wrong thing, so a committed file that says so is a failure. The
provenance keys are the ones bench/bench_json.h and perfbench both write.
A row that records a failure fails the check too: a nemesis sweep row must
report violating_seeds == 0 and a TCP row converged == 1.

Usage: check_bench_json.py [REPO_ROOT]   (default: this script's repo)
Exits 0 when every file passes, 1 otherwise, naming each problem.
"""
import glob
import json
import os
import sys

PROVENANCE_KEYS = ("source", "build_type", "lock_rank_checks", "compiler",
                   "nproc")


def problems_of(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["does not parse: %s" % e]
    if not isinstance(doc, dict):
        return ["is not a JSON object"]
    found = []
    if doc.get("mode") != "full":
        found.append("mode is %r, not 'full'" % doc.get("mode"))
    provenance = doc.get("provenance")
    if not isinstance(provenance, dict):
        return found + ["has no provenance object"]
    missing = [k for k in PROVENANCE_KEYS if k not in provenance]
    if missing:
        found.append("provenance lacks %s" % ", ".join(missing))
    if provenance.get("build_type") != "Release":
        found.append("build_type is %r, not 'Release'" %
                     provenance.get("build_type"))
    if provenance.get("lock_rank_checks") != 0:
        found.append("lock_rank_checks is %r, not 0" %
                     provenance.get("lock_rank_checks"))
    if provenance.get("source", "unknown") == "unknown":
        found.append("source commit is unknown")
    return found + failed_rows(doc.get("series"))


def failed_rows(series):
    """Names every series row that records a failed run."""
    found = []
    for i, row in enumerate(series if isinstance(series, list) else []):
        if not isinstance(row, dict):
            continue
        if "violating_seeds" in row and row["violating_seeds"] != 0:
            found.append("series[%d] has violating_seeds %r, not 0" %
                         (i, row["violating_seeds"]))
        if row.get("transport") == "tcp" and "converged" in row and \
                row["converged"] != 1:
            found.append("series[%d] has converged %r, not 1" %
                         (i, row["converged"]))
    return found


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print("no BENCH_*.json under %s" % root)
        return 1
    failed = False
    for path in paths:
        name = os.path.basename(path)
        problems = problems_of(path)
        for problem in problems:
            print("%s: %s" % (name, problem))
        if problems:
            failed = True
        else:
            print("%s: ok" % name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
