#!/usr/bin/env python3
"""Compares two sets of bench/e2e result files: a parent commit and a change.

    python3 bench/e2e/compare.py PARENT CHANGE [--bench BENCHMARK.json]

PARENT and CHANGE are result files or directories of them, as written by
bench/e2e/run.py (one file per workload, seed and trace flag). Runs are
paired by (workload, seed, trace). For every (workload, metric) it prints
each side's median and quartiles of the per-run values and the pairs the
change won, then a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound, or the pairs resolve it as worse (the
              mirror image of "better")
  better      over at least 10 pairs, the change wins at least 9 of every
              10 (ties count for neither side) and the medians differ by
              more than the parent's interquartile range
  unresolved  the pairs decide nothing, not every change run beats every
              parent run, and the parent's own spread (IQR / median)
              exceeds a third of the bound, so a change smaller than the
              bound could hide in the noise
  unchanged   none of the above

The bounds come from BENCHMARK.json; they are as wide as the reference
machine's run-to-run noise requires, so a median gap within a bound says
little. A regression smaller than its bound shows only through the pairs.

Exit status 1 when any end-to-end metric is worse or the change fails more
operations than the parent; otherwise 2 when any end-to-end metric is
unresolved, so no-regression cannot be claimed; 0 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

MIN_PAIRS = 10


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    runs = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if "workload" in r and "metrics" in r:
            runs[(r["workload"], r["seed"], r["trace"])] = r
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, higher, bound):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    wins = sum(gain(c, p) for p, c in pairs)
    losses = sum(gain(p, c) for p, c in pairs)
    worse_by = (p_med - c_med if higher else c_med - p_med) / abs(p_med) \
        if p_med else 0.0
    if bound is not None and worse_by > bound:
        return wins, "worse"
    resolved = len(pairs) >= MIN_PAIRS and abs(c_med - p_med) > p_q3 - p_q1
    if resolved and losses >= 0.9 * len(pairs):
        return wins, "worse"
    if resolved and wins >= 0.9 * len(pairs):
        return wins, "better"
    all_better = all(gain(c, p) for c in change for p in parent)
    if bound is not None and p_med and not all_better and \
            (p_q3 - p_q1) / abs(p_med) > bound / 3:
        return wins, "unresolved"
    return wins, "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..",
        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        sys.exit("compare.py: no result files in %s"
                 % (args.parent if not parent else args.change))

    print("%-17s %-26s %-29s %-29s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    status = 0
    workloads = sorted({k[0] for k in parent} | {k[0] for k in change})
    for w in workloads:
        for name, m in metrics.items():
            keys = sorted(k for k in parent if k[0] == w
                          and name in parent[k]["metrics"])
            ckeys = sorted(k for k in change if k[0] == w
                           and name in change[k]["metrics"])
            if not keys or not ckeys:
                continue
            value = lambda runs, k: runs[k]["metrics"][name]["value"]
            p = [value(parent, k) for k in keys]
            c = [value(change, k) for k in ckeys]
            pairs = [(value(parent, k), value(change, k))
                     for k in keys if k in change]
            wins, v = verdict(p, c, pairs, m["better"] == "higher",
                              m.get("bound"))
            if "bound" in m and v == "worse":
                status = 1
            elif "bound" in m and v == "unresolved" and status == 0:
                status = 2
            pq, cq = quartiles(p), quartiles(c)
            print("%-17s %-26s %-29s %-29s %6s  %s" % (
                w, name, "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                "%d/%d" % (wins, len(pairs)), v))
        p_failed = sum(r["failed"] for k, r in parent.items() if k[0] == w)
        c_failed = sum(r["failed"] for k, r in change.items() if k[0] == w)
        if c_failed > p_failed:
            print("%-17s change failed %d operations, parent %d"
                  % (w, c_failed, p_failed))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
