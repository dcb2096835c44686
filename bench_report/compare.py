#!/usr/bin/env python3
"""Compares two sets of bench_report results: the parent's and a change's.

Usage:
  python3 bench_report/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the result files `bench_report --out DIR` writes
(one per workload and seed; traced runs are ignored). For every workload
and end-to-end metric of BENCHMARK.json it prints both sides' median and
quartiles, each side's spread ((max - min) / median) and a verdict:

  better      the change wins at least 9 of 10 pairs (runs paired by
              seed) and the medians differ by more than the parent's
              interquartile distance;
  unresolved  the parent's interquartile spread is wider than the bound,
              and not every change run reads better than every parent run;
  worse       the change's median is worse than the parent's by more than
              the metric's bound, or a change run failed a check or an
              operation;
  no worse    otherwise.

Exits 1 when any row is worse, 0 otherwise. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_results(directory):
    """{workload: {seed: result}} of the untraced result files."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            result = json.load(f)
        if result.get("trace"):
            continue
        runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    median = statistics.median(values)
    return (max(values) - min(values)) / abs(median) if median else 0.0


def verdict(parent, change, pairs, better, bound, change_ok):
    """Applies the rules of the module docstring to one metric."""
    if not change_ok:
        return "worse"
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    sign = 1 if better == "higher" else -1
    gain = sign * (c_med - p_med)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "better"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    scale = abs(p_med) if p_med else 1.0
    if (p_q3 - p_q1) / scale > bound and not all_better:
        return "unresolved"
    if -gain / scale > bound:
        return "worse"
    return "no worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="directory of the parent's result files")
    ap.add_argument("change", help="directory of the change's result files")
    ap.add_argument("--benchmark", default=os.path.join(HERE, "..",
                                                        "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent_runs = load_results(args.parent)
    change_runs = load_results(args.change)

    header = (f"{'workload':16} {'metric':14} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'delta':>8} {'bound':>6} "
              f"{'spread p/c':>12}  verdict")
    print(header)
    counts = {}
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, {})
        change = change_runs.get(workload, {})
        if not parent or not change:
            print(f"{workload:16} missing on the "
                  f"{'parent' if not parent else 'change'} side")
            counts["unresolved"] = counts.get("unresolved", 0) + 1
            continue
        change_ok = all(r["correct"] and r["failed"] == 0
                        for r in change.values())
        seeds = sorted(set(parent) & set(change))
        for metric in metrics:
            name = metric["name"]
            p = [parent[s]["metrics"][name]["value"] for s in sorted(parent)]
            c = [change[s]["metrics"][name]["value"] for s in sorted(change)]
            pairs = [(parent[s]["metrics"][name]["value"],
                      change[s]["metrics"][name]["value"]) for s in seeds]
            if not pairs:
                pairs = list(zip(p, c))
            v = verdict(p, c, pairs, metric["better"], metric["bound"],
                        change_ok)
            counts[v] = counts.get(v, 0) + 1
            p_med, c_med = statistics.median(p), statistics.median(c)
            p_q1, p_q3 = quartiles(p)
            c_q1, c_q3 = quartiles(c)
            delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
            print(f"{workload:16} {name:14} "
                  f"{p_med:>12.5g} [{p_q1:9.4g}, {p_q3:9.4g}] "
                  f"{c_med:>12.5g} [{c_q1:9.4g}, {c_q3:9.4g}] "
                  f"{delta:>+8.1%} {metric['bound']:>6.0%} "
                  f"{spread(p):>5.1%}/{spread(c):<5.1%}  {v}")
    print("; ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
