#!/usr/bin/env python3
"""Compare two sets of case-ledger runs against the bounds in BENCHMARK.json.

Each result file is the JSON report one untraced ledger run writes with
--out. For every (workload, end-to-end metric) the two sets' medians are
compared, and one verdict is printed:

  OK          the second set is no worse than the first by more than the
              metric's bound;
  WORSE       it is worse by more than the bound, and both sets' spreads
              (quartile distance over median) are within the bound;
  UNRESOLVED  a set's spread is wider than the bound, so a difference of
              the bound's size cannot be told from noise — unless every run
              of the second set reads better than every run of the first,
              which is reported OK.

Runs from hosts with different hardware_threads are never compared.

  python3 bench/ledger/agree.py --base a/*.json --new b/*.json

Exit status: 0 when every pair is OK, 1 otherwise. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys


def load(paths):
    """{workload: {metric: [values]}} and the set of hardware_threads."""
    runs = {}
    threads = set()
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        threads.add(report.get("hardware_threads"))
        for rec in report.get("records", []):
            if rec.get("mode") != "timed":
                continue
            metrics = runs.setdefault(rec["name"], {})
            for key, value in rec.items():
                if isinstance(value, (int, float)):
                    metrics.setdefault(key, []).append(float(value))
    return runs, threads


def spread(values):
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(base, new, bound, lower_is_better):
    mb, mn = statistics.median(base), statistics.median(new)
    worse_by = (mn - mb) / mb if lower_is_better else (mb - mn) / mb
    noisy = max(spread(base), spread(new)) > bound
    if noisy:
        better = (max(new) < min(base)) if lower_is_better else (
            min(new) > max(base))
        return ("OK" if better else "UNRESOLVED"), mb, mn, worse_by
    return ("WORSE" if worse_by > bound else "OK"), mb, mn, worse_by


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True, help="first set")
    ap.add_argument("--new", nargs="+", required=True, help="second set")
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    base, base_threads = load(args.base)
    new, new_threads = load(args.new)
    if base_threads != new_threads or len(base_threads) != 1:
        print(f"hardware_threads differ: base {sorted(base_threads)} vs "
              f"new {sorted(new_threads)}; not comparing", file=sys.stderr)
        return 1

    ok = True
    print(f"{'workload':16s} {'metric':16s} {'base':>11s} {'new':>11s} "
          f"{'worse_by':>9s} {'bound':>6s} {'spread':>13s}  verdict")
    for wl in bench["workloads"]:
        for m in bench["end_to_end"]:
            b = base.get(wl["name"], {}).get(m["name"], [])
            n = new.get(wl["name"], {}).get(m["name"], [])
            if not b or not n:
                print(f"{wl['name']:16s} {m['name']:16s} missing runs  "
                      "UNRESOLVED")
                ok = False
                continue
            v, mb, mn, worse_by = verdict(b, n, m["bound"],
                                          m["better"] == "lower")
            ok = ok and v == "OK"
            print(f"{wl['name']:16s} {m['name']:16s} {mb:11.5g} {mn:11.5g} "
                  f"{worse_by:+9.4f} {m['bound']:6.2f} "
                  f"{spread(b):6.4f}/{spread(n):6.4f}  {v}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
