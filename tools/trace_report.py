#!/usr/bin/env python3
"""Roll a Chrome trace from sickle's observability layer
(`observability.trace_path`) up into count, inclusive time and self time
per span name.

Usage:
    python3 tools/trace_report.py TRACE.json

Nesting is rebuilt from the timestamps per thread with trace_check.py's
replay (run trace_check.py first to validate the file). Prints one row
per span name, ranked by self time:
  count      events with that name;
  inclusive  summed duration, counting a span nested inside another span
             of the same name only once (its outermost occurrence);
  self       summed duration minus the durations of its direct children
             on the same thread: time spent in the span itself. Work a
             span hands to pool threads shows as their pool.task spans,
             so self times of different threads overlap in wall time.

For a share of the case, divide a self time by the `case.run` inclusive
time.

Standard library only. Exit status 0, or 1 on a usage error or when the
file cannot be read.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from trace_check import replay_nesting  # noqa: E402


def rollup(events):
    """Per-name {count, inclusive_us, self_us}."""
    rows = {}
    parent_of = {}
    child_us = {}
    replayed = list(replay_nesting(events))
    for ev, parent, _ in replayed:
        parent_of[id(ev)] = parent
        if parent is not None:
            child_us[id(parent)] = child_us.get(id(parent), 0.0) + ev["dur"]
    for ev, parent, _ in replayed:
        row = rows.setdefault(ev["name"], {"count": 0, "inclusive_us": 0.0,
                                           "self_us": 0.0})
        row["count"] += 1
        row["self_us"] += ev["dur"] - child_us.get(id(ev), 0.0)
        outermost = True
        while parent is not None:
            if parent["name"] == ev["name"]:
                outermost = False
                break
            parent = parent_of[id(parent)]
        if outermost:
            row["inclusive_us"] += ev["dur"]
    return rows


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    path = sys.argv[1]
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"trace_report: cannot load {path}: {e}", file=sys.stderr)
        return 1

    rows = rollup(events)
    ranked = sorted(rows.items(), key=lambda kv: (-kv[1]["self_us"], kv[0]))
    width = max([len("span")] + [len(name) for name, _ in ranked])
    print(f"{'span':<{width}} {'count':>8} {'incl ms':>10} {'self ms':>10}")
    for name, r in ranked:
        print(f"{name:<{width}} {r['count']:>8} "
              f"{r['inclusive_us'] / 1e3:>10.3f} {r['self_us'] / 1e3:>10.3f}")
    print(f"{len(events)} events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
