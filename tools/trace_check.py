#!/usr/bin/env python3
"""Structural validator for the Chrome trace-event JSON that sickle's
observability layer (src/obs/) emits via `observability.trace_path`.

Usage:
    python3 tools/trace_check.py TRACE.json \
        [--require-span NAME]... [--require-cat CAT]...

Checks, in order:
  1. Top-level shape: an object with a "traceEvents" array (the format
     chrome://tracing and Perfetto load), plus the emitter's
     "otherData.dropped_events" counter when present.
  2. Per-event shape: every event is a complete ("ph": "X") event with a
     non-empty string name, a string cat, numeric ts/dur in microseconds,
     integer pid/tid, and an args object carrying integer id / parent /
     depth (id >= 1; parent == 0 means a root span).
  3. Span-id integrity: ids are unique; every non-zero parent refers to
     an existing event on the same tid.
  4. Nesting containment: per tid, replaying events in (ts asc, dur desc)
     order against an interval stack must reproduce each event's recorded
     parent and depth, and every child interval must sit inside its
     parent's interval. This is the property that makes the file readable
     as a flame graph rather than a soup of overlapping slices.
  5. --require-span / --require-cat: assert that at least one event with
     the given name / category is present (repeatable; CI uses this to
     pin the orchestrator stage spans and the store/pool/codec layers).

Exit status 0 when every check passes, 1 otherwise (each violation is
printed; the first few are usually the informative ones).
"""

import argparse
import json
import sys

# ts/dur are nanoseconds divided into microseconds and printed as the
# shortest decimal that parses back to the same double, so containment is
# exact up to float arithmetic; a couple of nanoseconds of slack absorbs
# the sums.
EPS_US = 0.002


def err(errors, msg):
    errors.append(msg)
    if len(errors) <= 20:
        print(f"trace_check: {msg}", file=sys.stderr)


def check_event_shape(i, ev, errors):
    if not isinstance(ev, dict):
        err(errors, f"event[{i}]: not an object")
        return False
    ok = True
    name = ev.get("name")
    if not isinstance(name, str) or not name:
        err(errors, f"event[{i}]: missing/empty name")
        ok = False
    if not isinstance(ev.get("cat"), str):
        err(errors, f"event[{i}] {name!r}: missing string cat")
        ok = False
    if ev.get("ph") != "X":
        err(errors, f"event[{i}] {name!r}: ph is {ev.get('ph')!r}, want 'X'")
        ok = False
    for key in ("ts", "dur"):
        v = ev.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            err(errors, f"event[{i}] {name!r}: bad {key}: {v!r}")
            ok = False
    for key in ("pid", "tid"):
        v = ev.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            err(errors, f"event[{i}] {name!r}: bad {key}: {v!r}")
            ok = False
    args = ev.get("args")
    if not isinstance(args, dict):
        err(errors, f"event[{i}] {name!r}: missing args object")
        return False
    for key in ("id", "parent", "depth"):
        v = args.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            err(errors, f"event[{i}] {name!r}: bad args.{key}: {v!r}")
            ok = False
    if isinstance(args.get("id"), int) and args["id"] < 1:
        err(errors, f"event[{i}] {name!r}: args.id must be >= 1")
        ok = False
    return ok


def replay_nesting(events):
    """Replay each tid's events against an interval stack and yield
    (event, enclosing event or None, depth) for every event — the nesting
    the timestamps imply, whatever the recorded args say. Parents open
    before children and (with equal start) outlive them, so replaying in
    (ts asc, dur desc) order pushes enclosing spans first."""
    by_tid = {}
    for ev in events:
        by_tid.setdefault(ev["tid"], []).append(ev)
    for _, tid_events in sorted(by_tid.items()):
        tid_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for ev in tid_events:
            while stack and (stack[-1]["ts"] + stack[-1]["dur"]
                             <= ev["ts"] + EPS_US):
                stack.pop()
            yield ev, (stack[-1] if stack else None), len(stack)
            stack.append(ev)


def check_nesting(events, errors):
    """The recorded parent/depth must match replay_nesting's
    reconstruction, and children must be contained in their parents."""
    for ev, parent, depth in replay_nesting(events):
        tid, name, args = ev["tid"], ev["name"], ev["args"]
        ts, end = ev["ts"], ev["ts"] + ev["dur"]
        want_parent = parent["args"]["id"] if parent else 0
        if args["parent"] != want_parent:
            err(errors,
                f"tid {tid} span {name!r} (id {args['id']}): recorded "
                f"parent {args['parent']}, reconstruction says "
                f"{want_parent}")
        if args["depth"] != depth:
            err(errors,
                f"tid {tid} span {name!r} (id {args['id']}): recorded "
                f"depth {args['depth']}, reconstruction says {depth}")
        if parent:
            pts, pend = parent["ts"], parent["ts"] + parent["dur"]
            if ts < pts - EPS_US or end > pend + EPS_US:
                err(errors,
                    f"tid {tid} span {name!r} (id {args['id']}): "
                    f"interval [{ts}, {end}] escapes parent "
                    f"[{pts}, {pend}]")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME",
                        help="fail unless a span with this name is present")
    parser.add_argument("--require-cat", action="append", default=[],
                        metavar="CAT",
                        help="fail unless an event with this cat is present")
    args = parser.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_check: cannot load {args.trace}: {e}", file=sys.stderr)
        return 1

    errors = []
    if not isinstance(doc, dict):
        err(errors, "top level is not an object")
        return 1
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        err(errors, "missing traceEvents array")
        return 1
    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    if not isinstance(dropped, int) or dropped < 0:
        err(errors, f"bad otherData.dropped_events: {dropped!r}")

    shaped = [ev for i, ev in enumerate(events)
              if check_event_shape(i, ev, errors)]
    ids = [ev["args"]["id"] for ev in shaped]
    if len(set(ids)) != len(ids):
        err(errors, "duplicate span ids")
    by_id = {ev["args"]["id"]: ev for ev in shaped}
    for ev in shaped:
        parent = ev["args"]["parent"]
        if parent == 0:
            continue
        pev = by_id.get(parent)
        if pev is None:
            err(errors, f"span {ev['name']!r} (id {ev['args']['id']}): "
                        f"parent id {parent} not in trace")
        elif pev["tid"] != ev["tid"]:
            err(errors, f"span {ev['name']!r} (id {ev['args']['id']}): "
                        f"parent on tid {pev['tid']}, child on "
                        f"tid {ev['tid']}")

    if len(shaped) == len(events):
        check_nesting(shaped, errors)
    else:
        err(errors, "skipping nesting check: malformed events above")

    names = {ev["name"] for ev in shaped}
    cats = {ev["cat"] for ev in shaped}
    for want in args.require_span:
        if want not in names:
            err(errors, f"required span not present: {want!r}")
    for want in args.require_cat:
        if want not in cats:
            err(errors, f"required cat not present: {want!r}")

    if errors:
        print(f"trace_check: FAIL — {len(errors)} violation(s) in "
              f"{args.trace}", file=sys.stderr)
        return 1
    tids = {ev["tid"] for ev in shaped}
    depth = max((ev["args"]["depth"] for ev in shaped), default=0)
    print(f"trace_check: OK — {len(shaped)} events, {len(tids)} thread(s), "
          f"max depth {depth}, {len(cats)} categories, "
          f"{dropped} dropped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
