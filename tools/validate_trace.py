#!/usr/bin/env python3
"""Validates an odnet Chrome trace (and optional metrics snapshot).

Checks that a trace written by the telemetry subsystem (ODNET_TRACE=1,
DESIGN.md section 12) is well-formed:

  * parses as JSON with a non-empty "traceEvents" array;
  * every complete ("ph": "X") span carries name/cat/pid/tid/ts/dur with
    non-negative timestamps;
  * spans on one thread nest properly (a span that starts inside another
    ends inside it too -- partial overlap means a broken scope);
  * all --require-cat categories are present (a dot-suffixed category such
    as "plan.node" satisfies a required "plan").

With --metrics it also validates the ODNET_METRICS_JSON snapshot schema:
counters are non-negative integers, gauges carry value/high_water with
high_water >= value, histograms carry count/sum/min/max/mean/p50/p90/p99/
p999 with ordered percentiles inside [min, max]. --require-counter NAME
asserts a counter exists with a positive value (used by CI to prove the
serving run actually exercised plan-cache hits); --require-histogram NAME
asserts a histogram exists with count > 0; --require-span NAME asserts the
trace contains a complete span with that exact name (used by CI to prove
the router's queue-wait lane made it into the timeline); --require-span-
prefix PREFIX asserts some complete span name starts with PREFIX (used for
span families whose exact names vary, e.g. any "ServingRouter." span);
--require-counter-prefix PREFIX asserts at least one counter whose name
starts with PREFIX has a positive value (used for metric families such as
the router's "serving.router." counters).

Usage:
  tools/validate_trace.py trace.json \
      --require-cat tensor --require-cat plan \
      --metrics metrics.json --require-counter serving.plan_cache.hits
"""

import argparse
import json
import sys

# Span ts/dur are microseconds printed at ns resolution (%.3f); start and
# duration round independently, so nested end times may disagree by 1-2 ns.
EPS_US = 0.002


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {what} {path}: {e}")


def validate_trace(path, required_cats):
    data = load_json(path, "trace")
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: empty or missing traceEvents")

    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        fail(f"{path}: no complete (ph=X) spans")

    for e in spans:
        for key in ("name", "cat", "pid", "tid", "ts", "dur"):
            if key not in e:
                fail(f"{path}: span missing '{key}': {e}")
        if not isinstance(e["name"], str) or not e["name"]:
            fail(f"{path}: span with empty name: {e}")
        if e["ts"] < 0 or e["dur"] < 0:
            fail(f"{path}: negative ts/dur: {e}")

    cats = {e["cat"] for e in spans}
    for want in required_cats:
        if not any(c == want or c.startswith(want + ".") for c in cats):
            fail(f"{path}: required category '{want}' absent "
                 f"(present: {sorted(cats)})")

    # Nesting: scan each thread's spans in start order, keeping a stack of
    # open end times. The ring buffer drops oldest events first, so an
    # orphaned child (parent evicted) is fine; partial overlap is not.
    by_tid = {}
    for e in spans:
        by_tid.setdefault(e["tid"], []).append(e)
    for tid, tid_spans in sorted(by_tid.items()):
        tid_spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # end times of open spans
        for e in tid_spans:
            end = e["ts"] + e["dur"]
            while stack and e["ts"] >= stack[-1] - EPS_US:
                stack.pop()
            if stack and end > stack[-1] + EPS_US:
                fail(f"{path}: tid {tid}: span '{e['name']}' "
                     f"[{e['ts']}, {end}] partially overlaps an enclosing "
                     f"span ending at {stack[-1]}")
            stack.append(end)

    return spans, cats


def validate_metrics(path, required_counters, required_histograms,
                     required_counter_prefixes):
    m = load_json(path, "metrics snapshot")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(m.get(section), dict):
            fail(f"{path}: missing or non-object '{section}' section")

    for name, v in m["counters"].items():
        if not isinstance(v, int) or v < 0:
            fail(f"{path}: counter '{name}' not a non-negative int: {v!r}")

    for name, g in m["gauges"].items():
        if not isinstance(g, dict):
            fail(f"{path}: gauge '{name}' not an object: {g!r}")
        for key in ("value", "high_water"):
            if not isinstance(g.get(key), int):
                fail(f"{path}: gauge '{name}' missing int '{key}'")
        if g["high_water"] < g["value"]:
            fail(f"{path}: gauge '{name}' high_water below value: {g}")

    hist_keys = ("count", "sum", "min", "max", "mean",
                 "p50", "p90", "p99", "p999")
    for name, h in m["histograms"].items():
        if not isinstance(h, dict):
            fail(f"{path}: histogram '{name}' not an object: {h!r}")
        for key in hist_keys:
            if key not in h:
                fail(f"{path}: histogram '{name}' missing '{key}'")
        if h["count"] < 0:
            fail(f"{path}: histogram '{name}' negative count")
        if h["count"] > 0:
            ordered = [h["min"], h["p50"], h["p90"], h["p99"], h["p999"],
                       h["max"]]
            if ordered != sorted(ordered):
                fail(f"{path}: histogram '{name}' percentiles out of order: "
                     f"{ordered}")
            if not (h["min"] <= h["mean"] <= h["max"]):
                fail(f"{path}: histogram '{name}' mean outside [min, max]")

    for name in required_counters:
        v = m["counters"].get(name)
        if not isinstance(v, int) or v <= 0:
            fail(f"{path}: required counter '{name}' absent or zero "
                 f"(got {v!r})")

    for name in required_histograms:
        h = m["histograms"].get(name)
        if not isinstance(h, dict) or h.get("count", 0) <= 0:
            fail(f"{path}: required histogram '{name}' absent or empty "
                 f"(got {h!r})")

    for prefix in required_counter_prefixes:
        if not any(name.startswith(prefix) and isinstance(v, int) and v > 0
                   for name, v in m["counters"].items()):
            fail(f"{path}: no positive counter starts with '{prefix}' "
                 f"(present: {sorted(m['counters'])})")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace JSON written by "
                        "ODNET_TRACE=1")
    parser.add_argument("--require-cat", action="append", default=[],
                        metavar="CAT", help="category that must appear "
                        "(repeatable; 'plan' matches 'plan.node')")
    parser.add_argument("--metrics", help="ODNET_METRICS_JSON snapshot to "
                        "validate alongside the trace")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME", help="counter that must exist with "
                        "a positive value in --metrics (repeatable)")
    parser.add_argument("--require-histogram", action="append", default=[],
                        metavar="NAME", help="histogram that must exist with "
                        "count > 0 in --metrics (repeatable)")
    parser.add_argument("--require-counter-prefix", action="append",
                        default=[], metavar="PREFIX", help="at least one "
                        "counter whose name starts with PREFIX must have a "
                        "positive value in --metrics (repeatable)")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME", help="complete span with this exact "
                        "name that must appear in the trace (repeatable)")
    parser.add_argument("--require-span-prefix", action="append", default=[],
                        metavar="PREFIX", help="at least one complete span "
                        "whose name starts with PREFIX must appear in the "
                        "trace (repeatable)")
    args = parser.parse_args()

    spans, cats = validate_trace(args.trace, args.require_cat)
    span_names = {e["name"] for e in spans}
    for want in args.require_span:
        if want not in span_names:
            fail(f"{args.trace}: required span '{want}' absent "
                 f"(present: {sorted(span_names)})")
    for want in args.require_span_prefix:
        if not any(name.startswith(want) for name in span_names):
            fail(f"{args.trace}: no span name starts with '{want}' "
                 f"(present: {sorted(span_names)})")
    summary = [f"{len(spans)} spans across {len(cats)} categories"]
    if args.metrics:
        m = validate_metrics(args.metrics, args.require_counter,
                             args.require_histogram,
                             args.require_counter_prefix)
        summary.append(f"{len(m['counters'])} counters, "
                       f"{len(m['gauges'])} gauges, "
                       f"{len(m['histograms'])} histograms")
    elif (args.require_counter or args.require_histogram
          or args.require_counter_prefix):
        fail("--require-counter/--require-histogram/--require-counter-prefix "
             "need --metrics")
    print(f"validate_trace: OK: {'; '.join(summary)}")


if __name__ == "__main__":
    main()
