#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON exported by the tracing subsystem.

Checks two things about a trace written by obs::writeChromeTrace (for
CI, the one the traced overload burst of bench_serving exports):

Well-formedness: the document is a JSON object whose "traceEvents"
array is non-empty, every event carries a name and a known phase
letter ("X" complete span, "b"/"e" async pair, "i" instant, "C"
counter, "M" metadata), and every non-metadata event has a numeric
timestamp.

Coverage: the serving request lifecycle and the engine phase
instrumentation both actually fired —

  - "queue_wait" complete spans (admit -> batch close, per request);
  - "batch_close" instants, each carrying a recognizable close reason
    (full / delay_expired / expedited / drain);
  - "batch_compute" complete spans (the forward pass over a batch);
  - "shed" instants (overload actually shed doomed requests), unless
    --no-shed;
  - "request" async begin/end events with at least one id seen on both
    sides (a request tracked from submit to resolution);
  - engine phase spans (encode / inner_product / activation / output),
    with inner_product observed at >= --min-seg-values distinct
    segment offsets (the per-segment streaming structure is visible,
    not just one aggregate span) and from >= 2 distinct network stages
    (the "stage" argument: per-stage spans on the batched path serving
    runs).

Exit status: 0 when valid, 1 on failed coverage checks, 2 on
malformed input.
"""

import argparse
import json
import sys

KNOWN_PH = {"X", "b", "e", "i", "C", "M"}
# Distinct "stage" values inner_product spans must show: the traced
# serving bench runs LeNet-class networks with >= 2 hidden stages.
MIN_STAGES = 2
CLOSE_REASONS = {"full", "delay_expired", "expedited", "drain"}


def malformed(msg):
    sys.stderr.write(f"trace_check: {msg}\n")
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome trace JSON to validate")
    ap.add_argument("--min-seg-values", type=int, default=2,
                    help="distinct inner_product segment offsets "
                         "required (default 2)")
    ap.add_argument("--no-shed", action="store_true",
                    help="do not require shed events (for traces of "
                         "non-overloaded runs)")
    args = ap.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        malformed(f"cannot read {args.trace}: {e}")
    except json.JSONDecodeError as e:
        malformed(f"{args.trace} is not valid JSON: {e}")

    if not isinstance(doc, dict):
        malformed("top level is not a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        malformed("no traceEvents array")
    if not events:
        malformed("traceEvents is empty")

    for i, e in enumerate(events):
        if not isinstance(e, dict):
            malformed(f"event {i} is not an object")
        ph = e.get("ph")
        if ph not in KNOWN_PH:
            malformed(f"event {i} has unknown phase {ph!r}")
        if not isinstance(e.get("name"), str) or not e["name"]:
            malformed(f"event {i} has no name")
        if ph != "M" and not isinstance(e.get("ts"), (int, float)):
            malformed(f"event {i} ({e['name']}) has no numeric ts")
        if ph == "X" and not isinstance(e.get("dur"), (int, float)):
            malformed(f"event {i} ({e['name']}) is 'X' without dur")

    def count(name, ph):
        return sum(1 for e in events
                   if e["name"] == name and e["ph"] == ph)

    ok = True

    def require(label, passed, detail):
        nonlocal ok
        print(f"trace_check: {label}: {detail}: "
              f"{'OK' if passed else 'MISSING'}")
        ok = ok and passed

    # --- request lifecycle -------------------------------------------
    n = count("queue_wait", "X")
    require("queue-wait spans", n > 0, f"{n} found")

    closes = [e for e in events
              if e["name"] == "batch_close" and e["ph"] == "i"]
    reasons = {e.get("args", {}).get("reason") for e in closes}
    require("batch-close instants", len(closes) > 0,
            f"{len(closes)} found, reasons {sorted(map(str, reasons))}")
    bad = reasons - CLOSE_REASONS
    require("batch-close reasons recognizable", len(closes) > 0 and
            not bad, f"unknown: {sorted(map(str, bad)) or 'none'}")

    n = count("batch_compute", "X")
    require("batch-compute spans", n > 0, f"{n} found")

    if not args.no_shed:
        n = count("shed", "i")
        require("shed instants", n > 0, f"{n} found")

    begins = {e.get("id") for e in events
              if e["name"] == "request" and e["ph"] == "b"}
    ends = {e.get("id") for e in events
            if e["name"] == "request" and e["ph"] == "e"}
    require("request async begin/end",
            len(begins) > 0 and len(ends) > 0,
            f"{len(begins)} begins, {len(ends)} ends")
    paired = begins & ends - {None}
    require("request ids paired", len(paired) > 0,
            f"{len(paired)} ids seen on both sides")

    # --- engine phases -----------------------------------------------
    for phase in ("encode", "inner_product", "activation", "output"):
        n = count(phase, "X")
        require(f"{phase} spans", n > 0, f"{n} found")

    segs = {e.get("args", {}).get("seg") for e in events
            if e["name"] == "inner_product" and e["ph"] == "X"}
    segs.discard(None)
    require("inner_product segment diversity",
            len(segs) >= args.min_seg_values,
            f"{len(segs)} distinct seg offsets "
            f"(need >= {args.min_seg_values})")

    stages = {e.get("args", {}).get("stage") for e in events
              if e["name"] == "inner_product" and e["ph"] == "X"}
    stages.discard(None)
    require("inner_product stage diversity",
            len(stages) >= MIN_STAGES,
            f"{len(stages)} distinct stages (need >= {MIN_STAGES})")

    if not ok:
        sys.exit(1)
    print(f"trace_check: {args.trace}: {len(events)} events, all "
          "checks passed")


if __name__ == "__main__":
    main()
