#!/usr/bin/env python3
"""Structurally validate a TT_TRACE Chrome trace-event export.

Checks that the file parses as JSON, contains complete ("X") spans, that
spans arrived from at least --min-ranks distinct ranks (pids) — i.e. the
cross-rank shipping path worked:

    python3 bench/trace_check.py trace.json --min-ranks 2

Exit 0 on success, 1 on a failed check, 2 on unreadable input.
"""

import argparse
import json
import sys


def fail(message):
    print(f"trace_check: {message}", file=sys.stderr)
    raise SystemExit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace-event JSON from TT_TRACE")
    ap.add_argument("--min-ranks", type=int, default=2,
                    help="minimum distinct pids that must carry spans")
    args = ap.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except OSError as e:
        print(f"trace_check: cannot read '{args.trace}': {e.strerror}",
              file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"trace_check: '{args.trace}' is not valid JSON ({e})",
              file=sys.stderr)
        return 2

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("no traceEvents array")
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        fail("no complete ('X') spans recorded")

    pids = sorted({e["pid"] for e in spans})
    if len(pids) < args.min_ranks:
        fail(f"spans from only {len(pids)} rank(s) {pids}, "
             f"need >= {args.min_ranks}")

    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    names = sorted({e["name"] for e in spans})
    print(f"trace_check: {len(spans)} spans across ranks {pids}, "
          f"{dropped} dropped, {len(names)} distinct span names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
