#!/usr/bin/env python3
"""Compare fresh bench CSV/metrics runs against a committed trajectory snapshot.

The committed snapshots under bench/trajectories/BENCH_*.json record CSV rows
from prior --csv bench runs (see the "notes" field of the snapshot for the
measured-vs-replayed caveats) plus tt-metrics-v1 documents from --metrics
runs. This script re-matches rows from one or more fresh CSV files against
the snapshot and flags wall-time regressions:

    python3 bench/trajectory_diff.py fig9_ranks2.csv [more.csv ...]
    python3 bench/trajectory_diff.py --baseline bench/trajectories/BENCH_2026-08-07.json \
        --threshold 0.10 fig9.csv

Rows are matched on their identity fields (driver, workload, source, engine,
node/rank counts, ...); the time-like fields of matched pairs are then
compared. A fresh time more than ``threshold`` (default 10%) above the
committed one counts as a regression and the script exits 1 — unless
``--allow-regressions`` is passed, which reports but exits 0 (the CI smoke
mode: absolute seconds are host-dependent, so shared runners only verify the
pipeline and print the drift).

Fresh inputs ending in .json are parsed as tt-metrics-v1 documents (the
--metrics output of the bench drivers). Their sections are matched against
the snapshot's ``runs[].metrics`` documents on (driver, section name), and
the per-category percentage breakdown keys (``pct.*``) are diffed: a category
share shifting by more than ``--pct-threshold`` percentage points (default
10) counts as a regression. Unlike raw seconds, the *shape* of the breakdown
transfers across hosts, so these checks stay meaningful on shared runners.
"""

import argparse
import csv
import glob
import json
import os
import sys

# Fields that identify a row; everything else is a measured value. A field
# only participates when both rows carry it.
IDENTITY_FIELDS = (
    "driver", "workload", "machine", "source", "series", "panel", "engine",
    "mode", "regions", "sweep", "m_bench", "m_equiv", "nodes", "ppn",
    "ranks",
)

# Time-like value fields, checked against the regression threshold.
TIME_FIELDS = ("seconds", "sim_s", "wall_s")


def default_baseline():
    here = os.path.dirname(os.path.abspath(__file__))
    snaps = sorted(glob.glob(os.path.join(here, "trajectories", "BENCH_*.json")))
    return snaps[-1] if snaps else None


def identity(row):
    return tuple((k, str(row[k])) for k in IDENTITY_FIELDS if k in row and row[k] != "")


def fail(message):
    """Exit 2 with a one-line diagnostic instead of a traceback."""
    print(f"trajectory_diff: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_baseline(path):
    """Return (csv_rows, metrics_sections) from a trajectory snapshot.

    metrics_sections maps (driver, section_name) -> {key: value} from the
    snapshot's runs[].metrics tt-metrics-v1 documents.
    """
    try:
        with open(path) as f:
            snap = json.load(f)
    except OSError as e:
        fail(f"cannot read baseline snapshot '{path}': {e.strerror}")
    except json.JSONDecodeError as e:
        fail(f"baseline snapshot '{path}' is not valid JSON ({e})")
    rows = []
    sections = {}
    for run in snap.get("runs", []):
        rows.extend(run.get("rows", []))
        doc = run.get("metrics")
        if doc:
            sections.update(metrics_sections(doc))
    if not rows and not sections:
        fail(f"baseline snapshot '{path}' contains no rows or metrics "
             "(expected runs[].rows / runs[].metrics from bench runs)")
    return rows, sections


def metrics_sections(doc):
    """Flatten a tt-metrics-v1 document to {(driver, section): values}."""
    if doc.get("schema") != "tt-metrics-v1":
        fail(f"metrics document has schema {doc.get('schema')!r}, "
             "expected 'tt-metrics-v1'")
    driver = doc.get("driver", "")
    return {(driver, s["name"]): s.get("values", {})
            for s in doc.get("sections", [])}


def load_fresh_metrics(path):
    try:
        with open(path) as f:
            return metrics_sections(json.load(f))
    except OSError as e:
        fail(f"cannot read metrics '{path}': {e.strerror}")
    except json.JSONDecodeError as e:
        fail(f"'{path}' is not valid JSON ({e}) — expected a --metrics "
             "bench output")


def load_csv_rows(path):
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None:
                fail(f"'{path}' is empty — expected a --csv bench output with a "
                     "header row")
            if not any(t in reader.fieldnames for t in TIME_FIELDS):
                fail(f"'{path}' has none of the time columns "
                     f"({', '.join(TIME_FIELDS)}) — is this a --csv bench output?")
            return list(reader)
    except OSError as e:
        fail(f"cannot read CSV '{path}': {e.strerror}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", nargs="+",
                    help="fresh runs: --csv outputs (*.csv) and/or "
                         "--metrics outputs (*.json)")
    ap.add_argument("--baseline", default=default_baseline(),
                    help="trajectory snapshot (default: newest bench/trajectories/BENCH_*.json)")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative wall-time increase that counts as a regression")
    ap.add_argument("--pct-threshold", type=float, default=10.0,
                    help="percentage-point breakdown shift that counts as a "
                         "regression (metrics inputs)")
    ap.add_argument("--allow-regressions", action="store_true",
                    help="report regressions but exit 0 (CI smoke mode)")
    args = ap.parse_args()

    if not args.baseline or not os.path.exists(args.baseline):
        print("trajectory_diff: no baseline snapshot found", file=sys.stderr)
        return 2

    base_rows, base_sections = load_baseline(args.baseline)
    base_by_id = {}
    for row in base_rows:
        base_by_id[identity(row)] = row

    matched = 0
    unmatched = 0
    regressions = []
    for path in (p for p in args.fresh if p.endswith(".json")):
        for (driver, sec), values in load_fresh_metrics(path).items():
            base = base_sections.get((driver, sec))
            if base is None:
                unmatched += 1
                continue
            matched += 1
            for key, fresh_v in values.items():
                if not key.startswith("pct.") or key not in base:
                    continue
                try:
                    shift = float(fresh_v) - float(base[key])
                except (TypeError, ValueError):
                    fail(f"non-numeric '{key}' in '{path}' "
                         f"(fresh={fresh_v!r}, baseline={base[key]!r})")
                bad = abs(shift) > args.pct_threshold
                print(f"{'REGRESSION' if bad else 'ok':10s} "
                      f"{key}: {float(base[key]):.1f}% -> {float(fresh_v):.1f}% "
                      f"({shift:+.1f}pp)  driver={driver} section={sec}")
                if bad:
                    regressions.append((f"driver={driver} section={sec}", key,
                                        float(base[key]), float(fresh_v)))

    for path in (p for p in args.fresh if not p.endswith(".json")):
        for row in load_csv_rows(path):
            base = base_by_id.get(identity(row))
            if base is None:
                unmatched += 1
                continue
            matched += 1
            for field in TIME_FIELDS:
                if field not in row or field not in base or row[field] == "":
                    continue
                try:
                    fresh_t = float(row[field])
                    base_t = float(base[field])
                except ValueError:
                    fail(f"non-numeric '{field}' in '{path}' "
                         f"(fresh={row[field]!r}, baseline={base[field]!r})")
                if base_t <= 0.0:
                    continue
                drift = fresh_t / base_t - 1.0
                label = " ".join(f"{k}={v}" for k, v in identity(row))
                print(f"{'REGRESSION' if drift > args.threshold else 'ok':10s} "
                      f"{field}: {base_t:.3e} -> {fresh_t:.3e} ({drift:+.1%})  {label}")
                if drift > args.threshold:
                    regressions.append((label, field, base_t, fresh_t))

    print(f"\ntrajectory_diff: {matched} rows/sections matched against "
          f"{os.path.basename(args.baseline)}, {unmatched} fresh entries had "
          f"no committed counterpart, {len(regressions)} regressions "
          f"(time beyond {args.threshold:.0%} / breakdown beyond "
          f"{args.pct_threshold:.0f}pp).")
    if regressions and not args.allow_regressions:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
