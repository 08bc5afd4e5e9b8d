"""Pure helpers of the benchmark: trace fold, per-solve gate, aggregation
into the metrics run.py prints. Kept apart from run.py so that
tests/test_fold.py can check them without building anything."""

import json
import re
import statistics

# End-to-end metrics (tracing off): name -> unit.
E2E_UNITS = {
    "solve_s": "s",
    "sweep_s": "s",
    "cpu_s": "s",
    "sweeps": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics (the traced run): name -> unit.
LAYER_UNITS = {
    "engine.matvec_s": "s",
    "engine.matvec_calls": "count",
    "engine.matvec_gflop": "GFLOP",
    "engine.matvec_gflops": "GFLOP/s",
    "engine.matvec_peak_frac": "frac",
    "engine.env_s": "s",
    "engine.env_calls": "count",
    "engine.env_gflop": "GFLOP",
    "engine.svd_s": "s",
    "engine.svd_calls": "count",
    "engine.svd_share": "frac",
    "dmrg.self_s": "s",
    "dmrg.bond_p50_ms": "ms",
    "dmrg.bond_p95_ms": "ms",
    "symm.contracts": "count",
    "symm.bins": "count",
    "symm.bin_p50_us": "us",
    "symm.bin_p95_us": "us",
    "sched.contractions": "count",
    "sched.bytes_mb": "MB",
    "sched.comm_s": "s",
    "sched.critical_busy_s": "s",
    "sched.imbalance_s": "s",
    "sched.faults": "count",
    "linalg.gemm_peak_gflops": "GFLOP/s",
    "linalg.svd128_ms": "ms",
    "proc.cpu_util": "frac",
    "trace.overhead_frac": "frac",
}

# Counts that must repeat exactly across the two traced solves.
REPEATED_COUNTS = (
    "engine.matvec_calls",
    "engine.matvec_gflop",
    "engine.env_calls",
    "engine.env_gflop",
    "engine.svd_calls",
    "symm.contracts",
    "symm.bins",
    "sched.contractions",
    "sched.bytes_mb",
    "sweeps",
)

# |engine + dmrg.self - sweep wall| / sweep wall must stay below this: the
# engine calls and the remaining bond work must account for the sweeps.
CLOSURE_TOL = 0.02


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


# One complete ("X") span as rt::Trace writes it, one event per line. A regex
# rather than json.loads per line: a traced electrons solve holds ~10^6 spans.
_SPAN = re.compile(r'^\{"ph":"X","pid":(\d+),.*?"name":"([^"\\]*)".*"dur":([-+.0-9eE]+)\}')


def iter_trace_events(lines):
    """Complete events of a Chrome trace written by rt::Trace. Yields
    (name, pid, duration in microseconds)."""
    for line in lines:
        m = _SPAN.match(line)
        if m:
            yield m.group(2), int(m.group(1)), float(m.group(3))


def fold_trace(events):
    """Fold the spans the library records into the dmrg and symm layers.

    Returns bond durations (root process), symm.contract count, and symm.bin
    durations over every rank."""
    bond_us, bin_us = [], []
    contracts = 0
    for name, pid, dur in events:
        if name == "dmrg.bond" and pid == 0:
            bond_us.append(dur)
        elif name == "symm.bin":
            bin_us.append(dur)
        elif name == "symm.contract":
            contracts += 1
    return {"bond_us": bond_us, "bin_us": bin_us, "contracts": contracts}


def final_sweep_s(rec):
    """Median wall time of the sweeps at the workload's final bond dimension."""
    final_m = max(rec["sweep_m"])
    return median([w for w, m in zip(rec["sweep_walls"], rec["sweep_m"]) if m == final_m])


def gate(rec, spec, parity_energy=None):
    """Reasons a solve record fails the correctness gate (empty when it
    passes). `spec` is the workload description from `tt_perfbench describe`;
    `parity_energy` is the energy of the same problem solved without ranks."""
    problems = []
    if not rec.get("converged", False):
        problems.append("not converged within %d sweeps" % spec["max_sweeps"])
    if rec["sweeps"] > spec["max_sweeps"]:
        problems.append("ran %d sweeps, cap %d" % (rec["sweeps"], spec["max_sweeps"]))
    err = abs(rec["energy"] - spec["reference_energy"])
    if not err <= spec["energy_tol"]:
        problems.append("energy %.12f is %.2e from reference %.12f (tolerance %.0e)"
                        % (rec["energy"], err, spec["reference_energy"], spec["energy_tol"]))
    if parity_energy is not None and rec["energy"] != parity_energy:
        problems.append("rank-parity broken: %r with ranks, %r without"
                        % (rec["energy"], parity_energy))
    if rec.get("sched_faults", 0) > 0:
        problems.append("%d scheduler faults" % rec["sched_faults"])
    if rec.get("trace_dropped", 0) > 0:
        problems.append("tracer dropped %d events" % rec["trace_dropped"])
    return problems


def end_to_end(solves, setups):
    """End-to-end metrics from untraced solve records and set-up samples."""
    return {
        "solve_s": median([r["solve_s"] for r in solves]),
        "sweep_s": median([final_sweep_s(r) for r in solves]),
        "cpu_s": median([r["cpu_s"] for r in solves]),
        "sweeps": median([r["sweeps"] for r in solves]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in solves]),
        "setup_s": median(setups),
    }


def layer_metrics(rec, folded, untraced_solve_s, gemm_peak_gflops, svd128_ms):
    """Per-layer metrics of one traced solve record and its folded trace."""
    engine_s = rec["engine_matvec_s"] + rec["engine_env_s"] + rec["engine_svd_s"]
    bond_s = sum(folded["bond_us"]) * 1e-6
    matvec_gflop = rec["engine_matvec_flops"] / 1e9
    matvec_gflops = matvec_gflop / rec["engine_matvec_s"]
    bins = folded["bin_us"]
    m = {
        "engine.matvec_s": rec["engine_matvec_s"],
        "engine.matvec_calls": rec["engine_matvec_calls"],
        "engine.matvec_gflop": matvec_gflop,
        "engine.matvec_gflops": matvec_gflops,
        "engine.matvec_peak_frac": matvec_gflops / gemm_peak_gflops,
        "engine.env_s": rec["engine_env_s"],
        "engine.env_calls": rec["engine_env_calls"],
        "engine.env_gflop": rec["engine_env_flops"] / 1e9,
        "engine.svd_s": rec["engine_svd_s"],
        "engine.svd_calls": rec["engine_svd_calls"],
        "engine.svd_share": rec["engine_svd_s"] / rec["solve_s"],
        "dmrg.self_s": bond_s - engine_s,
        "dmrg.bond_p50_ms": percentile(folded["bond_us"], 50) * 1e-3,
        "dmrg.bond_p95_ms": percentile(folded["bond_us"], 95) * 1e-3,
        "symm.contracts": folded["contracts"],
        "symm.bins": len(bins),
        "symm.bin_p50_us": percentile(bins, 50) if bins else 0.0,
        "symm.bin_p95_us": percentile(bins, 95) if bins else 0.0,
        "sched.contractions": rec.get("sched_contractions", 0),
        "sched.bytes_mb": rec.get("sched_bytes", 0.0) / 1e6,
        "sched.comm_s": rec.get("sched_comm_s", 0.0),
        "sched.critical_busy_s": rec.get("sched_critical_busy_s", 0.0),
        "sched.imbalance_s": rec.get("sched_imbalance_s", 0.0),
        "sched.faults": rec.get("sched_faults", 0),
        "linalg.gemm_peak_gflops": gemm_peak_gflops,
        "linalg.svd128_ms": svd128_ms,
        "proc.cpu_util": rec["cpu_s"] / (rec["solve_s"] * rec["threads"] * rec["ranks"]),
        "trace.overhead_frac": rec["solve_s"] / untraced_solve_s - 1.0,
        "sweeps": rec["sweeps"],
    }
    return m


def closure_error(rec, metrics):
    """Relative gap between engine + dmrg.self and the summed sweep walls."""
    wall = sum(rec["sweep_walls"])
    layers = (metrics["engine.matvec_s"] + metrics["engine.env_s"]
              + metrics["engine.svd_s"] + metrics["dmrg.self_s"])
    return abs(layers - wall) / wall


def combine(layers):
    """Per-layer metrics of several traced solves: a value they all share
    (every count) as is, otherwise the median."""
    return {k: layers[0][k] if all(m[k] == layers[0][k] for m in layers)
            else median([m[k] for m in layers]) for k in LAYER_UNITS}


def repeat_mismatches(a, b):
    """Count metrics that differ between two traced solves."""
    return [k for k in REPEATED_COUNTS if a[k] != b[k]]


def result_line(correct, attempted, failed, values, units):
    """The benchmark's final stdout line: exactly these four keys."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    })
