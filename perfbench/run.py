#!/usr/bin/env python3
"""End-to-end DMRG ground-state benchmark (see README.md).

    python3 perfbench/run.py --workload spins-m512 --seed 1 --seconds 45 --trace 0

Builds tt_perfbench from the library sources (first run only), then runs the
workload as fresh child processes with a pinned thread environment:

  * on a ranks workload, one solve of the same problem without ranks on as
    many threads, the reference for the bitwise rank-parity gate;
  * --trace 0: SETUP_CHILDREN processes that each build the solver five
    times, then the workload's timed solves, as many as fit in --seconds
    (at least one);
  * --trace 1: one untraced and two traced solves, folded into the
    per-layer table.

Every child is one attempted operation; one that fails its gate counts as
failed. The last stdout line is the JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fold  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tt_perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")

SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dmrg", "dmrg.hpp")):
        raise RuntimeError("library sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    started = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "tt_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr,
                   timeout=max(60, BUILD_TIMEOUT_S - (time.monotonic() - started)))


def pinned_env(threads):
    """The child's whole environment. Nothing is inherited from the caller's
    shell, so thread counts, OpenMP waiting and the scheduler's spawn mode
    are the same on every run."""
    return {
        "LC_ALL": "C",
        "TT_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "OMP_WAIT_POLICY": "passive",
        "TT_SCHED_MODE": "process",
        "TT_BACKEND": "builtin",
    }


def run_child(args, env):
    """Run tt_perfbench with `args`; returns its JSON record or None."""
    proc = subprocess.Popen([BINARY] + args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the root and its forked ranks
        proc.communicate()
        log("child %s timed out" % " ".join(args))
        return None
    if proc.returncode != 0:
        log("child %s exited %d: %s" % (" ".join(args), proc.returncode, err.strip()))
        return None
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("child %s printed no record" % " ".join(args))
        return None


class Tally:
    """Attempted/failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, rec, problems, what):
        self.attempted += 1
        if rec is None or problems:
            self.failed += 1
            log("%s failed: %s" % (what, "; ".join(problems) if rec else "no record"))
            return False
        return True


def read_trace(path):
    with open(path) as f:
        folded = fold.fold_trace(fold.iter_trace_events(f))
    os.remove(path)
    return folded


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    build()
    spec = run_child(["describe", "--workload", a.workload], {})
    if spec is None:
        raise RuntimeError("unknown workload %s" % a.workload)
    env = pinned_env(spec["threads"])
    print(json.dumps({"workload": a.workload, "seed": a.seed, "env": env}), flush=True)
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    tally = Tally()

    parity = None
    if spec["ranks"] > 1:
        rec = run_child(["solve", "--local"] + base,
                        pinned_env(spec["threads"] * spec["ranks"]))
        if tally.check(rec, fold.gate(rec, spec) if rec else [], "local reference solve"):
            parity = rec["energy"]

    def solve(extra, what):
        rec = run_child(["solve"] + base + extra, env)
        tally.check(rec, fold.gate(rec, spec, parity) if rec else [], what)
        if rec is not None:
            print(json.dumps(rec), flush=True)
        return rec

    if a.trace == 0:
        setups = []
        for i in range(SETUP_CHILDREN):
            rec = run_child(["setup"] + base, env)
            if tally.check(rec, [], "setup %d" % i):
                setups += rec["setup_samples"]
        solves, attempts = [], 0
        started = time.monotonic()
        while attempts < spec["timed_solves"]:
            if attempts and (time.monotonic() - started) * (attempts + 1) / attempts > a.seconds:
                break  # the next solve would overrun the run's time
            rec = solve([], "solve %d" % attempts)
            attempts += 1
            if rec is not None:
                solves.append(rec)
        if not solves:
            raise RuntimeError("no solve produced a record")
        if not setups:
            raise RuntimeError("no set-up sample")
        values = fold.end_to_end(solves, setups)
        units = fold.E2E_UNITS
    else:
        untraced = solve([], "untraced solve")
        os.makedirs(TRACE_DIR, exist_ok=True)
        paths = [os.path.join(TRACE_DIR, "%s-%d.json" % (a.workload, i)) for i in range(2)]
        try:
            traced = [solve(["--trace", path] + (["--ceilings"] if i == 0 else []),
                            "traced solve %d" % i) for i, path in enumerate(paths)]
            if untraced is None or None in traced:
                raise RuntimeError("a solve of the traced run produced no record")
            ceilings = (traced[0]["gemm_peak_gflops"], traced[0]["svd128_ms"])
            layers = []
            for i, rec in enumerate(traced):
                m = fold.layer_metrics(rec, read_trace(paths[i]), untraced["solve_s"],
                                       *ceilings)
                err = fold.closure_error(rec, m)
                tally.check(rec, [] if err <= fold.CLOSURE_TOL else
                            ["engine + dmrg.self miss the sweep wall by %.2f%%" % (100 * err)],
                            "layer closure of traced solve %d" % i)
                layers.append(m)
        finally:
            shutil.rmtree(TRACE_DIR, ignore_errors=True)
        mismatched = fold.repeat_mismatches(*layers)
        tally.check(layers, ["counts differ across traced solves: " + ", ".join(mismatched)]
                    if mismatched else [], "count repeat")
        values = fold.combine(layers)
        units = fold.LAYER_UNITS

    print(fold.result_line(tally.failed == 0, tally.attempted, tally.failed, values, units))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        sys.exit(1)
