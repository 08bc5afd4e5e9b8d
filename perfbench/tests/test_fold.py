"""Tests of the benchmark's Python side: trace fold, correctness gate,
aggregation, and the shape of the result line.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import fold  # noqa: E402

TRACE = """{"traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"rank 0"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"thread-0"}},
{"ph":"X","pid":0,"tid":0,"name":"dmrg.sweep","cat":"sweep","ts":0.000,"dur":1000.000},
{"ph":"X","pid":0,"tid":0,"name":"dmrg.bond","cat":"sweep","ts":1.000,"dur":400.000},
{"ph":"X","pid":0,"tid":0,"name":"dmrg.bond","cat":"sweep","ts":401.000,"dur":500.000},
{"ph":"X","pid":1,"tid":0,"name":"dmrg.bond","cat":"sweep","ts":2.000,"dur":999.000},
{"ph":"X","pid":0,"tid":0,"name":"symm.contract","cat":"contract","ts":2.000,"dur":30.000},
{"ph":"X","pid":0,"tid":1,"name":"symm.bin","cat":"contract","ts":3.000,"dur":10.000},
{"ph":"X","pid":1,"tid":0,"name":"symm.bin","cat":"contract","ts":3.000,"dur":20.000},
{"ph":"C","pid":0,"tid":0,"name":"symm.bins","ts":5.000,"args":{"value":2.000}}
],"otherData":{"dropped_events":0}}
"""


def solve_record(**overrides):
    rec = {
        "workload": "w", "seed": 1, "threads": 2, "ranks": 1, "setup_s": 0.02,
        "converged": True, "sweeps": 3, "energy": -1.0, "solve_s": 1.0, "cpu_s": 1.5,
        "peak_rss_mb": 10.0, "energies": [-0.9, -0.99, -1.0],
        "sweep_walls": [0.1, 0.4, 0.45], "sweep_m": [8, 16, 16],
        "engine_matvec_s": 0.5, "engine_matvec_calls": 40, "engine_matvec_flops": 2e9,
        "engine_env_s": 0.2, "engine_env_calls": 12, "engine_env_flops": 1e9,
        "engine_svd_s": 0.1, "engine_svd_calls": 4, "engine_svd_flops": 1e8,
    }
    rec.update(overrides)
    return rec


SPEC = {"max_sweeps": 4, "reference_energy": -1.0, "energy_tol": 1e-6}


class TraceFoldTest(unittest.TestCase):
    def test_fold_counts_root_bonds_and_all_bins(self):
        folded = fold.fold_trace(fold.iter_trace_events(TRACE.splitlines()))
        self.assertEqual(folded["bond_us"], [400.0, 500.0])  # pid 1 bond ignored
        self.assertEqual(sorted(folded["bin_us"]), [10.0, 20.0])  # every rank
        self.assertEqual(folded["contracts"], 1)

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(fold.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(fold.percentile(list(range(1, 21)), 95), 19)
        self.assertEqual(fold.percentile([7], 95), 7)

    def test_layer_metrics_close_against_sweep_wall(self):
        folded = {"bond_us": [400000.0, 450000.0], "bin_us": [1.0, 3.0], "contracts": 2}
        rec = solve_record()
        m = fold.layer_metrics(rec, folded, untraced_solve_s=0.8, gemm_peak_gflops=8.0,
                               svd128_ms=40.0)
        self.assertAlmostEqual(m["dmrg.self_s"], 0.85 - 0.8)
        self.assertAlmostEqual(m["engine.matvec_gflops"], 4.0)
        self.assertAlmostEqual(m["engine.matvec_peak_frac"], 0.5)
        self.assertAlmostEqual(m["engine.svd_share"], 0.1)
        self.assertAlmostEqual(m["proc.cpu_util"], 0.75)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.25)
        self.assertEqual(m["sched.bytes_mb"], 0.0)  # no scheduler on this solve
        self.assertAlmostEqual(fold.closure_error(rec, m), 0.1 / 0.95)

    def test_combine_keeps_counts_and_takes_median_of_times(self):
        folded = {"bond_us": [1.0], "bin_us": [], "contracts": 0}
        a = fold.layer_metrics(solve_record(), folded, 1.0, 8.0, 40.0)
        b = fold.layer_metrics(solve_record(engine_matvec_s=0.7), folded, 1.0, 8.0, 40.0)
        self.assertEqual(fold.repeat_mismatches(a, b), [])
        c = fold.combine([a, b])
        self.assertEqual(c["engine.matvec_calls"], 40)
        self.assertIsInstance(c["engine.matvec_calls"], int)
        self.assertAlmostEqual(c["engine.matvec_s"], 0.6)
        d = fold.layer_metrics(solve_record(engine_env_calls=13), folded, 1.0, 8.0, 40.0)
        self.assertEqual(fold.repeat_mismatches(a, d), ["engine.env_calls"])


class GateTest(unittest.TestCase):
    def test_passing_solve(self):
        self.assertEqual(fold.gate(solve_record(), SPEC), [])
        self.assertEqual(fold.gate(solve_record(), SPEC, parity_energy=-1.0), [])

    def test_each_failure_is_reported(self):
        self.assertTrue(fold.gate(solve_record(converged=False), SPEC))
        self.assertTrue(fold.gate(solve_record(sweeps=5), SPEC))
        self.assertTrue(fold.gate(solve_record(energy=-1.00001), SPEC))
        self.assertTrue(fold.gate(solve_record(energy=float("nan")), SPEC))
        self.assertTrue(fold.gate(solve_record(sched_faults=1), SPEC))
        self.assertTrue(fold.gate(solve_record(trace_dropped=3), SPEC))
        # Rank parity is bitwise: a difference in the last place fails.
        self.assertTrue(fold.gate(solve_record(), SPEC, parity_energy=-1.0000000000000002))


class ResultShapeTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def check_line(self, line, declared):
        result = json.loads(line)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertEqual(set(result["metrics"][m["name"]]), {"value", "unit"})

    def test_untraced_line_carries_every_end_to_end_metric(self):
        values = fold.end_to_end([solve_record()], [0.02, 0.03, 0.01])
        self.assertAlmostEqual(values["sweep_s"], 0.425)
        self.assertEqual(values["setup_s"], 0.02)
        self.check_line(fold.result_line(True, 4, 0, values, fold.E2E_UNITS),
                        self.bench["end_to_end"])

    def test_traced_line_carries_every_per_layer_metric(self):
        folded = {"bond_us": [1.0], "bin_us": [2.0], "contracts": 1}
        values = fold.layer_metrics(solve_record(), folded, 1.0, 8.0, 40.0)
        self.check_line(fold.result_line(True, 4, 0, values, fold.LAYER_UNITS),
                        self.bench["per_layer"])


if __name__ == "__main__":
    unittest.main()
