#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py          # from the repository root

Checks that counter-derived per-layer metrics and outputs repeat exactly at
a seed, that they do not depend on the thread count, that the output
checker fails on a corrupted output, and that the committed reference
matches at the default seed. Runs short phases; takes a few minutes.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["defense_game", "ownership_sweep", "large_grid"]
DEFAULT_SEED = 2015

# Per-layer metrics derived from registry counters alone. Self times,
# shares and pool/alloc figures that depend on timing or on the number of
# workers are left out.
COUNTER_METRICS = [
    "trace.units", "lp.solves", "lp.pivots", "cps.matrices",
    "core.adversary.plans", "lp.solves_per_unit", "lp.pivots_per_solve",
    "lp.refactorizations_per_solve", "lp.eta_updates_per_solve",
    "lp.bound_flips_per_solve", "lp.degenerate_pivot_frac",
    "lp.warm_start_frac", "lp.warm_reject_frac",
    "lp.basis_repairs_per_solve", "lp.bnb_nodes_per_unit",
    "lp.failures_per_unit", "flow.welfare_solves_per_unit",
    "cps.matrices_per_unit", "cps.target_solves_per_matrix",
    "core.game_plays_per_unit", "core.adversary.search_nodes_per_plan",
    "sim.failed_trials", "sim.retries",
]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace",
           str(trace), "--min-units", "1", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    info = {}
    for line in lines:
        for field in line.split():
            key, sep, value = field.partition("=")
            if sep:
                info[key] = value
    return p.returncode, result, info, p.stderr


def counter_metrics(result):
    return {k: result["metrics"][k]["value"] for k in COUNTER_METRICS}


class PerfbenchTest(unittest.TestCase):
    def test_counters_and_outputs_repeat_at_a_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code1, r1, i1, _ = run(w, 7, 1)
                code2, r2, i2, _ = run(w, 7, 1)
                self.assertEqual((code1, code2), (0, 0))
                self.assertEqual(counter_metrics(r1), counter_metrics(r2))
                self.assertEqual(i1["traced_outputs_fnv1a"],
                                 i2["traced_outputs_fnv1a"])

    def test_counters_do_not_depend_on_threads(self):
        nproc = os.cpu_count() or 1
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code1, r1, i1, _ = run(w, 8, 1, "--threads", "1")
                code2, r2, i2, _ = run(w, 8, 1, "--threads", str(nproc))
                self.assertEqual((code1, code2), (0, 0))
                self.assertEqual(counter_metrics(r1), counter_metrics(r2))
                self.assertEqual(i1["traced_outputs_fnv1a"],
                                 i2["traced_outputs_fnv1a"])

    def test_corrupted_output_fails_the_check(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, r, _, err = run(w, 9, 0, "--corrupt-unit", "0")
                self.assertEqual(code, 1)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertIn("unit 0 failed", err)

    def test_reference_matches_at_default_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, r, info, _ = run(w, DEFAULT_SEED, 0)
                self.assertEqual(code, 0)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertEqual(info["reference_compared"],
                                 str(r["attempted"]))

    def test_bad_arguments_exit_2_without_a_result(self):
        for extra in (["--bogus", "1"], ["--threads", "x"]):
            code, r, _, _ = run("large_grid", 1, 0, *extra)
            self.assertEqual(code, 2)
            self.assertIsNone(r)
        code, r, _, _ = run("no_such_workload", 1, 0)
        self.assertEqual(code, 2)
        self.assertIsNone(r)


if __name__ == "__main__":
    unittest.main(verbosity=2)
