#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_bench.py

Runs every workload in smoke mode through run.py (which builds first) and
checks the printed metric names against BENCHMARK.json, and that a
deliberately wrong reference value is counted as failures.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("templates_scalar", "optimize_dp", "serve_templates_open")


def run(workload, trace, *extra):
    """Runs one smoke run; returns (exit code, printed metric lines, JSON)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return proc.returncode, printed, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.workloads = [w["name"] for w in spec["workloads"]]
        cls.metrics = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }

    def test_benchmark_workloads_exist(self):
        self.assertEqual(set(self.workloads), set(WORKLOADS))

    def test_smoke_runs_print_benchmark_names(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, printed, result = run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = self.metrics[trace]
                    self.assertEqual(set(printed), set(expected))
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, (value, unit) in printed.items():
                        self.assertEqual(unit, expected[name], name)
                        self.assertEqual(result["metrics"][name]["unit"],
                                         expected[name], name)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_wrong_reference_counts_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = run(workload, 0, "--wrong-reference")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["attempted"], result["failed"])


if __name__ == "__main__":
    unittest.main()
