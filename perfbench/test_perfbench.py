#!/usr/bin/env python3
"""Smoke tests of the benchmark at toy sizes (--smoke).

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py on first use, so the first run takes as
long as a build.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runnable by name but not in BENCHMARK.json (NOTES.md says why); the smoke
# test keeps them working.
EXTRA_WORKLOADS = ["batch_dp", "serve_edit"]


def run_benchmark(*args):
    """Runs run.py; returns (exit code, parsed last stdout line, stdout)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr[-2000:]


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_is_printed_with_its_unit(self):
        names = [w["name"] for w in self.spec["workloads"]] + EXTRA_WORKLOADS
        for name in names:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    code, result, out = run_benchmark(
                        "--workload", name, "--seed", "1",
                        "--seconds", "1", "--trace", trace, "--smoke")
                    self.assertEqual(code, 0, out)
                    self.assertIsNotNone(result, out)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0, out)
                    wanted = {m["name"]: m["unit"] for m in self.spec[kind]}
                    self.assertEqual(set(result["metrics"]), set(wanted))
                    for metric_name, unit in wanted.items():
                        metric = result["metrics"][metric_name]
                        self.assertEqual(metric["unit"], unit, metric_name)
                        self.assertIsInstance(metric["value"], (int, float))

    def test_corrupted_digest_fails_the_run(self):
        code, result, out = run_benchmark(
            "--workload", "batch_s", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--smoke", "--expect-digest", "4878:1.5")
        self.assertNotEqual(code, 0, out)
        self.assertIsNotNone(result, out)
        self.assertFalse(result["correct"])
        self.assertIn("digest differs", out)


if __name__ == "__main__":
    unittest.main()
