"""Smoke test of the benchmark itself, at the tiny sizes.

Run from the root of a checkout:

    python3 -m unittest perfbench/test_smoke.py

Every workload is run once untraced and once traced. Each run must print
every metric BENCHMARK.json names, with its unit, and no operation may
fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run(workload: str, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


class SmokeTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int, metrics: list[dict]) -> None:
        result, stdout = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertIn("# failed_ops_ratio 0.0 ratio", stdout)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0, BENCHMARK["end_to_end"])

    def test_per_layer_metrics(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1, BENCHMARK["per_layer"])


if __name__ == "__main__":
    unittest.main()
