"""Tests of run.py's checks and of the traced run's trace file.

    python3 -m unittest -v odbench/test_run.py

The trace test needs the benchmark built (python3 odbench/run.py
--self-test builds it first); it is skipped otherwise.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def good_result(trace=False):
    names = run.PER_LAYER if trace else run.END_TO_END
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": "ms"} for n in names}}


class MetricNamesTest(unittest.TestCase):
    def test_every_metric_name_matches_the_pattern(self):
        for name in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, NAME)
            self.assertRegex(name, run.METRIC_NAME)

    def test_benchmark_json_lists_the_metrics_run_py_checks(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json next to the benchmark")
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
        e2e = [m["name"] for m in spec["end_to_end"]]
        layers = [m["name"] for m in spec["per_layer"]]
        for name in e2e + layers:
            self.assertRegex(name, NAME)
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


class CheckResultTest(unittest.TestCase):
    def test_accepts_a_complete_result(self):
        for trace in (False, True):
            self.assertEqual(run.check_result(good_result(trace), trace), [])

    def test_rejects_missing_extra_and_non_finite_metrics(self):
        r = good_result()
        del r["metrics"]["train_loss"]
        self.assertTrue(run.check_result(r, False))
        r = good_result()
        r["metrics"]["pec.us_per_row"] = {"value": 1.0, "unit": "us"}
        self.assertTrue(run.check_result(r, False))
        r = good_result()
        r["metrics"]["setup_s"]["value"] = float("nan")
        self.assertTrue(run.check_result(r, False))
        r = good_result()
        r["metrics"]["setup_s"]["unit"] = "bad unit"
        self.assertTrue(run.check_result(r, False))
        r = good_result()
        r["attempted"] = 0
        self.assertTrue(run.check_result(r, False))


class EnvironmentTest(unittest.TestCase):
    def test_refuses_odnet_variables(self):
        self.assertEqual(run.odnet_variables({"ODNET_NUM_THREADS": "1",
                                              "PATH": "/bin"}),
                         ["ODNET_NUM_THREADS"])
        env = dict(os.environ, ODNET_TRACE="1")
        proc = subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
             "--workload", "train", "--seed", "1", "--seconds", "1"],
            env=env, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")
        self.assertIn("ODNET_TRACE", proc.stderr)


class TraceFileTest(unittest.TestCase):
    def test_traced_run_writes_a_valid_chrome_trace(self):
        if not os.path.isfile(run.BINARY):
            self.skipTest("benchmark not built")
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            trace = os.path.join(tmp, "trace.json")
            proc = subprocess.run(
                [run.BINARY, "--workload", "train", "--seed", "3",
                 "--seconds", "1", "--trace", "1", "--trace-file", trace],
                capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(run.check_result(result, True), [])
            self.assertTrue(result["correct"])
            check = subprocess.run(
                [sys.executable, run.VALIDATE_TRACE, trace],
                capture_output=True, text=True, timeout=60)
            self.assertEqual(check.returncode, 0, check.stderr)


if __name__ == "__main__":
    unittest.main()
