#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, must print every metric BENCHMARK.json names, with its unit, plus
ops / ops_failed, and end with a correct JSON result; `--workload all`
must report every workload's metrics under its own prefix.

    python3 perfbench/tests/smoke_test.py [--binary <path to fpmbench>]

Without --binary the runs go through perfbench/run.py (which builds first).
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BINARY = None


def run(workload, trace):
    args = ["--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--smoke"]
    if BINARY:
        traces = os.path.join(os.path.dirname(BINARY), "smoke_traces")
        os.makedirs(traces, exist_ok=True)
        cmd = [BINARY, *args, "--trace-dir", traces]
    else:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    return done.returncode, done.stdout


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace, metrics):
        code, out = run(workload, trace)
        self.assertEqual(code, 0, out)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"], out)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertIn("ops %d" % result["attempted"], lines)
        self.assertIn("ops_failed 0", lines)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in metrics))
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            printed = [l for l in lines
                       if l.startswith("metric %s " % m["name"])]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertTrue(printed[0].endswith(" " + m["unit"]), printed[0])
        return out

    def test_every_workload_prints_every_metric(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check(w["name"], 0, self.spec["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                out = self.check(w["name"], 1, self.spec["per_layer"])
                self.assertIn("per-layer spans", out)

    def test_all_runs_every_workload_in_one_process(self):
        code, out = run("all", 0)
        self.assertEqual(code, 0, out)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertTrue(result["correct"], out)
        expected = {"%s.%s" % (w["name"], m["name"]): m["unit"]
                    for w in self.spec["workloads"]
                    for m in self.spec["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         expected)

    def test_rejects_unknown_workload(self):
        code, out = run("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', out)


if __name__ == "__main__":
    if "--binary" in sys.argv:
        i = sys.argv.index("--binary")
        BINARY = os.path.abspath(sys.argv[i + 1])
        del sys.argv[i:i + 2]
    unittest.main()
