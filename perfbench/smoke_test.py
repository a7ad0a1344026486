#!/usr/bin/env python3
"""Quick-mode smoke test of the benchmark.

Runs every workload at toy size (`--quick`), once per pass (`--trace 0`
and `--trace 1`), and checks that the last line of output is the JSON
result with exactly the metrics `BENCHMARK.json` names for that pass, each
with its declared unit, and that a result is refused for bad arguments.
Run from the repository root:

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True, timeout=600)


class QuickMode(unittest.TestCase):
    def check(self, workload, trace):
        p = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick")
        self.assertEqual(p.returncode, 0, p.stderr)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, p.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            # The human-readable report prints the same metric and unit.
            self.assertTrue(
                any(l.startswith(f"perfbench metric {m['name']} ") and l.endswith(f" {m['unit']}") for l in lines),
                m["name"],
            )
        self.assertTrue(lines[0].startswith("perfbench provenance {"))
        return result

    def test_every_workload_both_passes(self):
        # `storage_contended` is runnable by name but not in the measured
        # set (see README.md), so it is listed here explicitly.
        names = [w["name"] for w in SPEC["workloads"]] + ["storage_contended"]
        for name in names:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.check(name, trace)

    def test_bad_arguments_give_no_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "mesh_traffic", "--seed", "1", "--seconds", "1", "--trace", "2"],
                     ["--workload", "mesh_traffic", "--seed", "1"]):
            p = bench(*args)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
