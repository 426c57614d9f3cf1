#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_cli.py

Builds and runs the C++ unit tests (perfbench_tests), then runs the one
command on every workload, plain and traced, with a short --seconds, and
checks that it prints every metric of BENCHMARK.json by name and unit,
plus the reported-only figures, and a well-formed result line.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Printed in the report of every plain run but not gated (see README.md).
REPORTED = {"ops_per_s": "ops/s", "write_p99_us": "us", "rss_mb": "MB",
            "fail_frac": "ratio"}
WORKLOAD_ONLY = {
    "writes-tcp": {},
    "reads-bus": {"read_p50_us": "us", "read_p99_us": "us"},
    "failover-bus": {"unavail_ms": "ms", "reconfig_ms": "ms",
                     "catchup_ms": "ms"},
}


def bench(*args):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def report_units(stdout):
    """Metric name -> unit, from the report lines before the result."""
    units = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in ("end_to_end", "reported",
                                            "per_layer"):
            units[parts[1]] = parts[3]
    return units


class UnitTests(unittest.TestCase):
    def test_cpp_unit_tests_pass(self):
        self.assertTrue(run.build(BENCH_DIR, BUILD_DIR,
                                  targets=("perfbench", "perfbench_tests")))
        r = subprocess.run([str(BUILD_DIR / "perfbench_tests")], cwd=BUILD_DIR,
                           capture_output=True, text=True, timeout=300)
        self.assertEqual(r.returncode, 0, r.stdout[-4000:] + r.stderr[-4000:])


class CommandPrintsEveryMetric(unittest.TestCase):
    def check(self, workload, trace):
        r = bench("--workload", workload, "--seed", "3", "--seconds", "2",
                  "--trace", str(trace))
        self.assertEqual(r.returncode, 0, r.stdout[-4000:] + r.stderr[-4000:])
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = {m["name"]: m["unit"]
                  for m in SPEC["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, wanted)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))
        printed = report_units(r.stdout)
        expected = dict(wanted)
        expected.update({m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        expected.update(REPORTED)
        expected.update(WORKLOAD_ONLY[workload])
        for name, unit in expected.items():
            self.assertEqual(printed.get(name), unit, name)

    def test_every_workload_plain_and_traced(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_bad_usage_prints_no_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "reads-bus", "--seed", "1",
                      "--seconds", "0", "--trace", "0"],
                     ["--workload", "reads-bus", "--seed", "1",
                      "--seconds", "1", "--trace", "2"]):
            r = bench(*args)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
