#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and runs every workload at its
smallest size (--small, one operation per run). It checks that

  - two traced runs of one seed agree exactly on every deterministic
    count and on the output digests, and that an untraced run of that
    seed produces the same digests;
  - a second seed also passes the output checks;
  - every metric name matches [A-Za-z0-9_.-]+, has a unit, and the
    metric set and units are the ones BENCHMARK.json declares.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Per-layer metrics that are pure functions of the inputs: work
# counts, simulated statistics and ratios of them.
DETERMINISTIC_UNITS = {"count", "cycles"}
DETERMINISTIC_NAMES = {
    "mem.llc_hit_pct", "mem.ddr_rowhit_pct", "acc.comm_frac",
    "app.shard_imbalance", "policy.cohmeleon_exec_norm",
    "policy.cohmeleon_ddr_norm",
}
# Counts that grow with the number of traced operations in a run.
PER_RUN_COUNTS = {"trace.spans"}


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = load_spec()
        cls.workdir = os.path.join(os.path.dirname(run.build_dir()),
                                   "perfbench-test")
        os.makedirs(cls.workdir, exist_ok=True)

    def bench(self, workload, seed, trace):
        """Run one small benchmark; returns (digests, result)."""
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), "--small",
             "--workdir", self.workdir],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        digests = json.loads(next(
            l for l in lines if l.startswith("digests "))[len("digests "):])
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0, proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        return digests, result

    def check_names(self, result, declared):
        metrics = result["metrics"]
        for name, m in metrics.items():
            self.assertRegex(name, NAME)
            self.assertTrue(m["unit"], name)
        self.assertEqual(
            {name: m["unit"] for name, m in metrics.items()},
            {d["name"]: d["unit"] for d in declared})

    def deterministic(self, result):
        return {name: m["value"] for name, m in result["metrics"].items()
                if (m["unit"] in DETERMINISTIC_UNITS
                    or name in DETERMINISTIC_NAMES)
                and name not in PER_RUN_COUNTS}

    def check_workload(self, workload):
        digests1, traced1 = self.bench(workload, 1, trace=1)
        digests2, traced2 = self.bench(workload, 1, trace=1)
        # Input set 0 runs first in every run; how many further sets a
        # run reaches depends on its speed.
        self.assertEqual(digests1["0"], digests2["0"])
        self.assertEqual(self.deterministic(traced1),
                         self.deterministic(traced2))
        self.assertGreater(traced1["metrics"]["trace.coverage_pct"]["value"],
                           90.0)
        self.check_names(traced1, self.spec["per_layer"])

        untraced_digests, untraced = self.bench(workload, 1, trace=0)
        self.assertEqual(untraced_digests["0"], digests1["0"])
        self.check_names(untraced, self.spec["end_to_end"])
        for name, m in untraced["metrics"].items():
            self.assertGreater(m["value"], 0.0, name)

        other_digests, _ = self.bench(workload, 2, trace=0)
        self.assertNotEqual(other_digests["0"], digests1["0"])

    def test_protocol(self):
        self.check_workload("protocol")

    def test_train(self):
        self.check_workload("train")

    def test_serve(self):
        self.check_workload("serve")

    def test_spec_lists_the_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
