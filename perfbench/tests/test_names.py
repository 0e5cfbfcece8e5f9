#!/usr/bin/env python3
"""Checks that the metric and workload names perfbench prints match
BENCHMARK.json.

    python3 perfbench/tests/test_names.py <path to the perfbench binary>

Every printed result passes through one declared table (the binary fails a
run that misses a metric its workload measures, and prints 0 for a layer
the workload never calls), so the table `perfbench --describe` prints
stands for what every run prints.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BINARY = None


def described():
    out = subprocess.run([BINARY, "--describe"], check=True,
                         capture_output=True, text=True).stdout
    table = {}
    for line in out.splitlines():
        workload, kind, name, unit = line.split()
        table.setdefault(workload, {"end_to_end": {}, "per_layer": {}})
        table[workload][kind][name] = unit
    return table


class NamesMatchBenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)
        self.table = described()

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(self.table))

    def test_every_workload_prints_every_metric(self):
        # The result line of every workload carries every end-to-end metric
        # (untraced) and every per-layer metric (traced), in its unit.
        for kind in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in self.bench[kind]]
            for name, workload in self.table.items():
                self.assertEqual(list(workload[kind].items()), declared,
                                 name + " " + kind)

    def test_setup_metric(self):
        self.assertIn("setup_s", [m["name"] for m in self.bench["end_to_end"]])


if __name__ == "__main__":
    BINARY = sys.argv.pop(1)
    unittest.main()
