#!/usr/bin/env python3
"""The benchmark's own tests: tiny-budget smoke runs of perfbench/run.py.

Run from the root of a checkout (about a minute after the first build):

    python3 -m unittest perfbench/test_smoke.py -v

They check that every workload emits every metric BENCHMARK.json names,
with its unit and a name within [A-Za-z0-9_.-]+; that a tampered artifact
counts as a failed operation; that a traced run writes a loadable Chrome
trace whose per-layer wall shares plus the unattributed share add up to
the traced wall-clock; and that run.py fails cleanly without the
simulator sources.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_bench(workload, trace=0, extra=(), root=ROOT):
    """Tiny budget: 2000 insts, one iteration, no time target."""
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--insts", "2000", "--min-iters", "1",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=root, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME_RE)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_plain_runs_emit_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertNotEqual(metric["value"], 0, name)

    def test_traced_runs_emit_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])

                trace = json.loads(
                    (WORK / f"{workload}.trace.json").read_text())
                spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
                self.assertTrue(spans)
                ids = {e["args"]["id"] for e in spans}
                for e in spans:
                    self.assertIn(e["args"]["parent"], ids | {"0"})
                    self.assertIn("op", e["args"])

                rows = {}
                table = (WORK / f"{workload}.layers.txt").read_text()
                for line in table.splitlines()[1:]:
                    fields = line.split()
                    rows[fields[0]] = float(fields[-2])
                wall = rows.pop("wall")
                self.assertGreater(wall, 0)
                self.assertAlmostEqual(sum(rows.values()) / wall, 1.0,
                                       places=3)

    def test_tampered_artifact_counts_as_failed_operation(self):
        proc = run_bench("fig5_cold", extra=["--tamper"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_fails_cleanly_without_simulator_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench("fig5_cold", root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
