"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that a smoke-size run of every workload emits every metric of
BENCHMARK.json with its unit, that an item whose result or oracle is
perturbed inside the benchmark counts as failed (the library is never
touched), and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
from workloads import WORKLOADS, ItemClock  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class SpecTest(unittest.TestCase):
    def test_spec_matches_the_runner(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS) - {"cli_cold"})
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)

    def test_adjustment_divides_by_host_slowness(self):
        clock = ItemClock(calibrate=lambda: 2.0)
        clock.item("whole", sum, [1, 2])
        self.assertEqual(clock.adjusted, [clock.times[0] / 2.0])
        self.assertEqual(clock.item("parts", lambda part: part(sum, [1]) + part(
            sum, [2], calibrate=lambda: 4.0), parts=True), 3)
        self.assertEqual(clock.slowness, [2.0, 2.0, 4.0])
        self.assertLess(clock.adjusted[1], clock.times[1] / 2.0)


class SmokeTest(unittest.TestCase):
    """Every workload at smoke size emits every metric, correct and unfailed."""

    def check(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout + proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        if trace and workload == "cli_cold":
            spec.update(run.CLI_PER_LAYER)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, spec)
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)

    def test_smoke_runs(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


class FaultInjectionTest(unittest.TestCase):
    """A perturbed result or oracle inside the benchmark fails its item."""

    def setUp(self):
        self.workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def round_failures(self, workload):
        clock = ItemClock()
        workload.run_round(clock)
        return clock.failed

    def make(self, name):
        workload = WORKLOADS[name](11, self.workdir, smoke=True)
        workload.setup()
        self.assertEqual(self.round_failures(workload), {})
        return workload

    def test_moments_allpairs_oracle(self):
        w = self.make("moments_allpairs")
        w.mean_oracle[1][0, 2] *= 1.001
        self.assertEqual(set(self.round_failures(w)), {(1, 0, 2)})

    def test_moments_allpairs_result(self):
        w = self.make("moments_allpairs")
        item = w._item

        def perturbed(kernel, a, b):
            e1, e2 = item(kernel, a, b)
            if kernel is w.kernels[0] and (a, b) == (1, 0):
                e2 = dataclasses.replace(e2, verdict="inconclusive")
            return e1, e2

        w._item = perturbed
        self.assertEqual(set(self.round_failures(w)), {(0, 1, 0)})

    def test_decomposition_oracle(self):
        w = self.make("decomposition")
        key = w.pairs[1]
        w.oracle[key] = w.oracle[key] * (1 + 1e-9)
        self.assertEqual(set(self.round_failures(w)), {key})

    def test_sparse_scale_oracle(self):
        w = self.make("sparse_scale")
        source = w.sources[0]
        w.mean_oracle[source] *= 1 + 1e-6
        self.assertEqual(set(self.round_failures(w)), {source})

    def test_cli_cold_reference(self):
        w = self.make("cli_cold")
        w.reference["fpt"] += b"\n"
        self.assertEqual(set(self.round_failures(w)), {"fpt"})


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_the_package(self):
        bare = tempfile.mkdtemp(prefix=".work-bare-", dir=BENCH_DIR)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
            proc = bench("--workload", "moments_allpairs", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
