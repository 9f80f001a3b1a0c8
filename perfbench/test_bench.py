#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on the tiny problem sizes.

    python3 perfbench/test_bench.py

Run from the root of a checkout; builds the driver on first use. For every
workload it checks that each metric BENCHMARK.json lists is printed with
its unit, that the layers the workload bypasses read zero, and that a
deliberately corrupted readback is caught as a failure.
"""

import functools
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CLASSES = ["put", "get", "acc", "strided", "iov", "rmw", "mutex"]


@functools.lru_cache(maxsize=None)
def run(workload, trace, corrupt=False):
    """Run perfbench/run.py on the tiny size; returns (exit code, result)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


class MetricsArePrinted(unittest.TestCase):
    def check(self, trace, listed):
        want = {m["name"]: m["unit"] for m in SPEC[listed]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, res = run(w, trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                got = {k: m["unit"] for k, m in res["metrics"].items()}
                self.assertEqual(got, want)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                for name, v in values(run(w, 0)[1]).items():
                    self.assertGreater(v, 0, name)

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


class BypassedLayersReadZero(unittest.TestCase):
    def test_dht_opens_no_window_and_makes_no_rma_call(self):
        v = values(run("dht", 1)[1])
        for name in ("exclusive_locks", "shared_locks", "flushes", "epochs"):
            self.assertEqual(v[f"mpisim.win.{name}"], 0, name)
        for cls in CLASSES:
            self.assertEqual(v[f"armci.{cls}.calls"], 0, cls)
        self.assertEqual(v["armci.bytes"], 0)
        self.assertGreater(v["am.sent"], 0)
        self.assertEqual(v["am.sent"], v["am.served"])

    def test_rma_sends_no_active_message_and_uses_no_ga(self):
        v = values(run("rma", 1)[1])
        for name, x in v.items():
            if name.startswith(("am.", "ga.", "nwproxy.")):
                self.assertEqual(x, 0, name)
        self.assertGreater(v["mpisim.win.epochs"], 0)
        self.assertGreater(v["armci.bytes"], 0)

    def test_ccsd_sends_no_active_message(self):
        v = values(run("ccsd", 1)[1])
        for name, x in v.items():
            if name.startswith("am."):
                self.assertEqual(x, 0, name)
        self.assertGreater(v["ga.multi_owner_ops"], 0)
        self.assertGreater(v["armci.rmw.calls"], 0)
        self.assertGreater(v["mpisim.win.exclusive_locks"], 0)


class CorruptionIsCaught(unittest.TestCase):
    def test_corrupted_readback_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, res = run(w, 0, corrupt=True)
                self.assertEqual(code, 1)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
