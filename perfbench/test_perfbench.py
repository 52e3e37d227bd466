#!/usr/bin/env python3
"""Self-test of the benchmark, in smoke mode (small inputs, ~1 s phases).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Asserts that every metric BENCHMARK.json names is emitted with its unit,
that the traced run writes a trace, that every correctness check fails on a
deliberately corrupted input, and that the benchmark refuses to run without
the library sources.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["static-build", "churn-local", "serve-openloop"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace="0", corrupt=None, seed=3, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", trace, "--smoke"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(lines):
    return json.loads(lines[-1])


def failed(lines, check):
    return any(line.startswith("check %s: FAILED" % check) for line in lines)


class Metrics(unittest.TestCase):
    def check_metrics(self, trace, defs):
        expected = {d["name"]: d["unit"] for d in defs}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                rc, lines = run(workload, trace=trace)
                self.assertEqual(rc, 0, "\n".join(lines[-20:]))
                r = result(lines)
                self.assertEqual(sorted(r), ["attempted", "correct", "failed", "metrics"])
                self.assertIs(r["correct"], True)
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, expected)
                for name, v in r["metrics"].items():
                    self.assertTrue(math.isfinite(v["value"]), name)
                meta = json.loads(lines[-2 - len(expected)])["meta"]
                for key in ("seed", "nproc", "cpu_model", "build_type", "commit",
                            "pool_threads", "driver_threads"):
                    self.assertIn(key, meta)
                if trace == "0":
                    for name, v in r["metrics"].items():
                        self.assertGreater(v["value"], 0, name)
                else:
                    path = meta["trace_file"]
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    self.assertTrue(any(e.get("ph") == "B" and e["pid"] == 3 for e in events))

    def test_end_to_end(self):
        self.check_metrics("0", SPEC["end_to_end"])

    def test_per_layer(self):
        self.check_metrics("1", SPEC["per_layer"])


class Checks(unittest.TestCase):
    CASES = [
        ("static-build", "load", "static.load_equal"),
        ("churn-local", "churn-final", "churn.final_equal"),
        ("serve-openloop", "serve-final", "serve.final_equal"),
        ("serve-openloop", "serve-visible", "serve.visible"),
    ]

    def test_corruption_fails_its_check(self):
        for workload, corrupt, check in self.CASES:
            with self.subTest(corrupt=corrupt):
                rc, lines = run(workload, corrupt=corrupt)
                self.assertEqual(rc, 1, "\n".join(lines[-20:]))
                self.assertIs(result(lines)["correct"], False)
                self.assertTrue(failed(lines, check), check)

    def test_stretch_oracle_fires_for_every_spec(self):
        rc, lines = run("static-build", corrupt="stretch")
        self.assertEqual(rc, 1)
        for label in ("th1", "th2k1", "th2k2", "th3"):
            self.assertTrue(failed(lines, "static.stretch." + label), label)


class Refusal(unittest.TestCase):
    def test_no_sources_no_result(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines = run("static-build", root=bare)
            self.assertNotEqual(rc, 0)
            self.assertFalse(lines and lines[-1].startswith("{\"correct\""))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
