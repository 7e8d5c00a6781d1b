#!/usr/bin/env python3
"""End-to-end tests of the benchmark command.

    python3 perfbench/tests/test_run.py

Builds and runs the C++ unit tests (perfbench_tests), then checks the
command itself: the default seed matches the reference digests, a
perturbed reference digest makes it fail, and a directory holding only
the benchmark (no simulator sources) fails without printing a result.
Scratch files go under the build directory.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (the benchmark's own entry module)


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=1200)


def metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


def result_of(proc):
    lines = proc.stdout.strip().split("\n")
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


class BenchmarkCommand(unittest.TestCase):
    scratch = os.path.join(run.build_dir(), "test_scratch")

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)
        os.makedirs(cls.scratch)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def test_unit_tests(self):
        cmake_dir = os.path.join(run.build_dir(), "cmake")
        self.assertIsNotNone(run.build(run.build_dir()))
        built = subprocess.run(
            ["cmake", "--build", cmake_dir, "--target", "perfbench_tests",
             "-j", "4"], capture_output=True, text=True, timeout=1200)
        self.assertEqual(built.returncode, 0, built.stdout + built.stderr)
        tests = subprocess.run(
            [os.path.join(cmake_dir, "perfbench_tests")],
            capture_output=True, text=True, timeout=600)
        self.assertEqual(tests.returncode, 0, tests.stdout)

    def test_default_seed_matches_reference(self):
        proc = bench("--workload", "fig14_mc", "--seed", "1",
                     "--seconds", "0.1", "--trace", "0")
        res = result_of(proc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertIn("12 distinct items have reference digests",
                      proc.stdout)
        self.assertEqual(set(res["metrics"]), metric_names("end_to_end"))

    def test_traced_run_reports_every_per_layer_metric(self):
        proc = bench("--workload", "matic_train", "--seed", "2",
                     "--seconds", "0.1", "--trace", "1")
        res = result_of(proc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(set(res["metrics"]), metric_names("per_layer"))
        self.assertIn("self time by layer", proc.stdout)

    def test_perturbed_reference_digest_fails(self):
        with open(run.REFERENCE) as f:
            lines = f.read().split("\n")
        for i, line in enumerate(lines):
            if line.startswith("1 fig14_mc 3 "):
                digest = int(line.split()[3], 16) ^ 1
                lines[i] = "1 fig14_mc 3 0x%x" % digest
        perturbed = os.path.join(self.scratch, "perturbed.txt")
        with open(perturbed, "w") as f:
            f.write("\n".join(lines))
        proc = bench("--workload", "fig14_mc", "--seed", "1",
                     "--seconds", "0.1", "--trace", "0",
                     "--reference", perturbed)
        res = result_of(proc)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_without_sources_fails_without_result(self):
        alone = os.path.join(self.scratch, "alone")
        shutil.copytree(BENCH_DIR, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = bench("--workload", "fig14_mc", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=alone, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result_of(proc))


if __name__ == "__main__":
    unittest.main()
