#!/usr/bin/env python3
"""Tests for the benchmark itself. Run from the repository root:

    python3 perfbench/test_bench.py          # about two minutes; builds on first use

They check BENCHMARK.json's shape, the benchmark binary's own unit tests (percentile rule, output
checks that must fail on a perturbed digest or a report from the bug-free VM), that every
metric BENCHMARK.json names is printed with its unit in both trace modes, and that the
benchmark refuses to run without the repository's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    return proc


class SpecTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths", "per_layer",
                                        "run_seconds", "workloads"])
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertRegex(m["unit"], UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in spec["end_to_end"])}])


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(build_dir())

    def test_self_test(self):
        # Percentiles need 10 samples beyond them; a perturbed digest, a report on the
        # bug-free VM and a non-neutral mutant each fail the output check.
        proc = subprocess.run([self.binary, "--self-test"], stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_every_metric_printed_with_unit(self):
        spec = load_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench("campaign_hotsniff", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[key]})
            text = "\n".join(lines[:-1]) + "\n"
            for m in spec[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                self.assertRegex(text, r"\n\s+%s\s+\S+ %s\n" % (re.escape(m["name"]),
                                                                 re.escape(m["unit"])))

    def test_result_check_rejects_missing_metric(self):
        spec = load_spec()
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
        good = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        self.assertEqual(run.check_result(json.dumps(good), 0), [])
        del metrics["setup_s"]
        self.assertNotEqual(run.check_result(json.dumps(good), 0), [])

    def test_fails_without_sources(self):
        bare = os.path.join(build_dir(), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "campaign_hotsniff",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
