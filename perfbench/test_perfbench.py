#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py, runs every workload briefly untraced
and traced, and checks the results against BENCHMARK.json. Takes about
a minute after the build.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = "0.5"  # every run still makes its minimum passes


def drive(workload, trace, seed=7):
    """Run the benchmark; returns (stdout lines, parsed result)."""
    out = subprocess.run(
        [str(run.PROGRAM), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout.splitlines()
    return out, json.loads(out[-1])


def digest_line(lines):
    return next(l for l in lines if l.startswith("digest "))


class BenchmarkTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("building the benchmark failed")
        for w in run.WORKLOADS:
            for trace in (0, 1):
                cls.results[w, trace] = drive(w, trace)

    def test_benchmark_json_is_tracked_and_well_formed(self):
        if (run.ROOT / ".git").exists():
            subprocess.run(["git", "ls-files", "--error-unmatch",
                            "BENCHMARK.json"], cwd=run.ROOT, check=True,
                           capture_output=True)
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         run.WORKLOADS)

    def test_every_declared_metric_is_printed_with_its_unit(self):
        for (w, trace), (_, res) in self.results.items():
            declared = SPEC["per_layer" if trace else "end_to_end"]
            self.assertEqual(
                {m["name"]: m["unit"] for m in declared},
                {k: v["unit"] for k, v in res["metrics"].items()},
                f"{w} trace={trace}")

    def test_every_run_is_correct(self):
        for (w, trace), (lines, res) in self.results.items():
            self.assertTrue(res["correct"], f"{w} trace={trace}: {lines}")
            self.assertEqual(res["failed"], 0)
            self.assertGreater(res["attempted"], 0)
            self.assertIn("all passes identical: yes", digest_line(lines))

    def test_end_to_end_metrics_are_nonzero(self):
        for w in run.WORKLOADS:
            for name, m in self.results[w, 0][1]["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w} {name}")

    def test_passes_agree_across_processes(self):
        # The untraced and traced runs are separate processes with the
        # same seed: their simulated work must be identical.
        for w in run.WORKLOADS:
            a = digest_line(self.results[w, 0][0]).split(" passes=")[0]
            b = digest_line(self.results[w, 1][0]).split(" passes=")[0]
            self.assertEqual(a, b, w)

    def test_traced_counts_repeat_across_processes(self):
        _, res = drive("server", 1)
        for m in SPEC["per_layer"]:
            if m["unit"] in ("count", "bytes", "ratio"):
                self.assertEqual(
                    res["metrics"][m["name"]],
                    self.results["server", 1][1]["metrics"][m["name"]],
                    m["name"])

    def test_every_count_is_nonzero_on_some_workload(self):
        for m in SPEC["per_layer"]:
            if m["name"] == "bench.trace_overhead_s":
                continue  # a difference of two timings; may be negative
            values = [self.results[w, 1][1]["metrics"][m["name"]]["value"]
                      for w in run.WORKLOADS]
            self.assertTrue(any(v > 0 for v in values), m["name"])

    def test_seed_changes_the_inputs(self):
        lines, _ = drive("parsec4", 0, seed=8)
        self.assertNotEqual(digest_line(lines).split()[2],
                            digest_line(self.results["parsec4", 0][0])
                            .split()[2])

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(run.ROOT / "BENCHMARK.json", d)
            shutil.copytree(run.HERE, Path(d) / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload",
                 "churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
