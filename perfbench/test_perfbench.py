#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest perfbench/test_perfbench.py

They build the benchmark binary (as run.py does), run its self-check (a few frames
per workload in both trace modes), check that the metrics it prints match
BENCHMARK.json by name and unit, check the host/build stamp every run
prints, and check that run.py refuses to compare records whose host or
build stamps differ.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_self_check(self):
        proc = subprocess.run([str(run.BINARY), "--self-check"],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("self-check passed", proc.stdout)

    def test_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [str(run.BINARY), "--workload", "relay_flashcrowd", "--seed", "1",
                 "--trace", str(trace), "--frames", "4", "--setups", "1"],
                capture_output=True, text=True, timeout=300)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            stamp = json.loads(next(l for l in lines if l.startswith("stamp "))[6:])
            self.assertEqual(set(stamp), set(run.HOST_KEYS))
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual(printed, declared)

    def test_workload_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for w in spec["workloads"]:
            proc = subprocess.run(
                [str(run.BINARY), "--workload", w["name"], "--seed", "2",
                 "--trace", "0", "--frames", "2", "--setups", "1"],
                capture_output=True, text=True, timeout=300)
            self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_unknown_workload_fails_without_result(self):
        proc = subprocess.run([str(run.BINARY), "--workload", "nope", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_compare_refuses_different_stamps(self):
        stamp = {"nproc": "4", "cpu": "x", "simd": "avx2", "build": "RelWithDebInfo",
                 "compiler": "GNU-12", "commit": "a", "source_digest": "b"}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, simd in enumerate(("avx2", "scalar")):
                rec = {"workload": "video_fanout", "trace": 0,
                       "stamp": dict(stamp, simd=simd, commit=str(i)),
                       "result": result}
                paths.append(Path(tmp) / f"{i}.json")
                paths[-1].write_text(json.dumps(rec))
            refused = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--compare", *map(str, paths)],
                capture_output=True, text=True)
            self.assertEqual(refused.returncode, 3)
            self.assertIn("simd", refused.stderr)
            same = json.loads(paths[0].read_text())
            same["stamp"]["commit"] = "other"
            paths[1].write_text(json.dumps(same))
            allowed = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--compare", *map(str, paths)],
                capture_output=True, text=True)
            self.assertEqual(allowed.returncode, 0, allowed.stderr)
            self.assertIn("setup_s", allowed.stdout)


if __name__ == "__main__":
    unittest.main()
