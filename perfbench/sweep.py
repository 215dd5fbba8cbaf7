#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload office_desktop --seeds 1-10
    python3 perfbench/sweep.py --workload all --seeds 1-10 --trace 0

For every end-to-end metric (or per-layer metric with --trace 1) it prints
the median, the first and third quartiles (statistics.quantiles, n=4) and
the spread: (Q3 - Q1) / median. With BENCHMARK.json present it also shows
each metric's bound and whether the spread is below a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("video_fanout", "office_desktop", "relay_flashcrowd")


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    seconds = args.seconds or spec.get("run_seconds", 20)
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    worst_ok = True
    for workload in names:
        values = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result")
                worst_ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(seed_list(args.seeds))} seeds, "
              f"{seconds:g} s, trace {args.trace})")
        for name, vals in values.items():
            med, q1, q3, s = spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = s < bound / 3
                worst_ok &= ok
                verdict = f" bound {bound:g} {'ok' if ok else 'TOO WIDE'}"
            print(f"  {name:34s} median {med:12.5g} q1 {q1:12.5g} "
                  f"q3 {q3:12.5g} spread {s:7.4f}{verdict}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
