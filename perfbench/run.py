#!/usr/bin/env python3
"""End-to-end sharing benchmark: build the benchmark binary from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload video_fanout --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --compare RECORD_A.json RECORD_B.json

A run builds perfbench/ (and the ads libraries under src/) into
.bench_build/, runs one workload, prints one line per metric and, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
Each run also saves a record (stamp plus result) under .bench_build/records/
and, with --trace 1, the span log under .bench_build/traces/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170
# Stamp fields that must agree before two records may be compared; the
# commit and source digest are what a comparison is expected to differ in.
HOST_KEYS = ("nproc", "cpu", "simd", "build", "compiler")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally. Build output goes to stderr
    so the result stays the last line of standard output."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ads sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_digest():
    """sha256 over the ads sources and the benchmark sources."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def run(args):
    build()
    traces = BUILD_ROOT / "traces"
    records = BUILD_ROOT / "records"
    traces.mkdir(parents=True, exist_ok=True)
    records.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(traces / f"{tag}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}", 1)
    result = json.loads(lines[-1])
    stamp = next((json.loads(l[len("stamp "):]) for l in lines
                  if l.startswith("stamp ")), {})
    stamp["commit"] = git_commit()
    stamp["source_digest"] = source_digest()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "stamp": stamp, "result": result}
    path = records / f"{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in lines[:-1]:
        print(line)
    print(f"record {path.relative_to(ROOT)} commit={stamp['commit']} "
          f"source_digest={stamp['source_digest']}")
    print(json.dumps(result))


def compare(path_a, path_b):
    """Print per-metric change from record A to record B; refuse when the
    host or build stamps differ."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    differ = [k for k in HOST_KEYS if a["stamp"].get(k) != b["stamp"].get(k)]
    if differ:
        fail("refusing to compare records from different hosts or builds: "
             + ", ".join(f"{k} {a['stamp'].get(k)!r} vs {b['stamp'].get(k)!r}"
                         for k in differ), 3)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("refusing to compare different workloads or trace modes", 3)
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            print(f"{name}: missing in {path_b}")
            continue
        va, vb = ma["value"], mb["value"]
        change = f"{(vb / va - 1) * 100:+.1f}%" if va else "n/a"
        print(f"{name}: {va:.6g} -> {vb:.6g} {ma['unit']} ({change})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.self_check:
        build()
        sys.exit(subprocess.run([str(BINARY), "--self-check"],
                                timeout=RUN_TIMEOUT_S * 3).returncode)
    elif args.workload:
        run(args)
    else:
        parser.error("give --workload, --self-check or --compare")


if __name__ == "__main__":
    main()
