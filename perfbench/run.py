#!/usr/bin/env python3
"""Runs one BEES benchmark workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call builds the program from
src/ (RelWithDebInfo, no -march=native) together with bees_perfbench in
perfbench/ into .bench_build/; later calls rebuild only what changed.
Workloads with a prepare step build their inputs from the seed in a
process of their own, under .bench_run/, before the measuring process
starts.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 1 prints the per-layer metrics instead of the end-to-end ones and
keeps a Chrome trace of the run in .bench_run/trace-<workload>-<seed>.json.
--self-test feeds each correctness check a deliberately broken output and
fails unless every such run reports "correct": false.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_run"
BINARY = BUILD_DIR / "bees_perfbench"
WORKLOADS = ("device_batches", "hot_cell_queries", "ingest_mix", "fleet_disaster")
# A run must end within 180 s; keep a margin for start-up and clean-up.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0

# (workload, fault) pairs of the self-test: each must make its run
# report "correct": false.
FAULTS = (
    ("hot_cell_queries", "flip_reply"),
    ("ingest_mix", "drop_ack"),
    ("ingest_mix", "truncate_wal"),
    ("device_batches", "drop_cbrd"),
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no program sources at", ROOT / "src")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def run_workload(workload, seed, seconds, trace, inject=None):
    """Prepares and runs one workload; returns (exit code, stdout lines)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = RUN_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--dir", str(work)]
    try:
        prep = subprocess.run([str(BINARY), "prepare", *common],
                              stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        if prep.returncode != 0:
            return prep.returncode, []
        cmd = [str(BINARY), "run", *common, "--trace", "1" if trace else "0"]
        if inject:
            cmd += ["--inject", inject]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if trace and (work / "trace.json").is_file():
            shutil.move(str(work / "trace.json"),
                        str(RUN_DIR / f"trace-{workload}-{seed}.json"))
        return proc.returncode, proc.stdout.splitlines()
    except subprocess.TimeoutExpired:
        log("run.py: workload timed out")
        return 3, []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test():
    failures = 0
    for workload, fault in FAULTS:
        code, lines = run_workload(workload, 1, 1, False, inject=fault)
        result = json.loads(lines[-1]) if code == 0 and lines else None
        caught = result is not None and result["correct"] is False
        log(f"self-test {workload} {fault}:",
            "caught" if caught else "NOT CAUGHT")
        failures += 0 if caught else 1
    for workload in WORKLOADS:
        code, lines = run_workload(workload, 1, 1, False)
        result = json.loads(lines[-1]) if code == 0 and lines else None
        clean = result is not None and result["correct"] is True
        log(f"self-test {workload} clean run:", "correct" if clean else "FAILED")
        failures += 0 if clean else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("run.py: build failed:", e)
        return 2
    if args.self_test:
        return self_test()
    code, lines = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    for line in lines:
        print(line)
    if code == 0 and not (lines and lines[-1].startswith("{")):
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
