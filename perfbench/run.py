#!/usr/bin/env python3
"""Builds the replay benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run configures (first time only) and builds perfbench/ -- the dswm
library from src/ plus the perfbench_replay driver -- under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
one workload. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end_to_end metrics of BENCHMARK.json under --trace 0 and its
per_layer metrics under --trace 1. If the build, the run or the result
check fails, it prints no result and exits non-zero.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("da2-synthetic", "da1-synthetic", "pwor-wiki", "central-pamap")
# A run must end within 180 s; the first one, which builds, within 900 s.
RUN_BUDGET_S = 175
FIRST_RUN_BUDGET_S = 880


class BenchError(Exception):
    pass


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr (stdout is the result)."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        raise BenchError("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(out, deadline):
    """Builds the benchmark binary; returns it and whether it configured."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no src/ next to perfbench/: nothing to build")
    configured = False
    if not (out / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", str(HERE), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=Release"], deadline - time.monotonic())
        configured = True
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", str(out), "--target", "perfbench_replay",
              "-j", jobs], deadline - time.monotonic())
    return out / "perfbench_replay", configured


def expected_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError("%s is not a count" % key)
    if result["attempted"] < 1:
        raise BenchError("nothing attempted")
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if units != expected_units(trace):
        raise BenchError("metrics differ from BENCHMARK.json: %s" % units)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("need --seed >= 0 and 0 < --seconds <= 60")

    start = time.monotonic()
    try:
        binary, configured = build(build_dir(), start + FIRST_RUN_BUDGET_S)
        budget = FIRST_RUN_BUDGET_S if configured else RUN_BUDGET_S
        remaining = start + budget - time.monotonic()
        if remaining <= args.seconds:
            raise BenchError("no time left to run after the build")
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("benchmark timed out")
        if proc.returncode != 0:
            raise BenchError("benchmark exited with %d" % proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError("benchmark printed no result")
        result = check_result(lines[-1], args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
