#!/usr/bin/env python3
"""Builds and runs the whole-campaign benchmark.

Run from the repository root:

    python3 campaign_bench/run.py --workload paper_norec --seed 1 --seconds 15 --trace 0

The benchmark package is compiled from source (release profile, offline)
into $CARGO_TARGET_DIR, or .bench_build when that is unset.  The last line
of standard output is the result object; the lines before it are the
metrics in readable form, the wall-clock of each campaign of the first
pass and the per-dialect findings fingerprints.  Exits
non-zero, without a result line, when the build fails, the benchmark does
not finish in time, or its output is malformed.  When BENCHMARK.json sits
next to this directory, the printed metric names must be exactly the ones
it declares for the chosen mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target_dir,
    ]
    try:
        result = subprocess.run(cmd, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if result.returncode != 0:
        fail(f"build failed with exit code {result.returncode}")
    return os.path.join(target_dir, "release", "campaign_bench")


def declared_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")
    declared = declared_metrics(trace)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared is not None and printed != declared:
        differ = sorted(set(declared.items()) ^ set(printed.items()))
        fail(f"metrics or units differ from BENCHMARK.json: {differ}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    exe = build(target_dir)
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit code {result.returncode})")
    validate(lines[-1], args.trace == 1)
    sys.stdout.write(result.stdout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
