#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

  python3 perfbench/run.py --workload easy-long --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

Builds the sps library from ../src and the perfbench program with CMake in
Release mode, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs it, and prints its result, one JSON
object, as the last line of standard output. Build output goes to standard
error. --selftest builds and runs the benchmark's own tests instead. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("easy-long", "ss-deep", "service-mix")
BUILD_JOBS = "4"
# Stops a run that hangs. Besides the --seconds window, a run spends up to
# about ten seconds on oracle-armed runs; at --seconds 30 this stops it
# before three minutes pass.
RUN_TIMEOUT_SLACK_S = 140
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return (base if base.is_absolute() else Path.cwd() / base) / "perfbench"


def build(target: str) -> Path:
    """Configure once, then let CMake rebuild whatever changed."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise FileNotFoundError(f"no library sources under {ROOT / 'src'}")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n"
    if cache.is_file() and home not in cache.read_text(errors="replace"):
        shutil.rmtree(out)  # configured for another checkout
    if not cache.is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", BUILD_JOBS], stdout=sys.stderr, check=True)
    return out / target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        program = build("perfbench_tests" if args.selftest
                        else "perfbench_run")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.selftest:
        return subprocess.run([str(program)]).returncode

    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir() / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out", str(spans)]
    timeout = args.seconds + RUN_TIMEOUT_SLACK_S
    try:
        # On timeout, run() kills the program and waits for it to end.
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench_run did not finish within {timeout:g} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench_run exited with {proc.returncode} and no result")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log(f"perfbench_run result is not JSON: {e}")
        return 1
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"perfbench_run result has keys {sorted(result)}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
