#!/usr/bin/env python3
"""Builds and runs the layered pipeline benchmark from a source checkout.

    python3 perfbench/run.py --workload bert_wire --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and compiles the tao
library plus the benchmark program into .bench_build/perfbench (CMake, Release); later calls
only rebuild what changed. The workload's frozen parameters (mix, pool size,
open-loop rates, latency limit) come from perfbench/workloads.json. The program's
progress goes to stderr; the last line of stdout is the JSON result. Any build or
run failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "pipeline_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "pipeline_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        sys.exit("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads)))

    # Compiler and benchmark temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("build failed: %s" % error)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(BUILD, "runs")]
    for key, value in workloads[args.workload]["args"].items():
        command += ["--" + key, str(value)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark timed out")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("benchmark failed with exit code %d" % run.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("malformed result line: %s" % lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
