#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload dimer|sweep|lanes --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark binary is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) on first use. The last stdout line
is the result: {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload twice, untraced and then traced, and prints every per-layer
metric: the traced run's layer probes, plus bench.trace_overhead_s (traced
minus untraced solve_s). Layers a workload never calls read 0. The traced
run's spans are kept in <build>/spans/<workload>-<seed>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src", "core")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    cmake_dir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j4", "--target", "perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench")


def run_binary(exe, args, out_dir, trace):
    env = dict(os.environ, OMP_NUM_THREADS="1")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--data", os.path.join(HERE, "data"),
           "--out", out_dir]
    r = subprocess.run(cmd + ["--trace", "1" if trace else "0"], cwd=ROOT, env=env,
                       stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0 or not lines:
        fail(f"benchmark binary exited with {r.returncode}")
    result = json.loads(lines[-1])
    iterations = None
    for line in lines:
        if line.startswith("perfbench: scf_iterations "):
            iterations = int(line.split()[-1])
    return result, iterations


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["dimer", "sweep", "lanes"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir)
    out_dir = os.path.join(build_dir, "run", args.workload)

    try:
        untraced, iterations = run_binary(exe, args, out_dir, trace=False)
        if not args.trace:
            metrics = {m["name"]: untraced["metrics"][m["name"]] for m in spec["end_to_end"]}
            result = dict(untraced, metrics=metrics)
        else:
            traced, traced_iterations = run_binary(exe, args, out_dir, trace=True)
            spans = os.path.join(out_dir, "spans.json")
            if os.path.exists(spans):
                kept = os.path.join(build_dir, "spans", f"{args.workload}-{args.seed}.json")
                os.makedirs(os.path.dirname(kept), exist_ok=True)
                shutil.move(spans, kept)
                print(f"perfbench: spans kept in {os.path.relpath(kept, ROOT)}")
            measured = traced["metrics"]
            measured["bench.trace_overhead_s"] = {
                "value": measured["solve_s"]["value"] - untraced["metrics"]["solve_s"]["value"],
                "unit": "s"}
            metrics = {}
            for m in spec["per_layer"]:
                # A layer this workload never calls is not measured: it reads 0.
                metrics[m["name"]] = measured.get(m["name"], {"value": 0, "unit": m["unit"]})
            same_iterations = iterations == traced_iterations
            if not same_iterations:
                print(f"perfbench: traced run took {traced_iterations} SCF iterations, "
                      f"untraced {iterations}")
            result = {
                "correct": untraced["correct"] and traced["correct"] and same_iterations,
                "attempted": untraced["attempted"] + traced["attempted"],
                "failed": untraced["failed"] + traced["failed"],
                "metrics": metrics,
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
