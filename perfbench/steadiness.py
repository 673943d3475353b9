#!/usr/bin/env python3
"""Steadiness evidence: run every workload N times and report the spread.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 0] [--save FILE]
    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json

Runs alternate the workload order (run i starts at workload i mod W), and
run i of every workload uses seed seed-base + i. For each end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, against the metric's bound from BENCHMARK.json;
a spread above a third of the bound is flagged, for every metric.

--compare checks two saved sets of runs of the same code: for every
workload and metric the second median may not be worse than the first by
more than the bound. Sets with different machine fingerprints are refused.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit(f"steadiness: {workload} seed {seed} exited with {r.returncode}")
    fingerprint = next((ln.split(" ", 2)[2] for ln in lines
                        if ln.startswith("perfbench: fingerprint ")), None)
    return json.loads(lines[-1]), fingerprint


def summarize(spec, runs):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':8} {'metric':12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    steady = True
    for w in spec["workloads"]:
        name = w["name"]
        rs = runs.get(name, [])
        bad = sum(1 for r in rs if not r["correct"] or r["failed"])
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = bounds[m["name"]] / 3
            flag = "" if spread < limit else "  above bound/3"
            steady = steady and not flag
            print(f"{name:8} {m['name']:12} {len(vals):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bounds[m['name']]:6.2f}{flag}")
        if bad:
            print(f"{name:8} {bad} runs incorrect or with failed solves")
            steady = False
    return steady


def compare(spec, first, second):
    if first["fingerprint"] != second["fingerprint"]:
        raise SystemExit("steadiness: the two sets come from different machine fingerprints")
    ok = True
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in first["runs"][w["name"]]]
            b = [r["metrics"][m["name"]]["value"] for r in second["runs"][w["name"]]]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if change <= m["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{w['name']:8} {m['name']:12} {ma:12.6g} -> {mb:12.6g}  "
                  f"worse by {change:+.3f} (bound {m['bound']:.2f}) {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(spec, *sets) else 1

    names = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = {n: [] for n in names}
    fingerprints = set()
    for i in range(args.runs):
        order = names[i % len(names):] + names[:i % len(names)]
        for name in order:
            result, fp = run_once(name, args.seed_base + i, spec["run_seconds"])
            fingerprints.add(fp)
            runs[name].append(result)
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"run {i} {name} seed {args.seed_base + i}: {vals}", flush=True)
    if len(fingerprints) != 1:
        raise SystemExit(f"steadiness: fingerprint changed between runs: {fingerprints}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"fingerprint": fingerprints.pop(), "runs": runs}, f, indent=1)
    spec["workloads"] = [w for w in spec["workloads"] if w["name"] in names]
    return 0 if summarize(spec, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
