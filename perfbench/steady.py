#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports its spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads serve_miss,...]
                                [--trace 0] [--save perfbench/baseline/x.json]

For every workload and metric it prints the median of the runs and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. --save writes every run's result and run record plus the
summary to one JSON file (the in-tree baseline). Run from the checkout
root; each run is one `python3 perfbench/run.py` invocation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=False)
    lines = done.stdout.decode(errors="replace").splitlines()
    result = json.loads(lines[-1])
    record_path = next(l.split(" ", 1)[1] for l in lines if l.startswith("record "))
    with open(record_path) as f:
        record = json.load(f)["record"]
    return done.returncode, result, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--save", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    ok = True
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            code, result, record = run_once(workload, seed,
                                            bench["run_seconds"], args.trace)
            ok = ok and code == 0 and result["correct"]
            runs.append({"workload": workload, "seed": seed, "trace": args.trace,
                         "exit": code, "result": result, "record": record})
            print("%s seed=%d exit=%d %s" % (workload, seed, code, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)

    summary = {}
    for workload in workloads:
        values = {}
        for run in runs:
            if run["workload"] == workload:
                for name, metric in run["result"]["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        print("\n%s" % workload)
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "n": len(vals)}
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else (
                    "WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print("  %-36s median=%-14.6g spread=%.4f bound=%s %s" % (
                name, median, spread, bound, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
