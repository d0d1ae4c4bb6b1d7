#!/usr/bin/env python3
"""Runs workloads repeatedly and prints each metric's median and spread.

    python3 perfbench/spread.py --runs 10 [--workloads ingest,serve_read]
                                [--first-seed 1] [--trace 0] [--json out.json]

Each run goes through perfbench/run.py with the next seed and the run length
in BENCHMARK.json. For every metric the script prints the median, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, beside the metric's bound. These are the numbers the
bounds in BENCHMARK.json and the README's tables come from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds + 900)
    if out.returncode:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    record = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            env, res = run_once(workload, seed, bench["run_seconds"],
                                args.trace)
            runs.append({"seed": seed, "env": env, "result": res})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
        record[workload] = runs
        print(f"\n{workload}  ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, rev {runs[0]['env']['rev']})")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name, m in runs[0]["result"]["metrics"].items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6}"
                  f"  {m['unit']}")
        failed = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"  failed share over runs: {sorted(failed)}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
