#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds.

Runs the command in BENCHMARK.json once per seed on one workload, then
prints, for each metric, the median and the spread: the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of
the median. An end-to-end spread above a third of the metric's bound is
flagged. Also prints each run's count digest (traced runs), which must
repeat for repeated seeds.

Run from the repository root:
    python3 perfbench/steady.py flythrough_raster --runs 5
    python3 perfbench/steady.py serve_sessions --runs 10 --first-seed 11
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        digest = next((l for l in lines if l.startswith("count digest")), "")
        shown = " ".join(f"{n}={result['metrics'][n]['value']:.4g}"
                         for n in bounds if n in result["metrics"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown} {digest}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    steady = True
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) < 2 or med == 0:
            print(f"{name:32} median {med:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = f"  > bound/3 = {bound / 3:.4f}"
            steady = False
        print(f"{name:32} median {med:<14.6g} spread {spread:.4f}{flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
