#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and report, for
every end-to-end metric, the median and the spread (interquartile range
as a share of the median, from statistics.quantiles(values, n=4)).

Run from the repository root after one build:

    python3 perfbench/steadiness.py --runs 10 --seconds 15 \
        --workloads online table1 --json out.json

Each run is the benchmark command itself (`cargo run --release ...`),
seeds are first_seed, first_seed + 1, ... Workloads run interleaved, one
run of each per seed, so that slow phases of the host spread across all
of them.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def run_once(workload, seed, seconds, trace):
    args = COMMAND + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(args, capture_output=True, text=True, check=True)
    wall = time.monotonic() - started
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workloads", nargs="+",
                        default=["online", "table1"])
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    runs = {w: [] for w in args.workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in args.workloads:
            result, wall = run_once(w, seed, args.seconds, args.trace)
            runs[w].append({"seed": seed, "wall_s": wall, "result": result})
            ok = result["correct"] and result["failed"] == 0
            print(f"{w:<12} seed {seed:<4} {wall:6.1f} s  correct={ok}",
                  file=sys.stderr, flush=True)

    for w, rs in runs.items():
        print(f"\n{w}: {len(rs)} runs, wall {sum(r['wall_s'] for r in rs):.0f} s")
        names = rs[0]["result"]["metrics"].keys()
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in rs]
            unit = rs[0]["result"]["metrics"][name]["unit"]
            if len(values) >= 2:
                med, sp = spread(values)
                print(f"  {name:<36} median {med:14.6f} {unit:<6} "
                      f"spread {sp:7.4f}  min {min(values):.6f} max {max(values):.6f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
