#!/usr/bin/env python3
"""Steadiness check for the benchmark's end-to-end metrics.

Runs perfbench/run.py several times per workload, each with its own seed,
and prints for every end-to-end metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, which is
(q3 - q1) / median. A spread above a third of the metric's bound in
BENCHMARK.json is flagged; setup_s is exempt from the spread rule but
still reported. Run it from the root of a checkout:

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 5 --workloads store_nonspec

Every result line is also appended to .bench_build/steady.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = ROOT / ".bench_build" / "steady.jsonl"
    record.parent.mkdir(parents=True, exist_ok=True)
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run.py exited "
                      f"{proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(record, "a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                steady = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {args.runs} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(f"  {name:<18} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[name]:6.3f}{flag}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
