"""Steadiness of the benchmark's end-to-end metrics.

  python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1]

Runs each workload --runs times, each with another --seed, and prints for
every end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median against the metric's bound in
BENCHMARK.json. A spread at or under a third of the bound is marked ok, and
the command exits non-zero if any spread is wider, a run is not correct, or
the share of failed operations differs between runs. Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-500:]}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread <= bound / 3 else "WIDE"
            ok &= verdict == "ok"
            print(f"  {name:28} {median:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {bound:6.3f} {verdict}")
        ok &= len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
