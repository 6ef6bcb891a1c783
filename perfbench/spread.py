#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Run from the repository root.  Runs `perfbench/run.py --trace 0` once per
seed and prints each run's metrics and diagnostics line.  Then, for every
end-to-end metric, it prints the median, the quartiles and the
interquartile range as a share of the median next to the metric's bound
from BENCHMARK.json.  Exits non-zero when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for line in lines:
            if line.startswith("  "):
                print(line, flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in values.items():
        if len(vs) < 2:
            break
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{args.workload:10s} {name:16s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
              f"  spread {spread:6.3f}  bound {bounds.get(name, float('nan')):.3f}")


if __name__ == "__main__":
    main()
