#!/usr/bin/env python3
"""Build the benchmark and run one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds tq_serve and the benchmark with
dune from source and runs perfbench.exe; its last stdout line is the
result JSON.  Exits non-zero without a result when the build, a
self-check or the run fails.
"""

import argparse
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/serve_main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")
    run = subprocess.run(
        [
            "_build/default/perfbench/perfbench.exe",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--serve-exe", "_build/default/bin/serve_main.exe",
        ]
    )
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
