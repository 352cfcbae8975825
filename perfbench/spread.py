#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's median and
quartile spread (IQR as a share of the median), as a regression check
computes them.

    python3 perfbench/spread.py --workload search --seeds 1-10 [--trace 0|1]

Run from the repository root. Builds once with cargo, then runs the
binary directly for each seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="range a-b or comma list")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    if "-" in a.seeds:
        lo, hi = map(int, a.seeds.split("-"))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(s) for s in a.seeds.split(",")]
    seconds = a.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]
    manifest = os.path.join("perfbench", "Cargo.toml")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", manifest], check=True)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    binary = os.path.join(target, "release", "fesia-perfbench")
    values = {}
    for seed in seeds:
        out = subprocess.run([binary, "--workload", a.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", a.trace],
                             check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT ({result['failed']} failed)", file=sys.stderr)
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2 and med:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
        else:
            spread = float("nan")
        print(f"{name:<32} median {med:<14.6g} spread {spread:.4f}")


if __name__ == "__main__":
    main()
