#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/steadiness.py --workload desk-sweep

Runs `bench/run.py --trace 0` once per seed 1-10, one run at a time,
and prints for each end-to-end metric its median and its quartile spread
(Q3 - Q1, from statistics.quantiles(values, n=4)) as a share of the median,
next to the bound in BENCHMARK.json, plus the failed share of every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in SEEDS:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed} ({wall:.0f} s): " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)

    worst = 0.0
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:16s} median {median:.6g} spread {spread:.4f} "
              f"bound {metric['bound']} ({spread / metric['bound']:.2f} of bound)")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed shares: {shares}; worst spread is {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
