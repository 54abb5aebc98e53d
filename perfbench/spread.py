#!/usr/bin/env python3
"""Check that the benchmark is steady: run it on seeds 1..runs per workload
and print, for each end-to-end metric, the median and the spread between
the first and third quartile as a share of the median, beside the bound
BENCHMARK.json gives it.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--runs 10] [workload ...]

With no workload named it runs all of them. A metric whose spread exceeds
its bound is flagged with "!!", one above a third of its bound with "!".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    worst = 0.0
    for name in names:
        values = {m["name"]: [] for m in metrics}
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
            if p.returncode != 0:
                print(f"{name} seed {seed}: exit {p.returncode}", file=sys.stderr)
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            for k in values:
                values[k].append(res["metrics"][k]["value"])
        print(f"== {name} ({len(values[metrics[0]['name']])} runs)")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
            bound = m["bound"]
            worst = max(worst, spread / bound)
            flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            print(f"  {m['name']:30s} median {med:14.4f}  spread {spread:7.4f}  bound {bound:5.3f} {flag}")
    print(f"worst spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
