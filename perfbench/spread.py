"""Run the benchmark repeatedly and report each end-to-end metric's spread.

From the root of a checkout:

    python3 perfbench/spread.py --workloads campaign_rcc,client_jobs --seeds 1,2,3,4,5
    python3 perfbench/spread.py --workloads client_jobs --seeds 1,1,1,1,1

Runs are interleaved: for each seed in turn, every workload once. A seed
may repeat, which measures run-to-run noise apart from the spread across
seeds. For each metric it prints the median and the spread, the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", required=True, help="comma-separated seeds, one run each")
    p.add_argument("--seconds", default="50")
    args = p.parse_args(argv)
    workloads, seeds = args.workloads.split(","), args.seeds.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            argv = [sys.executable, RUN, "--workload", w, "--seed", seed, "--seconds", args.seconds, "--trace", "0"]
            done = subprocess.run(argv, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {done.returncode}: {done.stderr.strip()}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(w, seed, " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
    if len(seeds) < 2:
        return 0
    for w in workloads:
        for name, v in values[w].items():
            print(f"{w} {name}: median {statistics.median(v):.6g} spread {spread(v):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
