"""icflow benchmark: end-to-end and per-layer metrics with correctness gates.

    python3 perfbench/run.py --workload a3_reference --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from any directory of a checkout; icflow is imported from its `src`.
`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. The last line of output is one JSON object with the
keys correct, attempted, failed and metrics. Exit status 0 means the
benchmark ran (whether or not a check failed); 2 means it could not run,
for instance because the icflow sources are missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bench


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in bench.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*bench.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, lines = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
