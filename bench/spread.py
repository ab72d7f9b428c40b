"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload docs-check --seeds 1-10

Each run lasts the run_seconds of BENCHMARK.json.  For each metric it
prints the median and the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median: the figure a
metric's bound in BENCHMARK.json is checked against.  Runs are sequential,
one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in seed_range(args.seeds):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            print(f"{k}: median {med:.6g} spread {(q3 - q1) / med:.4f}")
        else:
            print(f"{k}: median {med:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
