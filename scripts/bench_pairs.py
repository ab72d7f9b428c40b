"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage: python3 scripts/bench_pairs.py OLD NEW --workload W --pairs N
                                      [--seed S] [--seconds T]

OLD and NEW are each a checkout directory or a git revision of this
checkout, such as HEAD; a revision is exported with `git archive` into a
temporary directory.  Each pair runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once on each side, from that side's root and with that side's own
`bench/`, and the side that runs first alternates from pair to pair.

For each end-to-end metric of this checkout's BENCHMARK.json the table
gives each side's median and quartiles (statistics.quantiles, n=4) over
the pairs, and NEW's wins out of the pairs: a pair is a win when NEW reads
better than OLD in that metric's direction, and a tie counts for neither
side.  Two verdicts follow: `gain` is yes when NEW wins at least 9 in 10
of the pairs and its median is better than OLD's by more than OLD's
interquartile range; `bound` is over when NEW's median is worse than
OLD's by more than the metric's bound, a share of OLD's median.  Exits 1
when a run fails or reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from report_diff import ROOT, export_revision


def run_bench(checkout: Path, args) -> dict:
    """The last JSON line of one untraced run of checkout's own benchmark."""
    done = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: bench/run.py in {checkout} exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: bench/run.py in {checkout} reported incorrect output")
    return result["metrics"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdicts(metric: dict, old: list[float], new: list[float]) -> tuple[int, str, str]:
    """(NEW's wins, gain, bound) for one metric's values over the pairs."""
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    q1, old_median, q3 = quartiles(old)
    change = sign * (statistics.median(new) - old_median)  # > 0: NEW better
    gain = 10 * wins >= 9 * len(old) and change > q3 - q1
    over = -change > metric["bound"] * abs(old_median)
    return wins, "yes" if gain else "no", "over" if over else "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="checkout directory or git revision of the old code")
    ap.add_argument("new", help="checkout directory or git revision of the new code")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    with tempfile.TemporaryDirectory() as exported:
        roots = {}
        for side in ("old", "new"):
            spec = getattr(args, side)
            path = Path(spec)
            if not path.is_dir():
                try:
                    path = export_revision(spec, Path(exported) / side)
                except subprocess.CalledProcessError:
                    ap.error(f"{spec} is neither a directory nor a git revision")
            roots[side] = path.resolve()
        runs = {"old": [], "new": []}
        for k in range(args.pairs):
            order = ("old", "new") if k % 2 == 0 else ("new", "old")
            for side in order:
                runs[side].append(run_bench(roots[side], args))
            print(f"pair {k + 1}: {order[0]} ran first", file=sys.stderr, flush=True)

    print(
        f"{args.workload}, seed {args.seed}, {args.seconds} s runs, {args.pairs} pairs; "
        f"old {args.old}, new {args.new}"
    )
    print(f"{'metric':<12} {'unit':<4} {'old q1':>10} {'median':>10} {'q3':>10}"
          f" {'new q1':>10} {'median':>10} {'q3':>10} {'wins':>6} {'gain':>5} {'bound':>5}")
    for metric in metrics:
        name = metric["name"]
        old = [r[name]["value"] for r in runs["old"]]
        new = [r[name]["value"] for r in runs["new"]]
        wins, gain, bound = verdicts(metric, old, new)
        cells = [f"{x:10.4g}" for x in (*quartiles(old), *quartiles(new))]
        print(f"{name:<12} {metric['unit']:<4} {' '.join(cells)} {f'{wins}/{args.pairs}':>6}"
              f" {gain:>5} {bound:>5}")


if __name__ == "__main__":
    main()
