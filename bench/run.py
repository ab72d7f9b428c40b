"""Seeded benchmark of dilogeq: one workload, one seed, one run.

    python3 bench/run.py --workload docs-check --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds src/dilogeq.  Every workload runs
in fresh interpreters with PYTHONHASHSEED fixed (see worker.py and
`measure` below).  The operations of a run depend only on the workload, the
seed and `--seconds`: the workload's `passes` passes of `planned_ops`
operations each.  Times are scaled to the host's speed, measured by a fixed
reference computation around each operation (worker.py).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The line before it holds the run's
details: failure counts by class, failed and wrong shares, report digests
and provenance.  The same details are written under .bench_work/results/.
`correct` is false when an operation fails outside the documented defect
classes (a)-(d) of bench/README.md, or when the passes over the same
operations print different reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import timing  # noqa: E402
from workloads import WORKLOADS, planned_ops  # noqa: E402

HASH_SEED = "0"
WORKER_TIMEOUT_S = 170  # every run must end within 180 s
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def git_sha(root: str) -> str | None:
    """HEAD of a checkout's .git directory, read without starting git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def spawn(args, root: str, workdir: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its last JSON line."""
    ops = planned_ops(WORKLOADS[args.workload], args.seconds)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--ops", str(ops),
        "--trace", str(args.trace), "--root", root, "--workdir", workdir,
    ]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    proc = subprocess.run(
        cmd, env=env, cwd=root, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned_at),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, root: str, workdir: str, deadline: float) -> tuple[dict, dict]:
    """Matched passes: (details, metrics).

    The workload's `passes` interpreters, one after the other, run the same
    operations.  Each operation counts at the least of its scaled times,
    and the set-up at the median.  Another process's burst on the shared
    machine rarely slows the same step in every pass, and no cache inside
    the package can carry over from one interpreter to the next.
    """
    runs = [spawn(args, root, workdir, deadline) for _ in range(WORKLOADS[args.workload].passes)]
    times = [statistics.median(ts) for ts in zip(*(r.pop("scaled_times") for r in runs))]
    raw = [statistics.median(ts) for ts in zip(*(r.pop("times") for r in runs))]
    detail = dict(runs[0])
    detail["passes_identical"] = len({r["all_reports_sha256"] for r in runs}) == 1
    detail["setup_samples_s"] = [r["setup_s"] for r in runs]
    detail["setup_s"] = statistics.median(detail["setup_samples_s"])
    detail["setup_raw_s"] = statistics.median(r["setup_raw_s"] for r in runs)
    detail["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    detail["pass_s"] = [r["pass_s"] for r in runs]
    detail.update(timing(times))
    detail["unscaled"] = timing(raw)
    detail["correct"] = (
        detail["unexpected"] == 0
        and not any(r["warmup_unexpected"] for r in runs)
        and detail["passes_identical"]
    )
    metrics = {k: {"value": detail[k], "unit": u} for k, u in END_TO_END.items()}
    return detail, metrics


def trace(args, root: str, workdir: str, deadline: float) -> tuple[dict, dict]:
    """One interpreter: untraced pass, then the traced pass: (details, metrics)."""
    detail = spawn(args, root, workdir, deadline)
    per_layer = detail.pop("per_layer")
    detail["correct"] = (
        detail["unexpected"] == 0 and not detail["warmup_unexpected"] and detail["reports_identical"]
    )
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(per_layer.items())}
    return detail, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dilogeq", "__init__.py")):
        print("error: run from a checkout root holding src/dilogeq", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work")
    try:
        run = trace if args.trace else measure
        detail, metrics = run(args, root, workdir, start + WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    detail["provenance"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "pythonhashseed": HASH_SEED,
    }
    results = os.path.join(workdir, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
