"""One workload pass in a fresh interpreter; started by run.py.

Set-up (import, input generation, writing documents, one warm-up operation)
ends at the first timed operation; `--spawned-at` is the launcher's
CLOCK_MONOTONIC reading just before it started this interpreter, so the
reported set-up time includes interpreter start.

The timed pass runs exactly `--ops` operations back to back, one at a time.
A fixed pure-Python reference computation runs before the first operation,
after each one and every SAMPLE_EVERY_S during each; every time is reported
both as measured and scaled to the host's speed it met (see `scaled`).  With `--trace 1` a traced
pass then repeats the same operations with the tracer installed; its
per-layer metrics, the tracing overhead and a byte-for-byte comparison of
the two passes' reports are the result.  The last line of stdout is one
JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Reports of the first this-many timed operations are hashed into a digest
# that later commits can compare; the whole relation-sum pass is short.
DIGEST_OPS = {"docs-check": 120, "relation-sum": 10, "bloch-fq": 9}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Host speed.  On a shared host the same code runs up to 70% slower for
# seconds to minutes at a time, and a whole run can fall in a slow stretch.
# The reference below multiplies small polynomials with Fraction
# coefficients, the arithmetic the package spends its time in, and slows
# with it.  It runs before the first operation, after each one, and every
# SAMPLE_EVERY_S while an operation runs (`Sampler`), so that an operation
# of seconds is scaled by the speed it met.  REF_S is about its time on the
# host the benchmark was tuned on (see the README) in that host's fast
# state, so scaled times read about as measured there.  The reference never
# calls the package, so a change to the package does not move it.
REF_S = 0.0004
SAMPLE_EVERY_S = 0.02
_ref_rnd = random.Random(7)
_REF_P, _REF_Q = (
    [((_ref_rnd.randint(0, 3), _ref_rnd.randint(0, 3)), Fraction(_ref_rnd.randint(-9, 9), _ref_rnd.randint(1, 9)))
     for _ in range(6)]
    for _ in range(2)
)


def _ref_mul(a, b):
    out = {}
    for (i, j), ca in a:
        for (k, l), cb in b:
            e = (i + k, j + l)
            out[e] = out.get(e, 0) + ca * cb
    return list(out.items())


def reference_s() -> float:
    """Time of the reference computation, with the collector off so that
    the package's heap does not weigh on it."""
    gc.disable()
    try:
        start = time.perf_counter()
        _ref_mul(_ref_mul(_REF_P, _REF_Q), _REF_P)
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(seconds: float, ref: float) -> float:
    """`seconds` measured while the reference took `ref`, at REF_S speed."""
    return seconds * REF_S / ref


class Sampler:
    """Reference samples taken from a SIGALRM handler while a block runs.

    `samples` holds the reference times, `spent` the time the handler took,
    which the caller subtracts from the block's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def timed_pass(workload, ops: int, tracer=None):
    """Run exactly `ops` operations: (times, scaled times, outcomes).

    Each operation's time, less the sampler's, is scaled by the mean of
    the reference times just before it, during it and just after it."""
    cases = workload.cases
    times: list[float] = []
    scaled_times: list[float] = []
    outcomes = []
    sampler = Sampler()
    before = reference_s()
    for i in range(ops):
        case = cases[i % len(cases)]
        if tracer is not None:
            tracer.op = i
        with sampler:
            start = time.perf_counter()
            outcome = workload.run(case, tracer)
            dt = time.perf_counter() - start - sampler.spent
        after = reference_s()
        times.append(dt)
        scaled_times.append(scaled(dt, statistics.fmean([before, *sampler.samples, after])))
        outcomes.append(outcome)
        before = after
    return times, scaled_times, outcomes


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(len(o.report).to_bytes(8, "big"))
        h.update(o.report)
    return h.hexdigest()


def timing(times: list[float]) -> dict:
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1000 * percentile(times, 0.5),
        "op_p90_ms": 1000 * percentile(times, 0.9),
    }


def summarize(name: str, outcomes) -> dict:
    failures: dict[str, int] = {}
    for o in outcomes:
        if o.failure:
            failures[o.failure] = failures.get(o.failure, 0) + 1
    ops = len(outcomes)
    failed = sum(failures.values())
    wrong = sum(o.wrong for o in outcomes)
    n_digest = min(ops, DIGEST_OPS[name])
    return {
        "attempted": ops,
        "failed": failed,
        "unexpected": sum(1 for o in outcomes if o.failure and not o.known),
        "failures_by_class": dict(sorted(failures.items())),
        "failed_share": failed / ops,
        "wrong_share": wrong / ops,
        "report_sha256": {"ops": n_digest, "sha256": digest(outcomes[:n_digest])},
        "all_reports_sha256": digest(outcomes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True, help="operations in the timed pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--root", required=True, help="checkout holding src/dilogeq")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    with Sampler() as sampler:
        sys.path.insert(0, os.path.join(args.root, "src"))
        import dilogeq
        import dilogeq.cli

        workload = WORKLOADS[args.workload](dilogeq, args.seed, args.workdir)
        workload.prepare(args.ops)
        warm = workload.run(workload.warmup)
        setup_raw_s = time.monotonic() - args.spawned_at - sampler.spent
    setup_ref_s = statistics.fmean([*sampler.samples, reference_s()])
    result = {
        "setup_raw_s": setup_raw_s,
        "setup_s": scaled(setup_raw_s, setup_ref_s),
        "warmup_unexpected": bool(warm.failure and not warm.known),
    }
    pass_start = time.monotonic()
    times, scaled_times, outcomes = timed_pass(workload, args.ops)
    result["pass_s"] = time.monotonic() - pass_start
    if not args.trace:
        result.update(summarize(args.workload, outcomes))
        result["times"] = times
        result["scaled_times"] = scaled_times
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0

    tracer = Tracer()
    tracer.install()
    try:
        _, t_scaled, t_outcomes = timed_pass(workload, args.ops, tracer)
    finally:
        tracer.uninstall()
    result.update(summarize(args.workload, t_outcomes))
    result["reports_identical"] = digest(outcomes) == digest(t_outcomes)
    result["untraced"] = timing(scaled_times)
    result["traced"] = timing(t_scaled)
    overhead = sum(t_scaled) / sum(scaled_times) - 1
    result["per_layer"] = tracer.metrics(args.ops, overhead)
    os.makedirs(args.workdir, exist_ok=True)
    spans = os.path.join(args.workdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(spans)
    result["spans_file"] = os.path.relpath(spans, args.root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
