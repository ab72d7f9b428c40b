"""The three workloads: one operation each, and its check against the label.

Each workload is a closed loop with one caller.  `prepare(ops)` does the
set-up for a pass of `ops` operations (input generation, documents written
to disk, package objects built) and `run` performs one operation and grades
it.  An operation fails when it ends
in exit 2 or an exception, or when its verdict differs from the answer known
from the construction; a failure is *known* when it is one of the defects
the README lists as (a)-(d), and every other failure makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import inputs

# Probe exhaustion (a) needs a probed document with a constant argument of
# |c| > 10^3 (every large constant; under --real even 1000003 reaches the
# probe); the oversized-constant exit (c) needs the prime 1000003.
OVERSIZED_C = 1000003


@dataclass(frozen=True)
class Outcome:
    report: bytes  # everything the operation printed, for the digests
    failure: str | None = None  # failure class, None when the label holds
    wrong: bool = False  # a verdict came back but it was the wrong one
    known: bool = True  # failure belongs to a documented defect class


def _invoke(tracer, root: str, fn, arg):
    """fn(arg), inside a root span when tracing."""
    return tracer.run_span(root, fn, arg) if tracer else fn(arg)


def _run_cli(tracer, main, argv) -> tuple[int | str, bytes, str]:
    """cli.main(argv) with stdout and stderr captured to memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _invoke(tracer, "cli", main, argv)
        except Exception as exc:  # an escaped exception is a graded failure
            code = f"exception {type(exc).__name__}: {exc}"
    text = out.getvalue() + "\0" + err.getvalue()
    return code, text.encode(), err.getvalue()


class DocsCheck:
    """`dilogeq check DOC --json` in-process, one generated document each."""

    name = "docs-check"
    unit = inputs.BLOCK  # a pass holds whole blocks, so its mix is exact
    passes = 2
    rate = 16.0

    def __init__(self, dilogeq, seed: int, workdir: str):
        self.cli = dilogeq.cli
        self.seed = seed
        self.workdir = os.path.join(workdir, self.name, f"seed-{seed}")

    def prepare(self, ops: int):
        os.makedirs(self.workdir, exist_ok=True)
        self.cases = inputs.docs_cases(self.seed, ops)
        self.warmup = inputs.warmup_doc()
        for case in [*self.cases, self.warmup]:
            with open(os.path.join(self.workdir, case.name), "w", encoding="utf-8") as fh:
                fh.write(case.text)

    def argv(self, case) -> list[str]:
        return ["check", os.path.join(self.workdir, case.name), "--json", *case.flags]

    def run(self, case, tracer=None) -> Outcome:
        code, report, err = _run_cli(tracer, self.cli.main, self.argv(case))
        return grade_doc(case, code, err, report)


def grade_doc(case, code, err: str, report: bytes) -> Outcome:
    """Grade one `check` run against the document's construction label."""
    if code == case.expected_exit:
        return Outcome(report)
    if code in (0, 1):
        # (d) --real answers Constant for every Q-coefficient sum
        known = "--real" in case.flags and case.stray and code == 0
        return Outcome(report, "d-real-verdict" if known else "wrong-verdict", True, known)
    if code == 2 and "admissible points in" in err:
        known = "--probe" in case.flags and case.large_constant is not None
        return Outcome(report, "a-probe-exhausted", known=known)
    if code == 2 and "0/0" in err:
        return Outcome(report, "b-zero-over-zero", known=len(case.variables) == 2)
    if code == 2 and "above the bound" in err:
        return Outcome(report, "c-oversized-constant", known=case.large_constant == OVERSIZED_C)
    return Outcome(report, "unexpected-error", known=False)


class RelationSum:
    """`check_constant(alpha)` through the Python API on seeded sums of
    five-term relations, Constant by construction."""

    name = "relation-sum"
    unit = 1
    passes = 2
    rate = 2.0

    def __init__(self, dilogeq, seed: int, workdir: str):
        self.dilogeq = dilogeq
        self.seed = seed

    def prepare(self, ops: int):
        specs = inputs.relation_sum_specs(self.seed, ops)
        self.cases = [self._build(spec) for spec in specs]
        self.warmup = self._build(inputs.relation_sum_specs(inputs.WARMUP_SEED, 1)[0])

    def _build(self, spec):
        d = self.dilogeq
        universe = inputs.RELATION_VARS

        def ratfunc(f):
            num, den = (d.MultiPoly(universe, {e: d.fe(c) for e, c in p}) for p in f)
            return d.RationalFunction(num, den)

        total = d.FormalSum.zero(universe)
        for coeff, x, y in spec:
            total = total + d.five_term(ratfunc(x), ratfunc(y)).scale(coeff)
        return total

    def run(self, alpha, tracer=None) -> Outcome:
        # looked up per call, so a traced run sees the wrapped function
        try:
            cert = _invoke(tracer, "api", self.dilogeq.check_constant, alpha)
        except Exception as exc:
            return Outcome(repr(exc).encode(), "unexpected-error", known=False)
        report = repr((cert.verdict, cert.witness, cert.residual_beta3)).encode()
        b3 = cert.residual_beta3
        if cert.verdict != "Constant":
            return Outcome(report, "wrong-verdict", True, known=False)
        if b3["pairs"] or b3["units"] or b3["unit_unit"]:
            return Outcome(report, "nonzero-beta3", True, known=False)
        return Outcome(report)


class BlochFq:
    """`dilogeq blochfq P --json` in-process over a fixed ascending prime
    list, with `--oracle` at p = 5 and 7."""

    name = "bloch-fq"
    unit = len(inputs.BLOCH_PRIMES)  # whole passes weigh the primes alike
    # Nine operations a pass: more interpreters, not more primes per
    # interpreter, so that no prime runs twice in one interpreter.
    passes = 4
    rate = 1.2

    def __init__(self, dilogeq, seed: int, workdir: str):
        self.cli = dilogeq.cli  # the inputs are the same for every seed

    def prepare(self, ops: int):
        self.cases = inputs.bloch_cases()  # a pass cycles through the list
        self.warmup = self.cases[0]

    def argv(self, case) -> list[str]:
        p, flags = case
        return ["blochfq", str(p), "--json", *flags]

    def run(self, case, tracer=None) -> Outcome:
        code, report, _ = _run_cli(tracer, self.cli.main, self.argv(case))
        return grade_bloch(case, code, report)


def grade_bloch(case, code, report: bytes) -> Outcome:
    """c-facts true for every p, the oracle agreeing where it runs, and the
    presentation sizes and wedge square matching an independent count."""
    p, flags = case
    if code != 0:
        return Outcome(report, "unexpected-error", known=False)
    data = json.loads(report.split(b"\0", 1)[0])
    d = inputs.wedge_square_order(p)
    n = p - 2
    expected = {
        "generators": n,
        "five_term_rows": n * (n - 1),
        "inversion_rows": n,
        "wedge_square": f"Z/{d}" if d > 1 else "0",
        "c_class_independent": True,
        "three_c_in_span": True,
    }
    if "--oracle" in flags:
        expected["oracle_agrees"] = True
    if any(data.get(k) != v for k, v in expected.items()):
        return Outcome(report, "wrong-answer", True, known=False)
    return Outcome(report)


WORKLOADS = {w.name: w for w in (DocsCheck, RelationSum, BlochFq)}


def planned_ops(workload, seconds: float) -> int:
    """Operations in each of a run's `passes` passes, in whole units.

    `rate` sizes the work: about the operations per second one pass
    completed, reference samples included, on the host the benchmark was
    tuned on (see the README) at the commit that defined it, between the
    host's fast and slow states, so a run there lasts about `seconds`.  The work depends only on `seconds`: every commit runs the
    same operations for a seed, and a faster commit finishes sooner."""
    units = max(1, round(seconds / workload.passes * workload.rate / workload.unit))
    return units * workload.unit
