"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import dilogeq  # noqa: E402
import dilogeq.cli  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import REF_S, digest, reference_s, scaled, timed_pass  # noqa: E402
from workloads import WORKLOADS, BlochFq, DocsCheck, RelationSum, planned_ops  # noqa: E402


def test_same_seed_gives_identical_inputs():
    assert inputs.docs_cases(7, 130) == inputs.docs_cases(7, 130)
    assert inputs.relation_sum_specs(7, 3) == inputs.relation_sum_specs(7, 3)
    assert inputs.docs_cases(7, 60) != inputs.docs_cases(8, 60)
    assert inputs.relation_sum_specs(7, 3) != inputs.relation_sum_specs(8, 3)


def test_document_mix_is_exact_in_every_block():
    cases = inputs.docs_cases(3, 2 * inputs.BLOCK)
    for start in (0, inputs.BLOCK):
        block = cases[start : start + inputs.BLOCK]
        assert sum(len(c.variables) == 2 for c in block) == inputs.TWO_VAR_DOCS
        assert sum(c.field == "Qi" for c in block) == inputs.QI_DOCS
        assert sum(c.stray for c in block) == inputs.STRAY_DOCS
        assert sum("--probe" in c.flags for c in block) == inputs.PROBE_DOCS
        assert sum("--real" in c.flags for c in block) == (inputs.BLOCK - inputs.QI_DOCS) // 5
        assert not any("--real" in c.flags for c in block if c.field == "Qi")
        large = Counter(c.large_constant for c in block if c.large_constant)
        assert large == {c: 4 for c in inputs.LARGE_C}


def test_block_shapes_do_not_change_with_the_seed():
    def shapes(seed):
        return sorted(
            (c.variables, c.field, c.stray, c.flags, c.large_constant or 0, c.text.count("term:") - c.stray)
            for c in inputs.docs_cases(seed, inputs.BLOCK)
        )

    assert shapes(3) == shapes(4)


def test_complex_mode_labels_agree_with_check(tmp_path):
    """Where check returns a verdict in complex mode it matches the label;
    every exit 2 is one of the known defects (a)-(c)."""
    docs = DocsCheck(dilogeq, 5, str(tmp_path))
    docs.prepare(60)
    sample = [c for c in docs.cases if "--real" not in c.flags][:30]
    verdicts = 0
    for case in sample:
        outcome = docs.run(case)
        assert outcome.known and not outcome.wrong, (outcome.failure, case.text)
        verdicts += outcome.failure is None
    assert verdicts >= 20

    sums = RelationSum(dilogeq, 5, str(tmp_path))
    sums.prepare(1)
    assert sums.run(sums.cases[0]).failure is None


def test_traced_and_untraced_reports_are_identical(tmp_path):
    docs = DocsCheck(dilogeq, 2, str(tmp_path))
    docs.prepare(12)
    bloch = BlochFq(dilogeq, 2, str(tmp_path))
    bloch.prepare(3)
    bloch.cases = bloch.cases[:3]
    original = dilogeq.coprime.poly_gcd
    for workload in (docs, bloch):
        _, _, plain = timed_pass(workload, len(workload.cases))
        tracer = Tracer()
        tracer.install()
        try:
            _, _, traced = timed_pass(workload, len(workload.cases), tracer)
        finally:
            tracer.uninstall()
        assert digest(plain) == digest(traced)
        assert tracer.spans
    assert dilogeq.coprime.poly_gcd is original
    metrics = tracer.metrics(3, 0.0)
    assert metrics["intmat.solve_calls"][0] > 0


def test_planned_work_depends_only_on_seconds():
    for workload in WORKLOADS.values():
        ops = planned_ops(workload, 30)
        assert ops > 0 and ops % workload.unit == 0
        assert planned_ops(workload, 30) == ops
    assert planned_ops(DocsCheck, 1) == inputs.BLOCK


def test_scaling_is_identity_at_reference_speed():
    assert scaled(0.5, REF_S) == 0.5
    assert scaled(0.5, 2 * REF_S) == 0.25
    assert 0 < reference_s() < 1
