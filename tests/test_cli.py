"""Command line interface, run in-process through main(argv)."""

import argparse
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq import blochfq, coprime, poly, primes
from dilogeq.cli import build_parser, main
from dilogeq.document import load_document
from dilogeq.exprparse import parse_expression
from dilogeq.formal import c_element, five_term, inversion
from dilogeq.numerics import ModPiSqHalf, bloch_wigner, rl_bar
from dilogeq.scalars import fe

from helpers import ROOT, bench_inputs

FIVE_DOC = """\
dilog-identity v1
variables: x, y
term: 1 [x]
term: -1 [y]
term: 1 [y/x]
term: 1 [(1-x)/(1-y)]
term: -1 [(1 - x^-1)/(1 - y^-1)]
"""

SINGLE_DOC = "dilog-identity v1\nvariables: t\nterm: 1 [t]\n"
INVERSION_DOC = "dilog-identity v1\nvariables: t\nterm: 1 [t]\nterm: 1 [t^-1]\n"
def test_check_constant_far_above_the_trial_bound(run):
    # 1 - 2^20000 leaves a residual of 5928 digits, more than Python
    # formats into a message by default
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 1 [2^20000]\n"
    code, out, err = run(["check", doc])
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: .* above the bound 1000000: residual of \d+ digits\n", err)


def test_check_a_power_of_a_variable(run):
    # squarefree_parts reads t^100000 from its exponents, with no gcd
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 1 [t^100000]\n"
    code, out, err = run(["check", doc])
    assert (code, err) == (1, "")
    assert "witness: beta1 pairing (t) ^ (t^100000 - 1) = 100000" in out


def test_check_prints_a_coefficient_beyond_the_int_to_str_limit(run):
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 1 [t*3^300000]\n"
    code, out, err = run(["check", doc])
    assert (code, err) == (1, "")
    witness = re.search(r"witness: beta1 pairing \(t\) \^ \(t - 1/(\d+)\) = 1\n", out)
    assert witness and int(witness[1][:4000]) == 3**300000 // 10 ** (len(witness[1]) - 4000)
    assert len(witness[1]) == 143137


@pytest.mark.parametrize("mode", [[], ["--real"]], ids=["complex", "real"])
def test_check_inversion_pair_beyond_float_range(run, mode):
    # at t = 2 one argument overflows a float and the other underflows to 0;
    # each is read through its inverse in the unit disc, so the exact
    # verdict keeps its numeric constant instead of ending in exit 2
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 1 [t*3^300000]\nterm: 1 [1/(t*3^300000)]\n"
    code, out, err = run(["check", doc, *mode])
    assert (code, err) == (0, "")
    assert out.startswith("verdict: Constant\n")
    assert re.search(r"^constant: -?0\.0 \+/- 0\.0( \(mod pi\^2/2\))?$", out, re.M)


@pytest.mark.parametrize("mode", ["complex", "real"])
@given(
    st.lists(
        st.tuples(
            st.integers(-(10**6), 10**6),
            st.integers(-(10**6), 10**6),
            st.integers(1, 1000),
            st.sampled_from([-3, -2, -1, 1, 2]),
        ),
        max_size=4,
    )
)
@settings(max_examples=60)
def test_a_value_at_a_point_reads_as_its_direct_sum(mode, terms):
    # each argument has |z| > 1 and is read through 1/z with the opposite
    # sign, which moves the reading by rounding only, wherever z is a float
    import dilogeq.cli as cli

    cli._bind_document_names()
    value = []
    for a, b, d, k in terms:
        z = fe(Fraction(a, d), Fraction(b, d) if mode == "complex" else 0)
        if z.a * z.a + z.b * z.b > z.d * z.d:
            value.append((z, Fraction(k)))
    reading = cli._numeric_of_value(value, mode)
    if mode == "complex":
        direct = sum(float(k) * bloch_wigner(z.to_complex()) for z, k in value)
        assert math.isclose(reading, direct, rel_tol=0, abs_tol=1e-12)
    else:
        direct = ModPiSqHalf.of(0.0)
        for z, k in value:
            direct = direct + rl_bar(z.re).scale(k)
        assert reading.distance(direct) <= 1e-12


@pytest.mark.parametrize(
    "expression, degree, col",
    [("t^1000000000 + 1", 1000000000, 2), ("((t + 1)^1000)^1000", 1000000, 15)],
)
def test_check_refuses_a_degree_above_the_limit(run, expression, degree, col):
    doc = f"DOC:dilog-identity v1\nvariables: t\nterm: 1 [{expression}]\n"
    code, out, err = run(["check", doc])
    assert (code, out) == (2, "")
    assert err == (
        f"error: total degree {degree} is above the limit 100000"
        f" (line 3, column {col} of the expression)\n"
    )


def test_check_refuses_a_constant_power_above_the_coefficient_limit(run):
    # 2^999999999999 has degree 0, so only the coefficient limit bounds it
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 1 [t*2^999999999999]\n"
    code, out, err = run(["check", doc])
    assert (code, out) == (2, "")
    assert err == (
        "error: coefficient size 1999999999998 bits is above the limit 1000000"
        " (line 3, column 4 of the expression)\n"
    )


def test_check_refuses_a_product_above_the_coefficient_limit(run):
    # each power passes, and the third product would reach 1426467 bits
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 1 [t*3^300000*3^300000*3^300000*3^300000]\n"
    code, out, err = run(["check", doc])
    assert (code, out) == (2, "")
    assert err == (
        "error: coefficient size 1426467 bits is above the limit 1000000"
        " (line 3, column 20 of the expression)\n"
    )


def test_check_names_the_document_line_of_a_syntax_error(run):
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 1 [t + )]\n"
    code, out, err = run(["check", doc])
    assert (code, out) == (2, "")
    assert err == "error: expected a value, found ')' (line 3, column 5 of the expression)\n"


CC_PAIR_DOC = "dilog-identity v1\nfield: Qi\nvariables: z ~ w\nterm: 1 [z]\nterm: 1 [w]\n"
CC_SINGLE_DOC = "dilog-identity v1\nfield: Qi\nvariables: z ~ w\nterm: 1 [z]\n"


@pytest.fixture
def run(capsys, tmp_path, monkeypatch):
    def go(argv, stdin=None):
        paths = []
        for i, a in enumerate(argv):
            if a.startswith("DOC:"):
                path = tmp_path / f"doc{i}.txt"
                path.write_text(a[4:])
                paths.append(str(path))
                argv[i] = str(path)
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


# -- check -------------------------------------------------------------------------


def test_check_five_term_is_constant(run):
    code, out, err = run(["check", "DOC:" + FIVE_DOC])
    assert code == 0
    assert "verdict: Constant" in out
    assert err == ""


def test_check_five_term_json_constant_is_tiny(run):
    code, out, _ = run(["check", "DOC:" + FIVE_DOC, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "Constant"
    assert report["witness"] is None
    assert abs(report["constant"]) <= 1e-9
    assert report["constant_bound"] <= 1e-9
    assert report["point"] == {"x": "2", "y": "3"}


def test_check_single_dilog_fails_with_witness(run):
    code, out, _ = run(["check", "DOC:" + SINGLE_DOC])
    assert code == 1
    assert "verdict: NotConstant" in out
    assert "(t) ^ (t - 1)" in out


def test_check_single_dilog_json_witness(run):
    code, out, _ = run(["check", "DOC:" + SINGLE_DOC, "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "NotConstant"
    assert report["witness"]["kind"] == "pair"
    assert report["witness"]["left"] == "t"
    assert report["witness"]["right"] == "t - 1"
    assert report["witness"]["value"] == "1"


def test_check_reads_stdin(run):
    code, out, _ = run(["check", "-"], stdin=FIVE_DOC)
    assert code == 0
    assert "verdict: Constant" in out


def test_check_malformed_document(run):
    code, _, err = run(["check", "DOC:" + "not a document\n"])
    assert code == 2
    assert "error:" in err


def test_check_missing_file(run):
    code, _, err = run(["check", "/nonexistent/never.doc"])
    assert code == 2
    assert "error:" in err


def test_check_real_mode_inversion(run):
    code, out, _ = run(["check", "DOC:" + INVERSION_DOC, "--real", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "real"
    assert report["verdict"] == "Constant"
    assert report["constant_modulus"] == "pi^2/2"


@pytest.mark.parametrize(
    "doc",
    [INVERSION_DOC, FIVE_DOC, "dilog-identity v1\nvariables: t\n"],
    ids=["inv", "five", "empty"],
)
def test_check_real_mode_constant_is_zero(run, doc):
    # rl_bar(2) + rl_bar(1/2), the five-term sum at (2, 3) and the empty sum
    # are all 0 in R/(pi^2/2)Z; a representative may sit on either side of
    # the wrap
    code, out, _ = run(["check", "DOC:" + doc, "--real", "--json"])
    assert code == 0
    report = json.loads(out)
    assert ModPiSqHalf.of(report["constant"]).distance_to_zero() <= 1e-9
    assert 0 <= report["constant_bound"] <= 1e-9
    code, out, _ = run(["check", "DOC:" + doc, "--real"])
    assert re.search(r"^constant: \S+ \+/- \S+ \(mod pi\^2/2\)$", out, re.M)


def test_check_real_mode_omits_the_constant_of_rational_coefficients(run):
    doc = "DOC:dilog-identity v1\ncoefficients: Q\nvariables: t\nterm: 1/2 [t]\nterm: 1/2 [1/t]\n"
    note = "no constant mod pi^2/2: the sum has non-integer coefficients"
    code, out, _ = run(["check", doc, "--real", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "Constant"
    assert report["notes"] == [note]
    assert report["point"] == {"t": "2"}
    assert not {"constant", "constant_bound", "constant_modulus"} & report.keys()
    code, out, _ = run(["check", doc, "--real"])
    assert code == 0
    assert f"note: {note}\n" in out
    assert "constant:" not in out


@pytest.mark.parametrize(
    "terms, verdict",
    [("term: 1/2 [t]\nterm: 1/2 [1/t]\n", "Constant"), ("term: 1/2 [t]\n", "NotConstant")],
    ids=["constant", "not-constant"],
)
def test_check_real_probe_of_rational_coefficients_shares_the_note(run, terms, verdict):
    # the real probe reads a class mod pi^2/2 too, so it is skipped under
    # the one note instead of ending the run after the exact verdict
    doc = "DOC:dilog-identity v1\ncoefficients: Q\nvariables: t\n" + terms
    note = "no constant mod pi^2/2: the sum has non-integer coefficients"
    code, out, err = run(["check", doc, "--real", "--probe", "5"])
    assert (code, err) == (0 if verdict == "Constant" else 1, "")
    assert out.startswith(f"verdict: {verdict}\n")
    assert out.count(note) == 1 and "probe[" not in out
    code, out, _ = run(["check", doc, "--real", "--probe", "5", "--json"])
    report = json.loads(out)
    assert report["probe"] is None and report["notes"] == [note]


def test_check_real_mode_uses_the_rogers_criterion(run):
    # [t] + [1/t] is constant mod pi^2/2 on the real line, [t + 1] is not
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 1 [t]\nterm: 1 [1/t]\nterm: 1 [t + 1]\n"
    code, out, _ = run(["check", doc, "--real", "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "NotConstant"
    assert report["witness"] == {"kind": "pair", "left": "t", "right": "t + 1", "value": "-1"}


def test_check_real_mode_prints_the_centered_representative(run):
    # 2*rl_bar(1/2) is the class of -pi^2/6, printed as itself rather than
    # as pi^2/3 in [0, pi^2/2)
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 2 [1/2]\n"
    code, out, _ = run(["check", doc, "--real", "--json"])
    assert code == 0
    assert abs(json.loads(out)["constant"] + math.pi**2 / 6) <= 1e-12
    code, out, _ = run(["check", doc, "--real"])
    assert "constant: -1.644934066848" in out


def test_check_real_mode_prints_a_tiny_negative_sum_as_itself(run):
    # the float sum at (2, 2) is a tiny negative number, which the range
    # [0, pi^2/2) would print as 4.934802200544677
    doc = (
        "DOC:dilog-identity v1\nvariables: x, y\n"
        "term: -2 [(y + 1)]\nterm: 2 [1/2*x^2*y]\nterm: -2 [(1/2*x^2*y)/((y + 1))]\n"
        "term: -2 [(1 - ((y + 1)))/(1 - (1/2*x^2*y))]\n"
        "term: 2 [(1 - ((y + 1))^-1)/(1 - (1/2*x^2*y)^-1)]\n"
        "term: -2 [3*x^2*y]\nterm: -2 [1/(3*x^2*y)]\n"
    )
    code, out, _ = run(["check", doc, "--real", "--probe", "30", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["point"] == {"x": "2", "y": "2"}
    assert abs(report["constant"]) <= 1e-12
    assert abs(report["probe"]["mean_value"]) <= 1e-9


def test_check_real_mode_of_a_gaussian_document_reads_rational_points(run):
    # over Q(i) the real reading searches the rational grid, so the report
    # is the one of the same document over Q
    terms = "variables: t\nterm: 1 [t]\nterm: 1 [1/t]\n"
    code, out_qi, _ = run(["check", f"DOC:dilog-identity v1\nfield: Qi\n{terms}", "--real"])
    assert code == 0
    code, out_q, _ = run(["check", f"DOC:dilog-identity v1\nfield: Q\n{terms}", "--real"])
    assert out_qi == out_q
    assert "point: t = 2\n" in out_qi
    assert "constant: 0.0 +/- 0.0 (mod pi^2/2)\n" in out_qi
    # t^2 - 2*i*t is real (c^2 + 1) at the Gaussian points c + i, and at no
    # rational point
    f = "t^2 - 2*i*t"
    doc = f"DOC:dilog-identity v1\nfield: Qi\nvariables: t\nterm: 1 [{f}]\nterm: 1 [1/({f})]\n"
    code, out, _ = run(["check", doc, "--real", "--json"])
    assert code == 0
    assert json.loads(out)["point"] is None


def test_check_real_mode_skips_points_with_non_real_values(run):
    # i*t is not real at any rational t, so no grid point is admissible
    doc = "DOC:dilog-identity v1\nfield: Qi\nvariables: t\nterm: 1 [i*t]\nterm: 1 [1/(i*t)]\n"
    note = "no admissible rational point found on the search grid"
    code, out, _ = run(["check", doc, "--real", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "Constant"
    assert report["point"] is None
    assert report["notes"] == [note]
    assert "constant" not in report
    # the complex reading still finds a Gaussian point
    code, out, _ = run(["check", doc, "--json"])
    assert json.loads(out)["point"] == {"t": "2 + i"}


def test_check_real_probe_without_real_points_keeps_the_verdict(run):
    # no draw of the real probe is admissible either: check reports the
    # Constant verdict with a note, while the probe command still fails
    doc = "DOC:dilog-identity v1\nfield: Qi\nvariables: t\nterm: 1 [i*t]\nterm: 1 [1/(i*t)]\n"
    note = "no probe: found 0 admissible points in 4000 draws (need 10)"
    code, out, err = run(["check", doc, "--real", "--probe", "10", "--json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "Constant"
    assert report["probe"] is None
    assert report["notes"][-1] == note
    code, out, _ = run(["check", doc, "--real", "--probe", "10"])
    assert code == 0
    assert out.startswith("verdict: Constant\n") and f"note: {note}\n" in out
    code, out, err = run(["probe", doc, "--domain", "real", "--samples", "10"])
    assert (code, out) == (2, "")
    assert err == "error: found 0 admissible points in 4000 draws (need 10)\n"


@pytest.mark.parametrize("arg", ["(y - 3)/(x - 2)", "(1/3*x^2 - 4/3)/(x^2 + 2/3*x*y)"])
def test_check_point_search_skips_zero_over_zero(run, arg):
    # the first grid points make numerator and denominator vanish together
    doc = f"DOC:dilog-identity v1\nvariables: x, y\nterm: 1 [{arg}]\nterm: 1 [1/({arg})]\n"
    code, out, err = run(["check", doc])
    assert (code, err) == (0, "")
    assert "verdict: Constant" in out
    assert "point: x = 3, y = 2" in out


def test_check_probe_with_a_large_constant(run):
    doc = "DOC:dilog-identity v1\nvariables:\nterm: 1 [999983]\nterm: 1 [1 - 999983]\n"
    code, out, err = run(["check", doc, "--probe", "30"])
    assert (code, err) == (0, "")
    assert "over 30 points" in out


def test_check_probe_skips_a_draw_that_overflows(run):
    # x^500 overflows a complex float for |x| above about 4.1; the probe
    # rejects such a draw, and the exact verdict is printed either way
    doc = "DOC:dilog-identity v1\nvariables: x\nterm: 1 [x^500]\nterm: 1 [1 - x^500]\n"
    code, out, err = run(["check", doc, "--probe", "5", "--seed", "2"])
    assert (code, err) == (0, "")
    assert out.startswith("verdict: Constant\n")
    assert re.search(r"^probe\[complex\]: max deviation \S+ over 5 points", out, re.M)
    # admissible draws lie on a thin annulus about |x| = 1: at seed 0 too
    # few are found, and check notes it
    code, out, err = run(["check", doc, "--probe", "5"])
    assert (code, err) == (0, "")
    assert "note: no probe: found 4 admissible points in 2000 draws (need 5)\n" in out


def test_check_trial_divides_each_constant_once(run, monkeypatch):
    # the prime 999999000001 occurs in three tensor arguments; proving it
    # prime walks about 5 * 10^5 trial divisors, and only once per run
    trial_sequence = primes._trial_sequence
    long_walks = []

    def counted():
        for k, p in enumerate(trial_sequence()):
            if k == 10**5:
                long_walks.append(p)
            yield p

    monkeypatch.setattr(primes, "_trial_sequence", counted)
    primes._factor_int.cache_clear()
    doc = (
        "DOC:dilog-identity v1\nvariables: t\n"
        "term: 1 [999999000001*t]\nterm: 1 [1/(999999000001*t)]\n"
    )
    code, out, err = run(["check", doc])
    assert (code, err) == (0, "")
    assert len(long_walks) == 1


def test_check_constant_with_a_prime_above_the_trial_bound(run):
    # 1000003 > 10^6 is proved prime by trial division up to its square root
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 1 [1000003*t]\n"
    code, out, err = run(["check", doc])
    assert (code, err) == (1, "")
    assert "witness: beta1 pairing (t) ^ (t - 1/1000003) = 1" in out
    doc = "DOC:dilog-identity v1\nvariables: t\nterm: 1 [1000003*t]\nterm: 1 [1/(1000003*t)]\n"
    code, out, err = run(["check", doc])
    assert (code, err) == (0, "")
    assert "verdict: Constant" in out


def test_check_cc_mode(run):
    code, out, _ = run(["check", "DOC:" + CC_PAIR_DOC, "--cc"])
    assert code == 0
    assert "verdict: Constant" in out

    code, out, _ = run(["check", "DOC:" + CC_SINGLE_DOC, "--cc"])
    assert code == 1
    assert "(w) ^ (w - 1)" in out


def test_check_cc_mixed_locus(run):
    # x real, w = conj(z): D(x*|z|^2) = 0, while D(x*z) varies with z
    head = "dilog-identity v1\nfield: Qi\nvariables: x, z ~ w\n"
    code, out, err = run(["check", "DOC:" + head + "term: 1 [x*z*w]\n", "--cc"])
    assert (code, err) == (0, "")
    assert "verdict: Constant" in out
    code, out, err = run(["check", "DOC:" + head + "term: 1 [x*z]\n", "--cc"])
    assert (code, err) == (1, "")
    assert "witness: beta1 pairing" in out


def test_check_cc_mode_needs_pairs(run):
    # with no pair every variable is real, and D of a real argument is 0
    code, out, err = run(["check", "DOC:" + SINGLE_DOC, "--cc"])
    assert (code, err) == (0, "")
    assert out.startswith("verdict: Constant\n")


def test_check_padic_mode(run):
    code, out, _ = run(["check", "DOC:" + FIVE_DOC, "--padic", "5", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "padic"
    assert report["verdict"] == "Constant"
    assert any("branch" in note for note in report["notes"])


BRANCH_NOTE = (
    "p-adic reading: a Constant verdict holds for every branch of log_p; "
    "only the value of the constant depends on the branch"
)
PROBE_LINE = (
    "probe[complex]: max deviation 3.497202527569243e-16 over 5 points, "
    "mean -1.6653345369377347e-17"
)
PROBE_NOTE = (
    "probe deviation 3.497202527569243e-16 exceeds tolerance 0.0 despite a Constant verdict"
)
NO_BETA3 = {"pairs": {}, "unit_unit": "0", "units": {}}

# `check --padic 5` reports as the certificate's own note printed them: the
# branch note is the first of the JSON notes and the last line of the text,
# after the probe's note
CHECK_PADIC_GOLDEN = [
    (
        FIVE_DOC,
        ["--probe", "5", "--tolerance", "0"],
        0,
        f"verdict: Constant\nresidual beta3: none\n{PROBE_LINE}\n"
        f"note: {PROBE_NOTE}\nnote: {BRANCH_NOTE}\n",
        {
            "beta3": NO_BETA3,
            "mode": "padic",
            "notes": [BRANCH_NOTE, PROBE_NOTE],
            "probe": {
                "domain": "complex",
                "max_deviation": 3.497202527569243e-16,
                "mean_value": -1.6653345369377347e-17,
                "points_used": 5,
            },
            "verdict": "Constant",
            "witness": None,
        },
    ),
    (
        SINGLE_DOC,
        [],
        1,
        "verdict: NotConstant\nwitness: beta1 pairing (t) ^ (t - 1) = 1\n"
        f"residual beta3: none\nnote: {BRANCH_NOTE}\n",
        {
            "beta3": NO_BETA3,
            "mode": "padic",
            "notes": [BRANCH_NOTE],
            "verdict": "NotConstant",
            "witness": {"kind": "pair", "left": "t", "right": "t - 1", "value": "1"},
        },
    ),
]


@pytest.mark.parametrize("doc, flags, code, text, report", CHECK_PADIC_GOLDEN, ids=["five", "t"])
def test_check_padic_golden(run, doc, flags, code, text, report):
    assert run(["check", "DOC:" + doc, "--padic", "5", *flags]) == (code, text, "")
    got, out, err = run(["check", "DOC:" + doc, "--padic", "5", "--json", *flags])
    assert (got, err) == (code, "")
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_check_padic_takes_a_prime_that_miller_rabin_proves(run):
    # 2^61 - 1 has no divisor up to 10^6 and is far below psi_13
    text = f"verdict: Constant\nresidual beta3: none\nnote: {BRANCH_NOTE}\n"
    assert run(["check", "DOC:" + FIVE_DOC, "--padic", "2305843009213693951"]) == (0, text, "")


@pytest.mark.parametrize(
    "value, message",
    [
        ("4", "--padic 4 is not a prime"),
        ("1", "--padic 1 is not a prime"),
        ("-3", "--padic -3 is not a prime"),
        # 1000003 * 1000033, which base 2 shows composite
        ("1000036000099", "--padic 1000036000099 is not a prime"),
        # 2^89 - 1 is prime, but at or above psi_13 Miller-Rabin cannot prove it
        (
            "618970019642690137449562111",
            "--padic 618970019642690137449562111 is too large to prove prime",
        ),
    ],
)
def test_check_rejects_bad_padic_prime(run, tmp_path, value, message):
    argv = ["check", "DOC:" + FIVE_DOC, "--padic", value]
    assert run(argv) == (2, "", f"error: {message}\n")
    # the check comes before the document is read
    argv[1] = str(tmp_path / "missing.txt")
    assert run(argv)[2] == f"error: {message}\n"


@pytest.mark.parametrize(
    "value, shown",
    [("nan", "nan"), ("-1", "-1.0"), ("-1e-300", "-1e-300"), ("inf", "inf"), ("-inf", "-inf")],
)
def test_check_rejects_a_tolerance_that_disables_or_inverts_the_note(run, tmp_path, value, shown):
    # "=" keeps argparse from reading "-inf" as an option
    argv = ["check", "DOC:" + INVERSION_DOC, "--probe", "10", f"--tolerance={value}"]
    message = f"error: --tolerance must be finite and at least 0, got {shown}\n"
    assert run(argv) == (2, "", message)
    # the check comes before the document is read
    argv[1] = str(tmp_path / "missing.txt")
    assert run(argv)[2] == message


def test_check_accepts_a_zero_tolerance(run):
    code, out, err = run(["check", "DOC:" + FIVE_DOC, "--tolerance", "0", "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "Constant"


def test_check_cc_refuses_a_probe_before_any_work(run, tmp_path, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the cc verdict was computed")

    monkeypatch.setattr("dilogeq.cli.check_constant_cc", unreachable)
    argv = ["check", "DOC:" + CC_PAIR_DOC, "--cc", "--probe", "5"]
    assert run(argv) == (2, "", "error: --probe is not available in cc mode\n")
    # a missing document gives this error, not the file error
    argv[1] = str(tmp_path / "missing.txt")
    assert run(argv)[2] == "error: --probe is not available in cc mode\n"


def test_check_with_probe(run):
    code, out, _ = run(["check", "DOC:" + FIVE_DOC, "--probe", "50", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["probe"]["points_used"] == 50
    assert report["probe"]["max_deviation"] <= 1e-9


# -- specialize ---------------------------------------------------------------------


def test_specialize_to_zero_inserts_correction(run):
    code, out, _ = run(["specialize", "DOC:" + SINGLE_DOC, "--step", "t=0"])
    assert code == 0
    assert out.startswith("result: [-1] + [2]\n")
    assert "term: 1 [-1]" in out and "term: 1 [2]" in out


def test_specialize_to_infinity(run):
    code, out, _ = run(["specialize", "DOC:" + SINGLE_DOC, "--step", "t=inf"])
    assert code == 0
    assert out.startswith("result: -[-1] - [2]\n")


def test_specialize_with_explicit_aux(run):
    code, out, _ = run(
        ["specialize", "DOC:" + SINGLE_DOC, "--step", "t=0,c=3", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["variables"] == []
    got = {t["expression"]: t["coefficient"] for t in report["terms"]}
    assert got == {"3": "1", "-2": "1"}


def test_specialize_partial_keeps_variables(run):
    code, out, _ = run(
        ["specialize", "DOC:" + FIVE_DOC, "--step", "y=x^2", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["variables"] == ["x"]
    # the result document is itself loadable
    code, out, _ = run(["specialize", "DOC:" + FIVE_DOC, "--step", "y=x^2"])
    doc_text = out.split("\n", 2)[2]
    load_document(doc_text)


PAIRED_DOC = "dilog-identity v1\nfield: Qi\nvariables: x, z ~ w\nterm: 1 [x*z*w]\nterm: 1 [z]\n"


def test_specialize_keeps_a_pair_whose_variables_survive(run):
    code, out, _ = run(["specialize", "DOC:" + PAIRED_DOC, "--step", "x=2"])
    assert code == 0
    doc = out.split("\n", 2)[2]
    assert "variables: z ~ w\n" in doc
    # read with the pair, [z] + [2*z*w] is not constant on the conjugation
    # locus; with the pair dropped both variables read as real and it is
    code, out, _ = run(["check", "--cc", "-"], stdin=doc)
    assert code == 1
    assert "witness: beta1 pairing (w) ^ (w - 1) = -1" in out
    unpaired = doc.replace("variables: z ~ w", "variables: z, w")
    assert run(["check", "--cc", "-"], stdin=unpaired)[0] == 0
    code, out, _ = run(["specialize", "DOC:" + PAIRED_DOC, "--step", "x=2", "--json"])
    assert code == 0
    assert json.loads(out)["pairs"] == [["z", "w"]]


def test_specialize_drops_a_pair_that_loses_a_variable(run):
    code, out, _ = run(["specialize", "DOC:" + PAIRED_DOC, "--step", "z=3"])
    assert code == 0
    assert "variables: x, w\n" in out
    code, out, _ = run(["specialize", "DOC:" + PAIRED_DOC, "--step", "z=3", "--json"])
    assert code == 0
    assert json.loads(out)["pairs"] == []


def test_specialize_bad_steps(run):
    code, _, err = run(["specialize", "DOC:" + SINGLE_DOC, "--step", "u=0"])
    assert code == 2
    assert "not declared" in err

    code, _, err = run(["specialize", "DOC:" + SINGLE_DOC, "--step", "t"])
    assert code == 2
    assert "var=target" in err

    code, _, err = run(["specialize", "DOC:" + SINGLE_DOC, "--step", "t=2", "--step", "t=3"])
    assert (code, err) == (2, "error: variable t already eliminated\n")


# -- wedge --------------------------------------------------------------------------


def test_wedge_single_term(run):
    code, out, _ = run(["wedge", "DOC:" + SINGLE_DOC, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["beta1"] == {"(t) ^ (t - 1)": "1"}
    assert report["beta1_zero"] is False
    assert "t" in report["basis"] and "t - 1" in report["basis"]


def test_wedge_five_term_vanishes(run):
    code, out, _ = run(["wedge", "DOC:" + FIVE_DOC])
    assert code == 0
    assert "beta1: 0" in out
    assert "beta2: 0" in out
    assert "beta3: none" in out


# Reports of `wedge` as the six-accumulator normal form printed them.  [3*t]
# pairs basis with basis, prime and unit (its 3 ^ unit part cancels mod 2);
# [1/3] and [-2] give prime ^ prime and prime ^ unit; over Q(i), [i] has an
# i ^ i part that vanishes; Q coefficients drop every unit pair.
WEDGE_GOLDEN = [
    (
        "variables: t\nterm: 1 [3*t]\n",
        "basis: t, t - 1/3\n"
        "beta1 (t) ^ (t - 1/3): 1\n"
        "beta2 (t): 3: 1, -1: 1\n"
        "beta2 (t - 1/3): 3: -1\n"
        "beta3: none\n",
        {
            "basis": ["t", "t - 1/3"],
            "beta1": {"(t) ^ (t - 1/3)": "1"},
            "beta1_zero": False,
            "beta2": {"t": {"-1": "1", "3": "1"}, "t - 1/3": {"3": "-1"}},
            "beta2_zero": False,
            "beta3": {"pairs": {}, "unit_unit": "0", "units": {}},
        },
    ),
    (
        "variables: t\nterm: 1 [1/3]\nterm: 2 [-2]\n",
        "basis: (empty)\nbeta1: 0\nbeta2: 0\nbeta3: 2 ^ 3: 3; 3 ^ unit: 1\n",
        {
            "basis": [],
            "beta1": {},
            "beta1_zero": True,
            "beta2": {},
            "beta2_zero": True,
            "beta3": {"pairs": {"2 ^ 3": "3"}, "unit_unit": "0", "units": {"3": "1"}},
        },
    ),
    (
        "field: Qi\nvariables: t\nterm: 1 [i]\nterm: 1 [i*t]\n",
        "basis: t, t + i\n"
        "beta1 (t) ^ (t + i): 1\n"
        "beta2 (t): i: 3\n"
        "beta2 (t + i): i: 3\n"
        "beta3: 1 + i ^ unit: 3\n",
        {
            "basis": ["t", "t + i"],
            "beta1": {"(t) ^ (t + i)": "1"},
            "beta1_zero": False,
            "beta2": {"t": {"i": "3"}, "t + i": {"i": "3"}},
            "beta2_zero": False,
            "beta3": {"pairs": {}, "unit_unit": "0", "units": {"1 + i": "3"}},
        },
    ),
    (
        "coefficients: Q\nvariables: t\nterm: 1/2 [3*t]\nterm: 1/3 [1/3]\n",
        "basis: t, t - 1/3\n"
        "beta1 (t) ^ (t - 1/3): 1/2\n"
        "beta2 (t): 3: 1/2\n"
        "beta2 (t - 1/3): 3: -1/2\n"
        "beta3: 2 ^ 3: 1/3\n",
        {
            "basis": ["t", "t - 1/3"],
            "beta1": {"(t) ^ (t - 1/3)": "1/2"},
            "beta1_zero": False,
            "beta2": {"t": {"3": "1/2"}, "t - 1/3": {"3": "-1/2"}},
            "beta2_zero": False,
            "beta3": {"pairs": {"2 ^ 3": "1/3"}, "unit_unit": "0", "units": {}},
        },
    ),
]


@pytest.mark.parametrize("body, text, report", WEDGE_GOLDEN)
def test_wedge_golden(run, body, text, report):
    doc = "DOC:dilog-identity v1\n" + body
    assert run(["wedge", doc]) == (0, text, "")
    code, out, err = run(["wedge", doc, "--json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_documents_without_modular_images(run, monkeypatch):
    # the exact gcd alone prints the same bytes as with the images in front
    docs = [FIVE_DOC, INVERSION_DOC] + ["dilog-identity v1\n" + b for b, _, _ in WEDGE_GOLDEN]
    argvs = [
        [command, "DOC:" + doc] + flags
        for doc in docs
        for command in ("check", "wedge")
        for flags in ([], ["--json"])
    ]
    with_images = [run(list(argv)) for argv in argvs]
    scanned = []

    def unknown(p, q):
        scanned.append((p, q))
        return False

    monkeypatch.setattr(poly, "_images_coprime", lambda p, q: False)
    monkeypatch.setattr(coprime, "_images_coprime", unknown)
    monkeypatch.setattr(poly, "_images_squarefree", lambda p: False)
    assert [run(list(argv)) for argv in argvs] == with_images
    assert scanned
    for body, text, report in WEDGE_GOLDEN:
        test_wedge_golden(run, body, text, report)


# -- relations ----------------------------------------------------------------------


def test_relations_five_round_trips(run):
    code, out, _ = run(
        ["relations", "five", "--variables", "x,y", "--x", "x", "--y", "y"]
    )
    assert code == 0
    spec = load_document(out)
    x = parse_expression("x", ("x", "y"))
    y = parse_expression("y", ("x", "y"))
    assert spec.formal_sum() == five_term(x, y)


def test_relations_pipe_into_check(run):
    code, out, _ = run(
        ["relations", "five", "--variables", "x,y", "--x", "x*y", "--y", "y-2"]
    )
    assert code == 0
    code, out, _ = run(["check", "-"], stdin=out)
    assert code == 0
    assert "verdict: Constant" in out


def test_relations_inversion_and_c(run):
    code, out, _ = run(["relations", "inversion", "--variables", "t", "--x", "t"])
    assert code == 0
    spec = load_document(out)
    assert len(spec.terms) == 2

    code, out, _ = run(["relations", "c", "--c", "2"])
    assert code == 0
    spec = load_document(out)
    assert spec.variables == ()
    assert {t.expression for t in spec.terms} == {"2", "-1"}


def test_a_document_without_variables_ends_no_line_in_whitespace(run):
    none = ()
    code, out, _ = run(["relations", "c", "--c", "3"])
    assert code == 0
    assert [line for line in out.splitlines() if line != line.rstrip()] == []
    assert load_document(out).formal_sum() == c_element(parse_expression("3", none))

    code, out, _ = run(["specialize", "DOC:" + INVERSION_DOC, "--step", "t=2"])
    assert code == 0
    assert [line for line in out.splitlines() if line != line.rstrip()] == []
    _, _, doc = out.partition("\n\n")
    want = inversion(parse_expression("2", none))
    assert load_document(doc).formal_sum() == want


@pytest.mark.parametrize(
    "variables, message",
    [
        ("x,,y", "empty variable entry"),
        ("x, 2y", "bad variable name '2y'"),
        ("x, x", "duplicate variable name"),
        ("z ~ z", "bad conjugate pair 'z ~ z'"),
    ],
)
def test_relations_reads_variables_by_the_document_grammar(run, variables, message):
    code, out, err = run(["relations", "c", "--variables", variables, "--c", "2"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_relations_writes_a_declared_pair(run):
    argv = ["relations", "five", "--variables", "z ~ w", "--field", "Qi", "--x", "z", "--y", "w"]
    code, out, _ = run(argv)
    assert code == 0
    spec = load_document(out)
    assert (spec.variables, spec.pairs) == (("z", "w"), (("z", "w"),))
    assert run(["check", "--cc", "-"], stdin=out)[0] == 0


def test_relations_missing_argument(run):
    code, _, err = run(["relations", "five", "--variables", "x,y", "--x", "x"])
    assert code == 2
    assert "--y" in err


# -- probe --------------------------------------------------------------------------


def test_probe_command(run):
    code, out, _ = run(["probe", "DOC:" + FIVE_DOC, "--samples", "50", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["points_used"] == 50
    assert report["max_deviation"] <= 1e-9


def test_probe_real_domain(run):
    code, out, _ = run(
        ["probe", "DOC:" + INVERSION_DOC, "--domain", "real", "--samples", "40", "--json"]
    )
    assert code == 0
    assert json.loads(out)["max_deviation"] <= 1e-9


def test_probe_rejects_unknown_domain(run):
    code, _, _ = run(["probe", "DOC:" + FIVE_DOC, "--domain", "padic"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "DOC:" + FIVE_DOC, "--samples", "0"],
        ["probe", "DOC:" + FIVE_DOC, "--samples", "-1"],
        ["check", "DOC:" + FIVE_DOC, "--probe", "-3"],
    ],
)
def test_probe_rejects_fewer_than_one_sample(run, argv):
    count = argv[-1]
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err == f"error: the probe needs at least one sample, got {count}\n"


def test_check_rejects_a_negative_probe_before_reading_the_document(run, tmp_path):
    missing = str(tmp_path / "missing.txt")
    message = "error: the probe needs at least one sample, got -1\n"
    assert run(["check", missing, "--probe", "-1"]) == (2, "", message)
    assert run(["check", missing, "--real", "--probe", "-1"]) == (2, "", message)
    # probe refuses a count below one before it reads the document too
    refused = "error: the probe needs at least one sample, got 0\n"
    assert run(["probe", missing, "--samples", "0"]) == (2, "", refused)


# -- blochfq ------------------------------------------------------------------------


def test_blochfq_p5_with_oracle(run):
    code, out, _ = run(["blochfq", "5", "--json", "--oracle"])
    assert code == 0
    report = json.loads(out)
    assert report["generators"] == 3
    assert report["five_term_rows"] == 6
    assert report["inversion_rows"] == 3
    assert report["wedge_square"] == "0"
    assert report["pre_bloch"] == "Z/3"
    assert report["pre_bloch_five_only"] == "Z/6"
    assert report["modified_bloch"] == "Z/3"
    assert report["c_class_independent"] is True
    assert report["three_c_in_span"] is True
    assert report["oracle_agrees"] is True
    assert report["oracle_pre_bloch"] == "Z/3"


def test_blochfq_p7(run):
    code, out, _ = run(["blochfq", "7", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["wedge_square"] == "Z/2"
    assert report["pre_bloch"] == "Z/4"
    assert report["pre_bloch_five_only"] == "Z/8"
    assert report["modified_bloch"] == "Z/2"


def test_blochfq_rejections(run, monkeypatch):
    assert run(["blochfq", "4"])[0] == 2
    assert run(["blochfq", "3"])[0] == 2
    # --oracle past p = 7 is refused before any group is built
    calls = []
    build = blochfq.relations_matrix

    def counted(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(blochfq, "relations_matrix", counted)
    assert run(["blochfq", "11", "--oracle"])[0] == 2
    assert run(["blochfq", "97", "--oracle"])[0] == 2
    assert calls == []


@pytest.mark.parametrize("p", ["101", "1000000000039"])
def test_blochfq_refuses_a_prime_past_the_cap(run, monkeypatch, p):
    # 1000000000039 is a prime that trial division proves; its presentation
    # would not fit in memory
    calls = []
    monkeypatch.setattr(blochfq, "relations_matrix", calls.append)
    assert run(["blochfq", p]) == (
        2,
        "",
        f"error: p = {p} is past the cap 97; for a larger p call bloch_groups(p) in Python\n",
    )
    assert calls == []


def test_blochfq_has_no_allow_large_flag(run):
    code, out, err = run(["blochfq", "101", "--allow-large"])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --allow-large\n")


# `blochfq P` text and --json reports, captured before the Bloch groups were
# read from one presentation; --oracle runs the minor-gcd Smith form
BLOCHFQ_GOLDEN = [
    (
        5,
        ["--oracle"],
        "p: 5\n"
        "generators: 3\n"
        "rows: 6 five-term + 3 inversion\n"
        "wedge square of F_p*: 0\n"
        "pre-Bloch group: Z/3\n"
        "pre-Bloch group (five-term rows only): Z/6\n"
        "modified Bloch group: Z/3\n"
        "c-element class independent of c: yes\n"
        "3*C in the relation span: yes\n"
        "minor-gcd oracle: Z/3 (agree)\n",
        {
            "c_class_independent": True,
            "five_term_rows": 6,
            "generators": 3,
            "inversion_rows": 3,
            "modified_bloch": "Z/3",
            "oracle_agrees": True,
            "oracle_pre_bloch": "Z/3",
            "p": 5,
            "pre_bloch": "Z/3",
            "pre_bloch_five_only": "Z/6",
            "three_c_in_span": True,
            "wedge_square": "0",
        },
    ),
    (
        7,
        ["--oracle"],
        "p: 7\n"
        "generators: 5\n"
        "rows: 20 five-term + 5 inversion\n"
        "wedge square of F_p*: Z/2\n"
        "pre-Bloch group: Z/4\n"
        "pre-Bloch group (five-term rows only): Z/8\n"
        "modified Bloch group: Z/2\n"
        "c-element class independent of c: yes\n"
        "3*C in the relation span: yes\n"
        "minor-gcd oracle: Z/4 (agree)\n",
        {
            "c_class_independent": True,
            "five_term_rows": 20,
            "generators": 5,
            "inversion_rows": 5,
            "modified_bloch": "Z/2",
            "oracle_agrees": True,
            "oracle_pre_bloch": "Z/4",
            "p": 7,
            "pre_bloch": "Z/4",
            "pre_bloch_five_only": "Z/8",
            "three_c_in_span": True,
            "wedge_square": "Z/2",
        },
    ),
    (
        13,
        [],
        "p: 13\n"
        "generators: 11\n"
        "rows: 110 five-term + 11 inversion\n"
        "wedge square of F_p*: 0\n"
        "pre-Bloch group: Z/7\n"
        "pre-Bloch group (five-term rows only): Z/14\n"
        "modified Bloch group: Z/7\n"
        "c-element class independent of c: yes\n"
        "3*C in the relation span: yes\n",
        {
            "c_class_independent": True,
            "five_term_rows": 110,
            "generators": 11,
            "inversion_rows": 11,
            "modified_bloch": "Z/7",
            "p": 13,
            "pre_bloch": "Z/7",
            "pre_bloch_five_only": "Z/14",
            "three_c_in_span": True,
            "wedge_square": "0",
        },
    ),
    (
        31,
        [],
        "p: 31\n"
        "generators: 29\n"
        "rows: 812 five-term + 29 inversion\n"
        "wedge square of F_p*: Z/2\n"
        "pre-Bloch group: Z/16\n"
        "pre-Bloch group (five-term rows only): Z/32\n"
        "modified Bloch group: Z/8\n"
        "c-element class independent of c: yes\n"
        "3*C in the relation span: yes\n",
        {
            "c_class_independent": True,
            "five_term_rows": 812,
            "generators": 29,
            "inversion_rows": 29,
            "modified_bloch": "Z/8",
            "p": 31,
            "pre_bloch": "Z/16",
            "pre_bloch_five_only": "Z/32",
            "three_c_in_span": True,
            "wedge_square": "Z/2",
        },
    ),
]


@pytest.mark.parametrize("p, flags, text, report", BLOCHFQ_GOLDEN)
def test_blochfq_golden(run, p, flags, text, report):
    assert run(["blochfq", str(p), *flags]) == (0, text, "")
    code, out, err = run(["blochfq", str(p), "--json", *flags])
    assert (code, err) == (0, "")
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


# sha256 of [exit code, stdout, stderr] of `blochfq P` and `blochfq P --json`
# for every prime 5 <= P <= 97, the cap, then of both with --oracle at 5 and 7:
# a change that only makes `blochfq` faster leaves this digest as it is
BLOCHFQ_REPORTS_SHA256 = "0d7dc5ba2def6d4ac50a0b2864f6c345cf15d9c122a43a36dfcea2b221ce6fe7"


def test_blochfq_reports_up_to_the_cap_are_pinned(run):
    argvs = [
        ["blochfq", str(p), *flags]
        for p in range(5, 98)
        if primes.is_prime(p)
        for flags in ([], ["--json"])
    ]
    argvs += [["blochfq", str(p), *flags, "--oracle"] for p in (5, 7) for flags in ([], ["--json"])]
    digest = hashlib.sha256()
    for argv in argvs:
        digest.update(json.dumps(run(argv)).encode())
    assert digest.hexdigest() == BLOCHFQ_REPORTS_SHA256


def test_blochfq_builds_the_presentation_once(run, monkeypatch):
    calls = []
    build = blochfq.relations_matrix

    def counted(p):
        calls.append(p)
        return build(p)

    monkeypatch.setattr(blochfq, "relations_matrix", counted)
    assert run(["blochfq", "7", "--oracle"])[0] == 0
    assert calls == [7]


# -- padic-branch-diff ---------------------------------------------------------------


def test_branch_diff_vanishes_for_five_term(run):
    code, out, _ = run(
        ["padic-branch-diff", "DOC:" + FIVE_DOC, "--p", "5", "--point", "x=2,y=7", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["difference"] == "O(5^32)"


def test_branch_diff_nonzero_for_single_term(run):
    code, out, _ = run(
        ["padic-branch-diff", "DOC:" + SINGLE_DOC, "--p", "5", "--point", "t=5"]
    )
    assert code == 0
    assert "value difference" in out
    assert "5^1 *" in out


def test_branch_diff_same_branch_is_zeroish(run):
    code, out, _ = run(
        [
            "padic-branch-diff",
            "DOC:" + SINGLE_DOC,
            "--p",
            "5",
            "--point",
            "t=5",
            "--branch-a",
            "1",
            "--branch-b",
            "1",
            "--json",
        ]
    )
    assert code == 0
    # the branch gap itself carries p-adic precision, so the product is
    # indistinguishable from zero rather than the exact zero sentinel
    assert json.loads(out)["difference"].startswith("O(5^")


def test_branch_diff_point_errors(run):
    code, _, err = run(
        ["padic-branch-diff", "DOC:" + FIVE_DOC, "--p", "5", "--point", "x=2"]
    )
    assert code == 2
    assert "does not assign" in err

    code, _, err = run(
        ["padic-branch-diff", "DOC:" + FIVE_DOC, "--p", "5", "--point", "x=2,q=3"]
    )
    assert code == 2
    assert "bad point coordinate" in err

    code, out, err = run(
        ["padic-branch-diff", "DOC:" + FIVE_DOC, "--p", "5", "--point", "x=2,x=3,y=7"]
    )
    assert (code, out, err) == (2, "", "error: the point assigns x twice\n")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--p", "4", "--p 4 is not a prime"),
        ("--p", "1", "--p 1 is not a prime"),
        ("--p", "-5", "--p -5 is not a prime"),
        ("--p", "1000036000099", "--p 1000036000099 is not a prime"),
        # 2^89 - 1 is prime, but at or above psi_13 Miller-Rabin cannot prove it
        (
            "--p",
            "618970019642690137449562111",
            "--p 618970019642690137449562111 is too large to prove prime",
        ),
        ("--prec", "0", "--prec must be at least 1, got 0"),
        ("--prec", "-2", "--prec must be at least 1, got -2"),
        # 5^1764 is the largest power of 5 within 2^4096
        ("--prec", "1765", "modulus 5^1765 is above the bound 2^4096"),
        ("--prec", "100000", "modulus 5^100000 is above the bound 2^4096"),
        ("--prec", "1000000000000", "modulus 5^1000000000000 is above the bound 2^4096"),
    ],
)
def test_branch_diff_rejects_bad_prime_and_precision(run, tmp_path, flag, value, message):
    # a repeated option takes its last value
    argv = ["padic-branch-diff", "DOC:" + SINGLE_DOC, "--p", "5", "--point", "t=5", flag, value]
    code, out, err = run(argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    # the check comes before the document is read
    argv[1] = str(tmp_path / "missing.txt")
    assert run(argv)[2] == f"error: {message}\n"


@pytest.mark.parametrize("coordinate", ["t=1/0", "t=abc", "t="])
def test_branch_diff_names_a_coordinate_that_is_not_rational(run, coordinate):
    argv = ["padic-branch-diff", "DOC:" + SINGLE_DOC, "--p", "5", "--point", coordinate]
    code, out, err = run(argv)
    assert (code, out, err) == (2, "", f"error: bad point coordinate {coordinate!r}\n")


@pytest.mark.parametrize(
    "flag, value", [("--branch-a", "1/0"), ("--branch-b", "xyz"), ("--branch-a", "")]
)
def test_branch_diff_names_a_branch_that_is_not_rational(run, tmp_path, flag, value):
    message = f"error: {flag} {value!r} is not a rational number\n"
    argv = ["padic-branch-diff", "DOC:" + SINGLE_DOC, "--p", "5", "--point", "t=5", flag, value]
    assert run(argv) == (2, "", message)
    # the branch is refused before the document is read
    argv[1] = str(tmp_path / "missing.txt")
    assert run(argv) == (2, "", message)


def test_branch_diff_takes_a_prime_that_miller_rabin_proves(run):
    argv = ["padic-branch-diff", "DOC:" + SINGLE_DOC, "--p", "2305843009213693951", "--point", "t=5"]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert out.startswith("p: 2305843009213693951\n")


def test_branch_diff_accepts_the_default_precision_at_the_largest_provable_prime(run):
    # trial division to 10^6 proves no prime above 1000001999917, and its
    # 32nd power has 1276 bits, within 2^4096
    code, out, err = run(
        ["padic-branch-diff", "DOC:" + SINGLE_DOC, "--p", "1000001999917", "--point", "t=3"]
    )
    assert (code, err) == (0, "")
    assert out.startswith("p: 1000001999917\n")


def _branch_report(a, b, difference, p, point, precision):
    return {
        "branch_a_log_p": a,
        "branch_b_log_p": b,
        "difference": difference,
        "p": p,
        "point": point,
        "precision": precision,
    }


# --json reports of padic-branch-diff as they were when it read the boundary
BRANCH_DIFF_GOLDEN = [
    (
        FIVE_DOC,
        ["--p", "5", "--point", "x=2,y=7"],
        _branch_report("0", "1", "O(5^32)", 5, {"x": "2", "y": "7"}, 32),
    ),
    (
        FIVE_DOC,
        ["--p", "5", "--point", "x=5,y=3"],
        _branch_report("0", "1", "O(5^32)", 5, {"x": "5", "y": "3"}, 32),
    ),
    (
        SINGLE_DOC,
        ["--p", "5", "--point", "t=5"],
        _branch_report("0", "1", "5^1 * 674482156008823086933 + O(5^32)", 5, {"t": "5"}, 32),
    ),
    (
        SINGLE_DOC,
        ["--p", "5", "--point", "t=5", "--branch-a", "1", "--branch-b", "1"],
        _branch_report("1", "1", "O(5^33)", 5, {"t": "5"}, 32),
    ),
    (
        SINGLE_DOC,
        ["--p", "5", "--point", "t=1/25", "--prec", "40"],
        _branch_report(
            "0", "1", "5^2 * 355224133670133047666747174 + O(5^40)", 5, {"t": "1/25"}, 40
        ),
    ),
    (
        FIVE_DOC,
        ["--p", "3", "--point", "x=10,y=15/7"],
        _branch_report("0", "1", "O(3^32)", 3, {"x": "10", "y": "15/7"}, 32),
    ),
]


@pytest.mark.parametrize(
    "doc, flags, report",
    BRANCH_DIFF_GOLDEN,
    ids=["five-2-7", "five-5-3", "t-5", "t-5-same-branch", "t-1/25-prec-40", "five-p3"],
)
def test_branch_diff_golden(run, doc, flags, report):
    code, out, err = run(["padic-branch-diff", "DOC:" + doc, *flags, "--json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_branch_diff_builds_no_boundary(run, monkeypatch):
    # the difference is read from the sum's value at the point
    import dilogeq.cli as cli

    def refuse(alpha):
        raise AssertionError("boundary called")

    monkeypatch.setattr(cli, "boundary", refuse)
    code, out, err = run(["padic-branch-diff", "DOC:" + FIVE_DOC, "--p", "5", "--point", "x=2,y=7"])
    assert (code, err) == (0, "")
    assert "value difference (branch a minus branch b): O(5^32)" in out


@pytest.mark.parametrize(
    "point, message",
    [
        ("t=0", "argument [t] is not admissible at the point: the value is 0"),
        ("t=1", "argument [t] is not admissible at the point: the value is 1"),
    ],
)
def test_branch_diff_refuses_a_point_outside_the_admissible_set(run, point, message):
    code, out, err = run(["padic-branch-diff", "DOC:" + SINGLE_DOC, "--p", "5", "--point", point])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# a constant document: [2] + [-1] + 2[1/2] is a c-element plus an inversion
CONSTANT_DOC = "dilog-identity v1\nvariables:\nterm: 1 [2]\nterm: 1 [1 - 2]\nterm: 2 [1/2]\n"


@pytest.mark.parametrize(
    "doc, p, value",
    [
        (CONSTANT_DOC, 5, [(fe(-1), 1), (fe(Fraction(1, 2)), 2), (fe(2), 1)]),
        (CONSTANT_DOC, 2, [(fe(-1), 1), (fe(Fraction(1, 2)), 2), (fe(2), 1)]),
        (
            "dilog-identity v1\nvariables:\nterm: 1 [5]\nterm: -2 [1/25]\n",
            5,
            [(fe(Fraction(1, 25)), -2), (fe(5), 1)],
        ),
    ],
    ids=["constant-p5", "constant-p2", "disc-p5"],
)
def test_branch_diff_reads_a_blank_point_as_the_empty_point(run, doc, p, value):
    from dilogeq.padic import PadicNumber, branch_diff

    argv = ["padic-branch-diff", "DOC:" + doc, "--p", str(p), "--point", "", "--json"]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    log_a, log_b = (PadicNumber.from_rational(q, p, 32) for q in (0, 1))
    want = branch_diff(value, log_a, log_b, prec=32)
    assert json.loads(out) == _branch_report("0", "1", str(want), p, {}, 32)


def test_the_empty_point_prints_as_empty(run):
    code, out, err = run(["check", "DOC:" + CONSTANT_DOC])
    assert (code, err) == (0, "")
    assert "\npoint: (empty)\n" in out
    code, out, err = run(["check", "DOC:" + CONSTANT_DOC, "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["point"] == {}
    code, out, err = run(["padic-branch-diff", "DOC:" + CONSTANT_DOC, "--p", "5", "--point", ""])
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["p: 5", "point: (empty)"]


def test_equal_branches_differ_by_the_exact_zero(run):
    # t = 3 has valuation 0 at 2 and 1 - t = -2 valuation 1, so the
    # bracket is nonzero; the two branches' difference is the exact zero
    argv = ["padic-branch-diff", "DOC:" + SINGLE_DOC, "--p", "2", "--point", "t=3"]
    code, out, err = run([*argv, "--branch-a", "0", "--branch-b", "0"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "value difference (branch a minus branch b): 0"


def test_branch_diff_refuses_a_blank_point_on_a_document_with_variables(run):
    code, out, err = run(["padic-branch-diff", "DOC:" + SINGLE_DOC, "--p", "5", "--point", " "])
    assert (code, out, err) == (2, "", "error: point does not assign ['t']\n")


def test_branch_diff_names_the_first_offending_term_line(run):
    # at x = 1, y = 0 every term is inadmissible; [1/x] comes first in
    # graded-lex order, [x] on the first term line
    doc = (
        "dilog-identity v1\nvariables: x, y\n"
        "term: 1 [x]\nterm: 1 [1/x]\nterm: 1 [y/(x-2)]\nterm: 1 [(x-2)/y]\n"
    )
    code, out, err = run(["padic-branch-diff", "DOC:" + doc, "--p", "5", "--point", "x=1,y=0"])
    assert (code, out) == (2, "")
    assert err == "error: argument [x] is not admissible at the point: the value is 1\n"


# -- top level ----------------------------------------------------------------------


def test_unknown_subcommand_exits_2(run):
    assert run(["frobnicate"])[0] == 2
    assert run(["check"])[0] == 2


def test_every_option_is_read_by_its_handler():
    # an option a handler never reads as args.<dest> is dead; --json is read
    # by _emit, which a handler reaches as _emit(args, ...)
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, p in sub.choices.items():
        src = inspect.getsource(p.get_default("func"))
        read = set(re.findall(r"\bargs\.(\w+)", src))
        if "_emit(args" in src:
            read.add("json")
        dests = {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
        assert dests <= read, (name, sorted(dests - read))


def test_a_shared_parser_leaks_no_state_between_calls(run):
    sequence = [
        ["specialize", "DOC:" + FIVE_DOC],
        ["specialize", "DOC:" + FIVE_DOC, "--step", "x=2", "--step", "y=3"],
        ["specialize", "DOC:" + FIVE_DOC, "--step", "x=2"],
        ["check", "DOC:" + FIVE_DOC, "--probe", "30", "--json"],
        ["check", "DOC:" + FIVE_DOC, "--json"],
        ["check", "DOC:" + CC_PAIR_DOC, "--cc"],
        ["check", "DOC:" + CC_PAIR_DOC, "--real"],
        ["relations", "inversion", "--variables", "t", "--x", "t"],
        ["check", "DOC:" + INVERSION_DOC, "--seed"],
        ["check", "DOC:" + INVERSION_DOC],
        ["check", "--help"],
    ]
    shared = [run(list(argv)) for argv in sequence]
    assert shared[8][0] == 2 and "expected one argument" in shared[8][2]
    assert shared[10][0] == 0 and shared[10][1].startswith("usage: dilogeq check")
    for argv, result in zip(sequence, shared):
        build_parser.cache_clear()
        assert run(list(argv)) == result, argv


def test_reports_are_byte_deterministic(run):
    for argv in (
        ["check", "DOC:" + FIVE_DOC, "--json", "--probe", "30"],
        ["blochfq", "7", "--json"],
        ["specialize", "DOC:" + SINGLE_DOC, "--step", "t=0", "--json"],
        ["wedge", "DOC:" + SINGLE_DOC, "--json"],
    ):
        _, first, _ = run(list(argv))
        _, second, _ = run(list(argv))
        assert first == second


# sha256 of [exit code, stdout, stderr] of `check DOC --json FLAGS` on each
# of the first 60 benchmark documents at seed 1: a change that only makes
# `check` faster leaves every report byte, and so this digest, as it is
BENCH_REPORTS_SHA256 = "a3e53e3247cd2007cbc3a870c861d927fa231e7b27dde6c88fa6e128c1dfe1a6"

# runs in a child process with PYTHONHASHSEED fixed, as the benchmark runs
# the package; argv[1] is a JSON list of argument lists
REPORTS_CHILD = """
import contextlib, hashlib, io, json, sys
from dilogeq.cli import main
digest = hashlib.sha256()
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
print(digest.hexdigest())
"""


def test_check_reports_of_the_benchmark_documents_are_pinned(tmp_path):
    argvs = []
    for case in bench_inputs().docs_cases(1, 60):
        (tmp_path / case.name).write_text(case.text)
        argvs.append(["check", case.name, "--json", *case.flags])
    done = subprocess.run(
        [sys.executable, "-c", REPORTS_CHILD, json.dumps(argvs)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().strip() == BENCH_REPORTS_SHA256
