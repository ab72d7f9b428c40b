"""Command line interface, run in-process through main(argv)."""

import argparse
import inspect
import io
import json
import math
import re
import sys

import pytest

from dilogeq import blochfq, coprime, poly, primes
from dilogeq.cli import build_parser, main
from dilogeq.document import load_document
from dilogeq.exprparse import parse_expression
from dilogeq.formal import five_term
from dilogeq.numerics import ModPiSqHalf

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


@pytest.mark.parametrize(
    "value, message",
    [
        ("4", "--padic 4 is not a prime"),
        ("1", "--padic 1 is not a prime"),
        ("-3", "--padic -3 is not a prime"),
        (
            "2305843009213693951",
            "--padic 2305843009213693951 is too large to prove prime by trial division",
        ),
    ],
)
def test_check_rejects_bad_padic_prime(run, tmp_path, value, message):
    argv = ["check", "DOC:" + FIVE_DOC, "--padic", value]
    assert run(argv) == (2, "", f"error: {message}\n")
    # the check comes before the document is read
    argv[1] = str(tmp_path / "missing.txt")
    assert run(argv)[2] == f"error: {message}\n"


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


def test_specialize_bad_steps(run):
    code, _, err = run(["specialize", "DOC:" + SINGLE_DOC, "--step", "u=0"])
    assert code == 2
    assert "not declared" in err

    code, _, err = run(["specialize", "DOC:" + SINGLE_DOC, "--step", "t"])
    assert code == 2
    assert "var=target" in err


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
    monkeypatch.setattr(poly, "_images_coprime", lambda p, q: False)
    monkeypatch.setattr(coprime, "_images_coprime", lambda p, q: False)
    monkeypatch.setattr(poly, "_images_squarefree", lambda p: False)
    assert [run(list(argv)) for argv in argvs] == with_images
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
    assert run(["blochfq", "101"])[0] == 2
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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--p", "4", "--p 4 is not a prime"),
        ("--p", "1", "--p 1 is not a prime"),
        ("--p", "-5", "--p -5 is not a prime"),
        # 2^61 - 1 is prime, but past what trial division to 10^6 proves
        (
            "--p",
            "2305843009213693951",
            "--p 2305843009213693951 is too large to prove prime by trial division",
        ),
        ("--prec", "0", "--prec must be at least 1, got 0"),
        ("--prec", "-2", "--prec must be at least 1, got -2"),
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
