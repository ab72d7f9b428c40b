"""Expression grammar and identity-document parsing."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq.document import DocumentError, dump_document, load_document
from dilogeq.exprparse import (
    MAX_COEFFICIENT_BITS,
    MAX_DEGREE,
    ExpressionError,
    parse_expression,
)
from dilogeq.formal import FormalSum, check_term, five_term
from dilogeq.ratfunc import RationalFunction, ZeroDenominator
from dilogeq.scalars import FieldElement

from helpers import bench_inputs, random_formal_sum

XY = ("x", "y")


def rf_const(q, universe=XY):
    return RationalFunction.const(universe, FieldElement(Fraction(q)))


def var(name, universe=XY):
    return RationalFunction.var(universe, name)


# -- expression goldens ---------------------------------------------------------


def test_precedence_and_associativity():
    x = var("x")
    assert parse_expression("1 + 2*3", XY) == rf_const(7)
    assert parse_expression("1/2/2", XY) == rf_const(Fraction(1, 4))
    assert parse_expression("2*x^2", XY) == rf_const(2) * x * x
    assert parse_expression("(2*x)^2", XY) == rf_const(4) * x * x
    # unary minus binds below the exponent
    assert parse_expression("-x^2", XY) == -(x * x)
    assert parse_expression("x - -3", XY) == x + rf_const(3)
    assert parse_expression("2^3", XY) == rf_const(8)


def test_negative_and_parenthesized_exponents():
    x = var("x")
    assert parse_expression("x^-1", XY) == rf_const(1) / x
    assert parse_expression("x^(-2)", XY) == rf_const(1) / (x * x)
    assert parse_expression("x^0", XY) == rf_const(1)
    assert parse_expression("2^-3", XY) == rf_const(Fraction(1, 8))


def test_normalization_happens_at_parse_time():
    assert parse_expression("x/x", XY) == rf_const(1)
    assert parse_expression("(1 - x)/(1 - x)", XY) == rf_const(1)
    f = parse_expression("(x^2 - 1)/(x - 1)", XY)
    assert f == var("x") + rf_const(1)
    assert f.universe == XY


def test_whitespace_and_newlines():
    assert parse_expression("x +\n  y", XY) == var("x") + var("y")
    assert parse_expression("\t x \t", XY) == var("x")


def test_imaginary_unit_in_gaussian_mode():
    z = ("z",)
    i = RationalFunction.const(z, FieldElement.i())
    assert parse_expression("i^2", z, "Qi") == rf_const(-1, z)
    assert parse_expression("(1 + i)*(1 - i)", z, "Qi") == rf_const(2, z)
    assert parse_expression("i*z", z, "Qi") == i * var("z", z)


def test_i_is_an_ordinary_name_in_rational_mode():
    u = ("i",)
    assert parse_expression("i^2", u, "Q") == var("i", u) * var("i", u)


def test_gaussian_mode_rejects_variable_named_i():
    with pytest.raises(ValueError, match="collides"):
        parse_expression("i", ("i",), "Qi")


def test_unknown_field_mode():
    with pytest.raises(ValueError, match="field mode"):
        parse_expression("x", XY, "C")


# -- errors carry positions -------------------------------------------------------


def test_syntax_error_positions():
    with pytest.raises(ExpressionError) as ei:
        parse_expression("x +\n* y", XY)
    assert (ei.value.line, ei.value.col) == (2, 1)

    with pytest.raises(ExpressionError) as ei:
        parse_expression("x $ y", XY)
    assert "unexpected character" in str(ei.value)
    assert (ei.value.line, ei.value.col) == (1, 3)

    with pytest.raises(ExpressionError) as ei:
        parse_expression("(x", XY)
    assert "end of input" in str(ei.value)
    assert (ei.value.line, ei.value.col) == (1, 3)

    with pytest.raises(ExpressionError) as ei:
        parse_expression("", XY)
    assert (ei.value.line, ei.value.col) == (1, 1)

    with pytest.raises(ExpressionError) as ei:
        parse_expression("x y", XY)
    assert "after expression" in str(ei.value)
    assert (ei.value.line, ei.value.col) == (1, 3)

    with pytest.raises(ExpressionError) as ei:
        parse_expression("2 ^ x", XY)
    assert (ei.value.line, ei.value.col) == (1, 5)


def test_only_decimal_digits_make_numbers():
    # '²' is a digit to str.isdigit but not to int(): it is an unexpected
    # character with its place, while an Arabic-Indic three reads as 3
    with pytest.raises(ExpressionError) as ei:
        parse_expression("x^²", XY)
    assert "unexpected character '²'" in str(ei.value)
    assert (ei.value.line, ei.value.col) == (1, 3)
    assert parse_expression("x^\u0663", XY) == var("x") ** 3


def test_syntax_error_is_a_syntax_error():
    with pytest.raises(ExpressionError) as ei:
        parse_expression("x +", XY)
    assert ei.value.reason == "expected a value, found end of input"
    assert (ei.value.line, ei.value.col) == (1, 4)


def test_unknown_variable_details():
    with pytest.raises(ExpressionError) as ei:
        parse_expression("q + x", ("x",))
    assert ei.value.reason == "unknown variable 'q'"
    assert (ei.value.line, ei.value.col) == (1, 1)

    # using i without gaussian mode points at the fix
    with pytest.raises(ExpressionError) as ei:
        parse_expression("1 + i", ("x",), "Q")
    assert "field mode Qi" in str(ei.value)


def test_each_expression_error_keeps_its_message_and_place():
    # one class serves a syntax error, an unknown name, a zero divisor and
    # both size limits; `reason` is the message without the position
    for src, reason, line, col in [
        ("x +\n* y", "expected a value, found '*'", 2, 1),
        ("q + x", "unknown variable 'q'", 1, 1),
        # using i without gaussian mode points at the fix
        ("1 + i", "unknown variable 'i'; the literal i needs field mode Qi", 1, 5),
        ("x/(x - x)", "division by an identically zero expression", 1, 2),
        (f"x^{MAX_DEGREE + 1}", f"total degree {MAX_DEGREE + 1} is above the limit {MAX_DEGREE}", 1, 2),
        (
            f"2^{MAX_COEFFICIENT_BITS // 2 + 1}",
            f"coefficient size {MAX_COEFFICIENT_BITS + 2} bits is above the limit {MAX_COEFFICIENT_BITS}",
            1,
            2,
        ),
    ]:
        with pytest.raises(ExpressionError) as ei:
            parse_expression(src, XY)
        assert (ei.value.reason, ei.value.line, ei.value.col) == (reason, line, col)
        assert str(ei.value) == f"{reason} (line {line}, column {col})"
        assert isinstance(ei.value, ValueError)


def test_division_by_zero_constant():
    with pytest.raises(ExpressionError) as ei:
        parse_expression("1/0", XY)
    assert (ei.value.line, ei.value.col) == (1, 2)

    with pytest.raises(ExpressionError) as ei:
        parse_expression("x/(x - x)", XY)
    assert (ei.value.line, ei.value.col) == (1, 2)

    with pytest.raises(ExpressionError) as ei:
        parse_expression("(x - x)^(-2)", XY)
    assert (ei.value.line, ei.value.col) == (1, 8)


def test_degree_limit():
    # the bound is checked before each operation builds its result
    top = parse_expression(f"x^{MAX_DEGREE // 2}*y^{MAX_DEGREE - MAX_DEGREE // 2}", XY)
    assert top.num.total_degree() == MAX_DEGREE
    assert parse_expression(f"x^{MAX_DEGREE} + x^{MAX_DEGREE}", XY).num.total_degree() == MAX_DEGREE
    assert parse_expression(f"1/x^{MAX_DEGREE}", XY).den.total_degree() == MAX_DEGREE
    for src, col in (
        (f"x^{MAX_DEGREE + 1}", 2),
        (f"x^-{MAX_DEGREE + 1}", 2),
        (f"(x^2 + 1)^{MAX_DEGREE // 2 + 1}", 10),
        (f"x^{MAX_DEGREE} * y", 10),
        (f"x^{MAX_DEGREE} / (1/y)", 10),
        (f"1/(x^{MAX_DEGREE} + 1) + 1/(x^{MAX_DEGREE} + 2)", 18),
        ("x^99999999999999999999", 2),
    ):
        with pytest.raises(ExpressionError) as ei:
            parse_expression(src, XY)
        assert (ei.value.line, ei.value.col) == (1, col)
        assert f"above the limit {MAX_DEGREE}" in str(ei.value)
    with pytest.raises(ValueError):
        parse_expression(f"x^{MAX_DEGREE + 1}", XY)


def test_coefficient_limit():
    # |exponent| times the largest bit length of the base's coefficient parts
    assert parse_expression("2^20000", XY) == rf_const(2**20000)
    assert parse_expression("2^100000", XY) == rf_const(2**100000)
    assert parse_expression(f"2^{MAX_COEFFICIENT_BITS // 2}", XY) == rf_const(
        2 ** (MAX_COEFFICIENT_BITS // 2)
    )
    for src, bits, col in (
        ("x*2^999999999999", 2 * 999999999999, 4),
        (f"2^{MAX_COEFFICIENT_BITS // 2 + 1}", MAX_COEFFICIENT_BITS + 2, 2),
        (f"(1/3)^-{MAX_COEFFICIENT_BITS // 2 + 1}", MAX_COEFFICIENT_BITS + 2, 6),
        (f"y + (2 + 5*i)^{MAX_COEFFICIENT_BITS // 3 + 1}", MAX_COEFFICIENT_BITS + 2, 14),
    ):
        with pytest.raises(ExpressionError) as ei:
            parse_expression(src, XY, "Qi")
        assert (ei.value.line, ei.value.col) == (1, col)
        assert str(ei.value) == (
            f"coefficient size {bits} bits is above the limit {MAX_COEFFICIENT_BITS}"
            f" (line 1, column {col})"
        )


def test_coefficient_limit_of_sums_products_and_quotients():
    # from the largest bit length b among each operand's coefficient parts:
    # b(lhs) + b(rhs) for * and /, and one more for + and -
    b3, b5 = (3**300000).bit_length(), (5**300000).bit_length()
    assert 2 * b3 < MAX_COEFFICIENT_BITS < b3 + b5
    assert parse_expression("x*3^300000*3^300000", XY) == var("x") * rf_const(3**600000)
    assert parse_expression("3^-300000 + y", XY) == rf_const(Fraction(1, 3**300000)) + var("y")
    b9 = (9**300000).bit_length()
    for src, bits, col in (
        ("x*3^300000*3^300000*3^300000", b9 + b3, 20),
        ("3^-300000 + 5^-300000", b3 + b5 + 1, 11),
        ("x - 3^300000 - 5^300000", b3 + b5 + 1, 14),
        ("3^300000/5^300000", b3 + b5, 9),
        ("(x + 3^300000)/(y - 5^300000)", b3 + b5, 15),
    ):
        with pytest.raises(ExpressionError) as ei:
            parse_expression(src, XY)
        assert (ei.value.line, ei.value.col) == (1, col)
        assert str(ei.value) == (
            f"coefficient size {bits} bits is above the limit {MAX_COEFFICIENT_BITS}"
            f" (line 1, column {col})"
        )


def test_dividing_by_a_large_constant_is_fast():
    # the inverse of a rational constant needs no gcd of its square with it
    for slow, fast in (("x/3^300000", "x*3^-300000"), ("1/5^300000", "5^-300000")):
        start = time.perf_counter()
        got = parse_expression(slow, XY)
        assert time.perf_counter() - start < 1.0
        assert got == parse_expression(fast, XY)


def test_integer_literals():
    for text in ("0", "007", "1234567890123456789012345678901234567890"):
        assert parse_expression(text, XY) == RationalFunction.const(
            XY, FieldElement(Fraction(text))
        )
    assert parse_expression("007", XY) == rf_const(7)
    assert parse_expression("0", XY).is_zero()


# -- random round trips -----------------------------------------------------------


def _random_expr(rnd, universe, gaussian, depth):
    """Build (source, value) pairs with fully parenthesized sources."""
    if depth == 0 or rnd.random() < 0.3:
        kinds = ["int", "var"] + (["i"] if gaussian else [])
        kind = rnd.choice(kinds)
        if kind == "int":
            n = rnd.randint(-9, 9)
            return str(n), rf_const(n, universe)
        if kind == "var":
            name = rnd.choice(universe)
            return name, var(name, universe)
        return "i", RationalFunction.const(universe, FieldElement.i())
    op = rnd.choice("+-*/^")
    ls, lv = _random_expr(rnd, universe, gaussian, depth - 1)
    if op == "^":
        e = rnd.randint(-3, 3)
        try:
            return f"({ls}) ^ ({e})", lv**e
        except ZeroDenominator:
            return f"({ls}) ^ ({abs(e)})", lv ** abs(e)
    rs, rv = _random_expr(rnd, universe, gaussian, depth - 1)
    if op == "+":
        return f"({ls} + {rs})", lv + rv
    if op == "-":
        return f"({ls} - {rs})", lv - rv
    if op == "*":
        return f"({ls} * {rs})", lv * rv
    try:
        return f"({ls} / {rs})", lv / rv
    except ZeroDenominator:
        return f"({ls} + {rs})", lv + rv


def test_random_round_trips_rational():
    rnd = random.Random(11)
    for _ in range(200):
        src, value = _random_expr(rnd, XY, False, 3)
        assert parse_expression(src, XY) == value
        # the printed form is itself grammar input
        assert parse_expression(str(value), XY) == value


def test_random_round_trips_gaussian():
    rnd = random.Random(12)
    for _ in range(100):
        src, value = _random_expr(rnd, ("z", "w"), True, 3)
        assert parse_expression(src, ("z", "w"), "Qi") == value
        assert parse_expression(str(value), ("z", "w"), "Qi") == value


# -- identity documents ------------------------------------------------------------


DOC = """\
dilog-identity v1
# a five-term shaped document with one rational weight
field: Q
coefficients: Q
variables: x, y

term: 1 [x]
term: -1 [y]
term: 1 [y/x]
term: -1/2 [(1-x)/(1-y)]
"""


def test_load_document_golden():
    spec = load_document(DOC)
    assert spec.field_mode == "Q"
    assert spec.coeff_mode == "Q"
    assert spec.variables == ("x", "y")
    assert spec.pairs == ()
    assert len(spec.terms) == 4
    assert spec.terms[3].coefficient == Fraction(-1, 2)
    assert spec.terms[3].line == 10
    alpha = spec.formal_sum()
    assert alpha.terms.get(parse_expression("y/x", XY), 0) == 1
    assert alpha.terms.get(var("x"), 0) == 1
    assert len(alpha) == 4


def test_document_is_parsed_once(monkeypatch):
    import dilogeq.document as document

    parsed = []
    parse = document.parse_expression

    def counted(*args):
        parsed.append(args[0])
        return parse(*args)

    monkeypatch.setattr(document, "parse_expression", counted)
    spec = load_document(DOC)
    assert spec.formal_sum() is spec.formal_sum()
    assert len(parsed) == len(spec.terms)


def test_defaults_and_implicit_coefficient():
    text = "dilog-identity v1\nvariables: t\nterm: [t^2]\n"
    spec = load_document(text)
    assert spec.field_mode == "Q"
    assert spec.coeff_mode == "Z"
    assert spec.terms[0].coefficient == 1


def test_conjugate_pair_declarations():
    text = "dilog-identity v1\nfield: Qi\nvariables: z ~ zbar, w\nterm: 1 [z*w]\n"
    spec = load_document(text)
    assert spec.variables == ("z", "zbar", "w")
    assert spec.pairs == (("z", "zbar"),)


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("not a header\n", "first line must be", 1),
        ("# only a comment\n", "empty document", 1),
        ("dilog-identity v1\nfield: R\nvariables: t\n", "field must be", 2),
        ("dilog-identity v1\ncoefficients: N\nvariables: t\n", "coefficients must be", 2),
        ("dilog-identity v1\nfield Q\nvariables: t\n", "key: value", 2),
        ("dilog-identity v1\nterms: 1 [t]\nvariables: t\n", "unknown key", 2),
        ("dilog-identity v1\nvariables: t\nvariables: u\n", "duplicate variables", 3),
        ("dilog-identity v1\nvariables: x,,y\n", "empty variable entry", 2),
        ("dilog-identity v1\nvariables: z ~ z\n", "bad conjugate pair", 2),
        ("dilog-identity v1\nvariables: 2x\n", "bad variable name", 2),
        ("dilog-identity v1\nvariables: x, x\n", "duplicate variable name", 2),
        ("dilog-identity v1\nvariables: t\nterm: 1 t\n", "coefficient [expression]", 3),
        ("dilog-identity v1\nvariables: t\nterm: 1 [t] junk\n", "trailing text", 3),
        ("dilog-identity v1\nvariables: t\nterm: 1 []\n", "empty expression", 3),
        ("dilog-identity v1\nvariables: t\nterm: one [t]\n", "bad coefficient", 3),
        ("dilog-identity v1\nfield: Q\n", "missing variables", 2),
        ("dilog-identity v1\nvariables: t\nterm: 1/2 [t]\n", "not an integer", 3),
        # the collision is reported at the variables line, wherever the field line is
        ("dilog-identity v1\nfield: Qi\nvariables: i\nterm: 1 [i]\n", "collides", 3),
        ("dilog-identity v1\n# the plane\nfield: Qi\nvariables: z, i\n", "collides", 4),
        ("dilog-identity v1\nvariables: i\nfield: Qi\n", "collides", 2),
        ("dilog-identity v1\nvariables: t\nterm: 1 [1]\n", "admissible", 3),
    ],
)
def test_document_errors(text, fragment, line):
    with pytest.raises(DocumentError) as ei:
        load_document(text)
    assert fragment in str(ei.value)
    assert ei.value.line == line


def test_a_non_integer_coefficient_names_its_line():
    text = "dilog-identity v1\nvariables: t\nterm: 1 [t]\nterm: -3/4 [1 - t]\n"
    with pytest.raises(DocumentError) as ei:
        load_document(text)
    assert str(ei.value) == "coefficient -3/4 is not an integer (coefficients: Z) (line 4)"


def test_a_bad_term_among_many_names_its_own_line():
    text = "dilog-identity v1\nvariables: t\nterm: 1 [t]\nterm: 2 [1 - t]\nterm: -1 [t/t]\nterm: 1 [t^2]\n"
    with pytest.raises(DocumentError) as ei:
        load_document(text)
    assert "admissible" in str(ei.value)
    assert ei.value.line == 5


def test_document_terms_merge_into_one_sum():
    # equal arguments add up and a cancelled one drops out; a zero
    # coefficient leaves its argument unchecked, as in FormalSum
    text = (
        "dilog-identity v1\nvariables: t\nterm: 1 [t]\nterm: 2 [1/t]\n"
        "term: 0 [1]\nterm: 2 [t^2/t]\nterm: -2 [t^(-1)]\n"
    )
    alpha = load_document(text).formal_sum()
    assert alpha == FormalSum.single(var("t", ("t",)), 3)


def test_expression_errors_surface_at_load_time():
    # each names the document line, with the column inside the expression
    for expression, message in [
        ("q", "unknown variable 'q' (line 3, column 1 of the expression)"),
        ("t +", "expected a value, found end of input (line 3, column 4 of the expression)"),
        ("t/(t - t)", "division by an identically zero expression (line 3, column 2 of the expression)"),
        ("t^100001", "total degree 100001 is above the limit 100000 (line 3, column 2 of the expression)"),
        (
            "t*3^300000*3^300000*3^300000*3^300000",
            "coefficient size 1426467 bits is above the limit 1000000 (line 3, column 20 of the expression)",
        ),
    ]:
        with pytest.raises(DocumentError) as ei:
            load_document(f"dilog-identity v1\nvariables: t\nterm: 1 [{expression}]\n")
        assert isinstance(ei.value.__cause__, ExpressionError)
        assert str(ei.value) == message
        assert ei.value.line == 3


def test_empty_variables_line_means_constants_only():
    text = "dilog-identity v1\nvariables:\nterm: 1 [2]\n"
    spec = load_document(text)
    assert spec.variables == ()
    assert len(spec.formal_sum()) == 1


def test_dump_load_round_trip():
    for text in (
        DOC,
        "dilog-identity v1\nvariables:\nterm: 1 [2]\n",
        "dilog-identity v1\nfield: Qi\nvariables: z ~ zbar, w\nterm: 1 [z*w]\n",
    ):
        spec = load_document(text)
        again = load_document(dump_document(spec.formal_sum(), spec.pairs))
        assert again.formal_sum() == spec.formal_sum()
        assert (again.variables, again.pairs) == (spec.variables, spec.pairs)


def test_dump_document_round_trip():
    x, y = var("x"), var("y")
    alpha = five_term(x * y, y - rf_const(3))
    again = load_document(dump_document(alpha, ()))
    assert again.formal_sum() == alpha


def test_dump_document_gaussian_round_trip():
    u = ("z",)
    z = var("z", u)
    i = RationalFunction.const(u, FieldElement.i())
    f = (rf_const(1, u) + rf_const(2, u) * i) * z + i
    alpha = FormalSum.single(f, 2, "Qi", "Z") + FormalSum.single(z + i, -1, "Qi", "Z")
    again = load_document(dump_document(alpha, ()))
    assert again.formal_sum() == alpha
    assert again.field_mode == "Qi"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vars=st.integers(0, 3),
    field_mode=st.sampled_from(("Q", "Qi")),
    coeff_mode=st.sampled_from(("Z", "Q")),
    paired=st.booleans(),
)
def test_dump_document_round_trips_random_sums(seed, n_vars, field_mode, coeff_mode, paired):
    universe = ("z", "w", "x")[:n_vars]
    pairs = (("z", "w"),) if paired and n_vars >= 2 else ()
    alpha = random_formal_sum(random.Random(seed), universe, 3, 2, field_mode, coeff_mode)
    spec = load_document(dump_document(alpha, pairs))
    assert spec.formal_sum() == alpha
    assert spec.pairs == pairs


# -- one document parses each distinct group once ------------------------------------


def _assert_as_fresh(shared, fresh):
    assert shared == fresh
    assert shared.num_factors == fresh.num_factors
    assert shared.den_factors == fresh.den_factors


def _assert_document_as_fresh(spec):
    """Each term parsed with one dict for the document, as formal_sum does,
    equals a fresh parse of that term, factor maps included; and the
    document's sum equals the sum of fresh parses."""
    shared: dict = {}
    total = FormalSum.zero(spec.variables, spec.field_mode, spec.coeff_mode)
    for term in spec.terms:
        fresh = parse_expression(term.expression, spec.variables, spec.field_mode)
        value = parse_expression(term.expression, spec.variables, spec.field_mode, shared)
        _assert_as_fresh(value, fresh)
        total = total + FormalSum.single(fresh, term.coefficient, spec.field_mode, spec.coeff_mode)
    assert spec.formal_sum() == total


def test_terms_share_their_groups(monkeypatch):
    import dilogeq.document as document

    seen = []  # (a term's value, the values in the dict before that term)
    parse = document.parse_expression

    def recorded(*args):
        before = list(args[3].values())
        value = parse(*args)
        seen.append((value, before))
        return value

    monkeypatch.setattr(document, "parse_expression", recorded)
    text = (
        "dilog-identity v1\nvariables: x, y\n"
        "term: 1 [(1 - x)/(1 - y)]\nterm: 1 [ ( 1-x ) ]\nterm: 1 [(1 -\ty)]\n"
    )
    spec = load_document(text)
    (first, _), (second, before_second), (third, before_third) = seen
    assert any(second is v for v in before_second)
    assert any(third is v for v in before_third)
    assert first == second / third
    monkeypatch.undo()
    _assert_document_as_fresh(spec)


def test_shared_factor_maps_match_fresh_parses():
    # five-term relations written out in full, as `relations five` writes them
    for x, y in (("x", "y"), ("(x*y + 1)", "((x - y)/(x + 1))"), ("((x^2 - 1)/(x + 1))", "((1 - y)^2)")):
        terms = (x, y, f"{y}/{x}", f"(1 - {x})/(1 - {y})", f"(1 - {x}^-1)/(1 - {y}^-1)")
        text = "dilog-identity v1\nvariables: x, y\n" + "".join(
            f"term: {c} [{t}]\n" for c, t in zip((1, -1, 1, 1, -1), terms)
        )
        _assert_document_as_fresh(load_document(text))
    _assert_document_as_fresh(load_document(DOC))


def test_limits_are_checked_around_a_shared_group():
    with pytest.raises(ExpressionError) as ei:
        parse_expression("(t^60000)*(t^60000)", ("t",))
    assert (ei.value.line, ei.value.col) == (1, 10)

    text = "dilog-identity v1\nvariables: t\nterm: 1 [(t + 1)]\nterm: 1 [(t + 1)/(t - t)]\n"
    with pytest.raises(DocumentError) as ei:
        load_document(text)
    assert isinstance(ei.value.__cause__, ExpressionError)
    assert str(ei.value) == (
        "division by an identically zero expression (line 4, column 8 of the expression)"
    )


def test_a_group_that_raised_raises_again_at_its_own_place():
    shared: dict = {}
    for src, col in (("1 + (x/(y - y))", 7), ("(x/(y - y))", 3), ("x/(y - y)", 2)):
        with pytest.raises(ExpressionError) as ei:
            parse_expression(src, XY, "Q", shared)
        assert (ei.value.line, ei.value.col) == (1, col)


_LEAVES = st.sampled_from(["x", "y", "1", "2", "-3"])


def _branches(children):
    return st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    ) | st.tuples(children, st.integers(-2, 3)).map(lambda t: f"({t[0]})^({t[1]})")


_SUBTREES = st.recursive(_LEAVES, _branches, max_leaves=5)


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(_SUBTREES, min_size=1, max_size=4),
    picks=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from("+-*/"), st.integers(0, 3), st.booleans()),
        min_size=1,
        max_size=8,
    ),
)
def test_repeated_subtrees_parse_as_fresh(pool, picks):
    terms = []
    for a, op, b, spaced in picks:
        left, right = pool[a % len(pool)], pool[b % len(pool)]
        if spaced:
            left = left.replace("(", "( ").replace(" ", "  ")
        terms.append(f"({left}) {op} {right}")
    shared: dict = {}
    admissible = []
    for src in terms:
        try:
            fresh = parse_expression(src, XY)
        except ExpressionError as exc:
            with pytest.raises(ExpressionError) as ei:
                parse_expression(src, XY, "Q", shared)
            assert (ei.value.line, ei.value.col) == (exc.line, exc.col)
            continue
        _assert_as_fresh(parse_expression(src, XY, "Q", shared), fresh)
        try:
            check_term(fresh, 1, XY, "Z")
        except ValueError:
            continue
        admissible.append(src)
    doc = "dilog-identity v1\nvariables: x, y\n" + "".join(f"term: 1 [{t}]\n" for t in admissible)
    _assert_document_as_fresh(load_document(doc))


def test_benchmark_documents_parse_as_fresh():
    for case in bench_inputs().docs_cases(1, 60):
        _assert_document_as_fresh(load_document(case.text))
