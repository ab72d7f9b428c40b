"""Expression grammar and identity-document parsing."""

import random
from fractions import Fraction

import pytest

from dilogeq.document import (
    DocumentError,
    dump_document,
    load_document,
    spec_from_formal_sum,
)
from dilogeq.exprparse import (
    DivisionByZeroConstant,
    ExprSyntaxError,
    UnknownVariable,
    parse_expression,
)
from dilogeq.formal import FormalSum, five_term
from dilogeq.ratfunc import RationalFunction, ZeroDenominator
from dilogeq.scalars import FieldElement

XY = ("x", "y")


def rf_const(q, universe=XY):
    return RationalFunction.const(universe, FieldElement.of(Fraction(q)))


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
    with pytest.raises(ExprSyntaxError) as ei:
        parse_expression("x +\n* y", XY)
    assert (ei.value.line, ei.value.col) == (2, 1)

    with pytest.raises(ExprSyntaxError) as ei:
        parse_expression("x $ y", XY)
    assert "unexpected character" in str(ei.value)
    assert (ei.value.line, ei.value.col) == (1, 3)

    with pytest.raises(ExprSyntaxError) as ei:
        parse_expression("(x", XY)
    assert "end of input" in str(ei.value)
    assert (ei.value.line, ei.value.col) == (1, 3)

    with pytest.raises(ExprSyntaxError) as ei:
        parse_expression("", XY)
    assert (ei.value.line, ei.value.col) == (1, 1)

    with pytest.raises(ExprSyntaxError) as ei:
        parse_expression("x y", XY)
    assert "after expression" in str(ei.value)
    assert (ei.value.line, ei.value.col) == (1, 3)

    with pytest.raises(ExprSyntaxError) as ei:
        parse_expression("2 ^ x", XY)
    assert (ei.value.line, ei.value.col) == (1, 5)


def test_syntax_error_is_a_syntax_error():
    with pytest.raises(SyntaxError):
        parse_expression("x +", XY)


def test_unknown_variable_details():
    with pytest.raises(UnknownVariable) as ei:
        parse_expression("q + x", ("x",))
    assert ei.value.name == "q"
    assert (ei.value.line, ei.value.col) == (1, 1)

    # using i without gaussian mode points at the fix
    with pytest.raises(UnknownVariable) as ei:
        parse_expression("1 + i", ("x",), "Q")
    assert "field mode Qi" in str(ei.value)


def test_division_by_zero_constant():
    with pytest.raises(DivisionByZeroConstant) as ei:
        parse_expression("1/0", XY)
    assert (ei.value.line, ei.value.col) == (1, 2)

    with pytest.raises(DivisionByZeroConstant) as ei:
        parse_expression("x/(x - x)", XY)
    assert (ei.value.line, ei.value.col) == (1, 2)

    with pytest.raises(DivisionByZeroConstant) as ei:
        parse_expression("(x - x)^(-2)", XY)
    assert (ei.value.line, ei.value.col) == (1, 8)

    with pytest.raises(ZeroDivisionError):
        parse_expression("1/0", XY)


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
    assert alpha.coefficient(parse_expression("y/x", XY)) == 1
    assert alpha.coefficient(var("x")) == 1
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
    assert spec.var_swap() == {"z": "zbar"}


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
        ("dilog-identity v1\nfield: Qi\nvariables: i\nterm: 1 [i]\n", "collides", 1),
        ("dilog-identity v1\nvariables: t\nterm: 1 [1]\n", "admissible", 3),
    ],
)
def test_document_errors(text, fragment, line):
    with pytest.raises(DocumentError) as ei:
        load_document(text)
    assert fragment in str(ei.value)
    assert ei.value.line == line


def test_expression_errors_surface_at_load_time():
    with pytest.raises(UnknownVariable):
        load_document("dilog-identity v1\nvariables: t\nterm: 1 [q]\n")
    with pytest.raises(ExprSyntaxError):
        load_document("dilog-identity v1\nvariables: t\nterm: 1 [t +]\n")


def test_empty_variables_line_means_constants_only():
    text = "dilog-identity v1\nvariables:\nterm: 1 [2]\n"
    spec = load_document(text)
    assert spec.variables == ()
    assert len(spec.formal_sum()) == 1


def _same_content(a, b):
    return (
        a.field_mode == b.field_mode
        and a.coeff_mode == b.coeff_mode
        and a.variables == b.variables
        and a.pairs == b.pairs
        and [(t.coefficient, t.expression) for t in a.terms]
        == [(t.coefficient, t.expression) for t in b.terms]
    )


def test_dump_load_round_trip():
    for text in (
        DOC,
        "dilog-identity v1\nvariables:\nterm: 1 [2]\n",
        "dilog-identity v1\nfield: Qi\nvariables: z ~ zbar, w\nterm: 1 [z*w]\n",
    ):
        spec = load_document(text)
        again = load_document(dump_document(spec))
        assert _same_content(spec, again)
        assert again.formal_sum() == spec.formal_sum()


def test_spec_from_formal_sum_round_trip():
    x, y = var("x"), var("y")
    alpha = five_term(x * y, y - rf_const(3))
    spec = spec_from_formal_sum(alpha)
    again = load_document(dump_document(spec))
    assert again.formal_sum() == alpha


def test_spec_from_formal_sum_gaussian_round_trip():
    u = ("z",)
    z = var("z", u)
    i = RationalFunction.const(u, FieldElement.i())
    f = (rf_const(1, u) + rf_const(2, u) * i) * z + i
    alpha = FormalSum.single(f, 2, "Qi", "Z") + FormalSum.single(z + i, -1, "Qi", "Z")
    again = load_document(dump_document(spec_from_formal_sum(alpha, ())))
    assert again.formal_sum() == alpha
    assert again.field_mode == "Qi"
