"""Rational functions: normalization, field laws, substitution."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq.poly import MultiPoly
from dilogeq.ratfunc import INF, Infinity, RationalFunction, ZeroDenominator
from dilogeq.scalars import ONE, fe

from helpers import random_expression, random_ratfunc, rf


T = ("t",)
T12 = ("t1", "t2")
XY = ("x", "y")

ratfuncs = st.builds(
    lambda seed: random_ratfunc(random.Random(seed), T, max_deg=2),
    st.integers(0, 10_000),
)


def test_lowest_terms_normalization():
    # (t^2-1)/(t-1) collapses to t+1
    num = MultiPoly.var(T, "t") ** 2 - MultiPoly.one(T)
    den = MultiPoly.var(T, "t") - MultiPoly.one(T)
    g = RationalFunction(num, den)
    t = RationalFunction.var(T, "t")
    assert g == t + RationalFunction.const(T, fe(1))
    assert g.den.is_one()


def test_monic_denominator():
    # 1/(2t) normalizes to (1/2)/t
    one = MultiPoly.one(T)
    twot = MultiPoly.var(T, "t").scale(fe(2))
    g = RationalFunction(one, twot)
    assert g.den == MultiPoly.var(T, "t")
    assert g.num == MultiPoly.one(T).scale(fe(1) / fe(2))


def test_reordered_universe_keeps_the_denominator_monic():
    # over (x, y) the leader of x + 2y is x; over (y, x) it is 2y
    f = rf(XY, 1, MultiPoly.var(XY, "x") + MultiPoly.var(XY, "y").scale(fe(2)))
    YX = ("y", "x")
    moved = f.with_universe(YX)
    fresh = rf(YX, 1, MultiPoly.var(YX, "x") + MultiPoly.var(YX, "y").scale(fe(2)))
    assert moved.den.lead_coeff() == ONE
    assert moved == fresh and hash(moved) == hash(fresh)
    assert moved.with_universe(XY) == f


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RationalFunction(MultiPoly.one(T), MultiPoly.zero(T))
    t = RationalFunction.var(T, "t")
    with pytest.raises(ZeroDenominator):
        t / RationalFunction.const(T, fe(0))
    with pytest.raises(ZeroDenominator):
        RationalFunction.const(T, fe(0)).inverse()


@given(ratfuncs, ratfuncs, ratfuncs)
@settings(max_examples=40, deadline=None)
def test_field_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == RationalFunction.const(T, fe(0))
    if not f.is_zero():
        assert f * f.inverse() == RationalFunction.const(T, fe(1))
        assert (f / f).is_one()


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_one_minus(seed, gaussian):
    # one_minus skips the gcd, so it must equal the fully normalized 1 - f,
    # over Q and Q(i)
    f = random_ratfunc(random.Random(seed), T12, gaussian=gaussian)
    assert f.one_minus() == RationalFunction.const(T12, fe(1)) - f


@given(st.integers(0, 10**6), st.integers(1, 3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_factor_maps_multiply_to_the_monic_halves(seed, nvars, gaussian):
    # expression trees over Q and Q(i): each factor map multiplies exactly
    # to the monic numerator or the denominator, and the cross-cancelled
    # arithmetic lands in lowest terms
    universe = ("x", "y", "z")[:nvars]
    f = random_expression(random.Random(seed), universe, gaussian, depth=4)
    whole = RationalFunction(f.num, f.den)
    assert (whole.num, whole.den) == (f.num, f.den)
    for half, factors in ((f.num, f.num_factors), (f.den, f.den_factors)):
        product = MultiPoly.one(universe)
        for p, k in factors.items():
            assert p.lead_coeff() == ONE and not p.is_constant() and k > 0
            product = product * p**k
        assert product == (MultiPoly.one(universe) if half.is_zero() else half.primitive_monic()[1])


def test_factor_maps_of_worked_examples():
    x = RationalFunction.var(XY, "x")
    one = RationalFunction.const(XY, ONE)
    px, p1 = MultiPoly.var(XY, "x"), MultiPoly.var(XY, "x") + MultiPoly.one(XY)
    # powers keep multiplicities, negative ones too, and run no gcd
    f = ((x + one) ** 3 * x * RationalFunction.const(XY, fe(2))) ** -2
    assert f.den_factors == {p1: 6, px: 2} and f.num_factors == {}
    # a cancelling quotient falls back to the one-factor map of what is left
    g = (x * (x + one)) / x
    assert g == x + one and g.num_factors == {p1: 1}
    # 1 - f starts a new numerator and keeps the denominator's map
    h = (one / (x * (x + one))).one_minus()
    assert h.den_factors == {px: 1, p1: 1}
    assert h.num_factors == {(px * p1 - MultiPoly.one(XY)): 1}
    # a sum with a polynomial side keeps the other side's denominator map
    assert (one / (x * (x + one)) + x).den_factors == {px: 1, p1: 1}


def test_first_powers_keep_the_operand_and_its_factor_maps():
    x = RationalFunction.var(XY, "x")
    one = RationalFunction.const(XY, ONE)
    f = (x + one) ** 3 * x / ((x - one) * RationalFunction.const(XY, fe(2)))
    assert f**1 is f
    inverse = f.inverse()
    assert f**-1 == inverse
    assert (f**-1).num_factors == inverse.num_factors == f.den_factors
    assert (f**-1).den_factors == inverse.den_factors == f.num_factors


def test_constant_value():
    c = fe(Fraction(-3, 7), 2)
    assert RationalFunction.const(XY, c).constant_value() == c
    assert RationalFunction.const(XY, fe(0)).constant_value() == fe(0)
    # a normalized constant has the denominator 1; a pair built as
    # normalized may hold another constant, which is divided out
    three, two_plus_i = MultiPoly.const(XY, fe(3)), MultiPoly.const(XY, fe(2, 1))
    held = RationalFunction(three, two_plus_i, _normalized=True)
    assert held.constant_value() == fe(3) / fe(2, 1)
    assert RationalFunction(three, two_plus_i).constant_value() == fe(3) / fe(2, 1)
    for f in (RationalFunction.var(XY, "x"), RationalFunction.var(XY, "x").inverse()):
        with pytest.raises(ValueError):
            f.constant_value()


def test_infinity_singleton():
    assert Infinity() is INF
    assert str(INF) == "inf"


def test_substitute_examples():
    t = RationalFunction.var(T, "t")
    one = RationalFunction.const(T, fe(1))
    # (2t+1)/(t-1) at t -> INF gives ratio of lead coeffs = 2
    f = (t * RationalFunction.const(T, fe(2)) + one) / (t - one)
    assert f.substitute("t", INF) == RationalFunction.const(T, fe(2))
    # t^2/(t+1) at INF: deg num > deg den
    g = t**2 / (t + one)
    assert g.substitute("t", INF) is INF
    # t/(t^2+1) at INF: deg num < deg den
    h = t / (t**2 + one)
    assert h.substitute("t", INF).is_zero()
    # 1/(t-1) at t=1 is INF
    k = one / (t - one)
    assert k.substitute("t", RationalFunction.const(T, fe(1))) is INF
    assert k.evaluate({"t": fe(1)}) is INF


def test_substitute_rational_value():
    t1 = RationalFunction.var(T12, "t1")
    t2 = RationalFunction.var(T12, "t2")
    f = t1 / (t1 + t2)
    g = f.substitute("t1", t2**2)
    assert g == t2**2 / (t2**2 + t2)
    assert "t1" not in g.vars_used()
    with pytest.raises(ValueError):
        f.substitute("t1", t1 + t2)


@given(ratfuncs, ratfuncs, st.fractions(min_value=-5, max_value=5, max_denominator=4))
@settings(max_examples=30, deadline=None)
def test_substitution_is_homomorphism(f, g, a):
    val = RationalFunction.const(T, fe(a))
    fs = f.substitute("t", val)
    gs = g.substitute("t", val)
    if fs is INF or gs is INF:
        return
    s = (f * g).substitute("t", val)
    if s is INF:
        return
    assert s == fs * gs
    s2 = (f + g).substitute("t", val)
    if s2 is not INF:
        assert s2 == fs + gs


def test_evaluate_matches_substitute():
    t = RationalFunction.var(T, "t")
    one = RationalFunction.const(T, fe(1))
    f = (t**2 - one) / (t + one + one)
    for q in (0, 1, 2, -1, 5):
        v = f.evaluate({"t": fe(q)})
        s = f.substitute("t", RationalFunction.const(T, fe(q)))
        if v is INF:
            assert s is INF
        else:
            assert s.is_constant() and s.constant_value() == v


def test_conjugate_involution():
    from dilogeq.scalars import I

    t = RationalFunction.var(T, "t")
    f = (t + RationalFunction.const(T, I)) / (
        t - RationalFunction.const(T, fe(2))
    )
    assert f.conjugate().conjugate() == f
    assert f.conjugate() != f
    g = (t + RationalFunction.const(T, fe(1))) / t
    assert g.conjugate() == g


def test_conjugate_with_var_swap():
    t1 = RationalFunction.var(T12, "t1")
    t2 = RationalFunction.var(T12, "t2")
    f = t1 / (t2 + RationalFunction.const(T12, fe(1)))
    g = f.conjugate(var_swap={"t1": "t2", "t2": "t1"})
    assert g == t2 / (t1 + RationalFunction.const(T12, fe(1)))
    assert g.conjugate(var_swap={"t1": "t2", "t2": "t1"}) == f


@pytest.mark.parametrize(
    "universe, swap",
    [
        (("x", "y"), {"x": "y", "y": "x"}),
        (("x", "y", "z"), {"x": "z", "z": "x"}),
        (("x", "y", "z"), {"x": "y", "y": "z", "z": "x"}),
        (("x", "y", "z"), {"x": "z", "z": "y", "y": "x"}),
    ],
)
def test_conjugate_keeps_lowest_terms_without_a_gcd(universe, swap):
    # conjugate only makes the denominator monic again; the full
    # normalization of the conjugated and renamed pair is the reference
    rnd = random.Random(f"conjugate:{len(universe)}:{sorted(swap.items())}")
    for _ in range(40):
        f = random_ratfunc(rnd, universe, max_deg=2, gaussian=True)
        num = f.num.conjugate_coeffs().rename_vars(swap)
        den = f.den.conjugate_coeffs().rename_vars(swap)
        expected = RationalFunction(num, den)
        got = f.conjugate(swap)
        assert (got.num.terms, got.den.terms) == (expected.num.terms, expected.den.terms)
        assert got.den.lead_coeff().is_one()


def test_rename_that_merges_variables_is_refused():
    xyz = ("x", "y", "z")
    x, y, z = (MultiPoly.var(xyz, v) for v in xyz)
    # a mapping that sends two names to one slot used to overwrite one
    # exponent with the other: x + y became y + 1, and x + y^2*z under
    # x -> y -> z became y*z^2 + 1
    with pytest.raises(ValueError, match="not a permutation"):
        (x + y).rename_vars({"x": "y"})
    f = RationalFunction.from_poly(x + y**2 * z)
    with pytest.raises(ValueError, match="not a permutation"):
        f.conjugate({"x": "y", "y": "z"})
    with pytest.raises(ValueError, match="not a permutation"):
        (x + y).rename_vars({"u": "x"})
    # a full cycle is a permutation, and so is a fixed name
    assert f.conjugate({"x": "y", "y": "z", "z": "x"}) == RationalFunction.from_poly(y + z**2 * x)
    assert (x + y).rename_vars({"x": "x"}) == x + y


@given(ratfuncs)
@settings(max_examples=30, deadline=None)
def test_eval_numeric_consistent(f):
    pt = {"t": 0.3125}
    try:
        approx = f.eval_numeric(pt)
    except ZeroDivisionError:
        return
    exact = f.evaluate({"t": fe(Fraction(5, 16))})
    if exact is INF:
        return
    assert abs(approx - complex(exact.to_complex())) < 1e-9


def test_rf_helper():
    f = rf(T, 1, 2)
    assert f.is_constant() and f.constant_value() == fe(1) / fe(2)
    g = rf(T, MultiPoly.var(T, "t"))
    assert g == RationalFunction.var(T, "t")


def test_str_forms():
    t = RationalFunction.var(T, "t")
    one = RationalFunction.const(T, fe(1))
    assert str(t + one) == "t + 1"
    assert str(one / t) == "(1)/(t)"
