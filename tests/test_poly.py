"""Multivariate polynomials: arithmetic, gcd, squarefree decomposition."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq.poly import (
    MultiPoly,
    _format_term,
    join_signed,
    poly_gcd,
    squarefree_parts,
)
from dilogeq.ratfunc import RationalFunction
from dilogeq.scalars import ONE, ZERO, fe

from helpers import gcd_many, random_point, random_poly, shift_var
from oracles import descending_terms, univar_inverse_mod, univar_rem


T = ("t",)
T12 = ("t1", "t2")


def t():
    return MultiPoly.var(T, "t")


def c(n):
    return MultiPoly.const(T, fe(n))


small_polys = st.builds(
    lambda seed: random_poly(random.Random(seed), T, max_deg=3, max_terms=3),
    st.integers(0, 10_000),
)
small_polys2 = st.builds(
    lambda seed: random_poly(random.Random(seed), T12, max_deg=2, max_terms=3),
    st.integers(0, 10_000),
)


def test_construction_and_str():
    p = t() ** 2 - c(1)
    assert str(p) == "t^2 - 1"
    assert p.total_degree() == 2
    assert p.degree_in("t") == 2
    assert p.vars_used() == ("t",)
    q = MultiPoly.var(T12, "t1") * MultiPoly.var(T12, "t2")
    assert str(q) == "t1*t2"
    assert q.degree_in("t1") == 1


def test_join_signed():
    assert join_signed([]) == "0"
    assert join_signed(iter([])) == "0"
    assert join_signed(["-a"]) == "-a"
    assert join_signed(["-a", "b"]) == "-a + b"
    assert join_signed(["a", "-b", "2*c", "-3*d"]) == "a - b + 2*c - 3*d"
    assert str(-t() ** 2 + c(1)) == "-t^2 + 1"
    assert str(MultiPoly.zero(T)) == "0"


@pytest.mark.parametrize("gaussian", [False, True])
def test_pow_is_repeated_multiplication(gaussian):
    rnd = random.Random(5)
    for p in [random_poly(rnd, T12, max_deg=2, max_terms=3, gaussian=gaussian) for _ in range(3)]:
        expected = MultiPoly.one(T12)
        for n in range(21):
            assert p**n == expected, (str(p), n)
            expected = expected * p
        assert p**1 is p


def test_one_is_one_shared_object_per_universe():
    one = MultiPoly.one(T12)
    assert MultiPoly.one(T12) is one and MultiPoly.one(list(T12)) is one
    assert one == MultiPoly.const(T12, ONE) and hash(one) == hash(MultiPoly.const(T12, ONE))
    assert one.is_one() and MultiPoly.one(T) == c(1) and MultiPoly.one(T) is not one


@given(st.integers(0, 10_000), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=80)
def test_a_polynomial_is_its_universe_and_its_term_set(seed, shuffler, gaussian):
    rnd = random.Random(seed)
    p = random_poly(rnd, T12, max_deg=3, max_terms=6, gaussian=gaussian)
    q = random_poly(rnd, T12, max_deg=2, max_terms=3, gaussian=gaussian)
    items = list(p.terms.items())
    shuffler.shuffle(items)
    # the same terms in another insertion order, and the same value by arithmetic
    for same in (MultiPoly(T12, dict(items)), (p * q).divide_exact(q)):
        assert same == p and hash(same) == hash(p)
    # the same terms over a reordered universe are another polynomial
    assert MultiPoly(T12[::-1], p.terms) != p
    # str and sort_key list the terms in descending graded-lex order
    reference = descending_terms(p)
    shuffled = MultiPoly(T12, dict(items))
    keys = tuple((e, c.sort_key()) for e, c in reference)
    assert shuffled.sort_key() == (p.total_degree(), keys)
    texts = []
    for e, c in reference:
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(T12, e) if k)
        texts.append(_format_term(c, mono))
    assert str(shuffled) == str(p) == join_signed(texts)


def test_zero_degree_convention():
    assert MultiPoly.zero(T).total_degree() == -1
    assert MultiPoly.one(T).total_degree() == 0


def assert_lead_from_terms(p: MultiPoly):
    """The cached lead term, and what reads it, equal a recomputation from
    `terms`; total_degree fills the cache first, lead_term reads it."""
    if not p.terms:
        assert p.total_degree() == -1
        with pytest.raises(ValueError):
            p.lead_term()
        assert p.primitive_monic() == (ONE, p)
        return
    lead = max(p.terms, key=lambda e: (sum(e), e))
    assert p.total_degree() == max(sum(e) for e in p.terms)
    for _ in range(2):
        assert p.lead_term() == (lead, p.terms[lead])
    assert p.lead_coeff() == p.terms[lead]
    unit, monic = p.primitive_monic()
    assert unit == p.terms[lead]
    assert monic.terms == {e: c / unit for e, c in p.terms.items()}
    assert monic.lead_term() == (lead, ONE)
    assert monic.total_degree() == p.total_degree()


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == MultiPoly.zero(T)
    for s in (p, q, r, p * q, p + q, p - p, MultiPoly.const(T, fe(-3)), MultiPoly.one(T12)):
        assert_lead_from_terms(s)


def test_gcd_examples():
    g = poly_gcd(t() ** 2 - c(1), t() - c(1))
    assert g == t() - c(1)
    assert poly_gcd(t() ** 2 - c(1), c(3)).is_one()
    t1 = MultiPoly.var(T12, "t1")
    t2 = MultiPoly.var(T12, "t2")
    g2 = poly_gcd(t1**2 * t2 + t1 * t2**2, t1 * t2)
    assert g2 == t1 * t2


def test_gcd_of_zero():
    p = c(2) * t() + c(2)
    assert poly_gcd(MultiPoly.zero(T), p) == t() + c(1)
    assert poly_gcd(p, MultiPoly.zero(T)) == t() + c(1)


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if not p.is_zero():
        assert p.divide_exact(g) is not None
    if not q.is_zero():
        assert q.divide_exact(g) is not None


@given(small_polys, small_polys, small_polys)
@settings(max_examples=25, deadline=None)
def test_common_factor_detected(p, q, r):
    # gcd(r*p, r*q) is divisible by the monic part of r
    if r.is_zero() or r.is_constant():
        return
    g = poly_gcd(r * p, r * q)
    if (r * p).is_zero() or (r * q).is_zero():
        return
    _, rm = r.primitive_monic()
    assert g.divide_exact(rm) is not None


@given(small_polys2, small_polys2)
@settings(max_examples=25, deadline=None)
def test_gcd_two_variables(p, q):
    g = poly_gcd(p, q)
    if not p.is_zero():
        assert p.divide_exact(g) is not None
    if not q.is_zero():
        assert q.divide_exact(g) is not None
    # graded-lex ties between the two variables
    for s in (p, q, g, p * q):
        assert_lead_from_terms(s)


def test_gcd_many():
    polys = [t() ** 3 - t(), t() ** 2 + t(), t() ** 2 - t()]
    assert gcd_many(polys) == t()
    with pytest.raises(ValueError):
        gcd_many([])


def test_squarefree_examples():
    p = (t() - c(1)) ** 2 * (t() + c(2))
    parts = squarefree_parts(p)
    assert parts == [(t() + c(2), 1), (t() - c(1), 2)] or parts == [
        (t() - c(1), 2),
        (t() + c(2), 1),
    ]
    assert squarefree_parts(t() ** 2 - c(1)) == [(t() ** 2 - c(1), 1)]
    assert squarefree_parts(c(5)) == []


@given(small_polys)
@settings(max_examples=40, deadline=None)
def test_squarefree_multiply_back(p):
    if p.is_zero() or p.is_constant():
        return
    parts = squarefree_parts(p)
    prod = MultiPoly.one(T)
    for g, k in parts:
        prod = prod * g**k
    _, pm = p.primitive_monic()
    assert prod == pm


@given(small_polys)
@settings(max_examples=30, deadline=None)
def test_squarefree_parts_pairwise_coprime(p):
    if p.is_zero() or p.is_constant():
        return
    parts = squarefree_parts(p)
    for i in range(len(parts)):
        gi = parts[i][0]
        # squarefree: gcd with own derivative is 1
        for v in gi.vars_used():
            assert poly_gcd(gi, gi.derivative(v)).is_one()
        for j in range(i + 1, len(parts)):
            assert poly_gcd(gi, parts[j][0]).is_one()


def test_divide_exact():
    p = (t() + c(1)) * (t() - c(2))
    assert p.divide_exact(t() + c(1)) == t() - c(2)
    assert p.divide_exact(t() + c(3)) is None
    assert p.divide_exact(c(2)) == p.scale(fe(1) / fe(2))
    with pytest.raises(ZeroDivisionError):
        p.divide_exact(MultiPoly.zero(T))


def test_derivative():
    p = t() ** 3 + c(2) * t()
    assert p.derivative("t") == c(3) * t() ** 2 + c(2)
    t1 = MultiPoly.var(T12, "t1")
    t2 = MultiPoly.var(T12, "t2")
    assert (t1**2 * t2).derivative("t2") == t1**2


def test_evaluate():
    t1 = MultiPoly.var(T12, "t1")
    t2 = MultiPoly.var(T12, "t2")
    p = t1**2 + t2
    assert p.evaluate({"t1": fe(3), "t2": fe(4)}) == fe(13)
    # only the variables the polynomial uses need a value
    assert (t1**2).evaluate({"t1": fe(3)}) == fe(9)
    assert MultiPoly.const(T12, fe(5)).evaluate({}) == fe(5)
    assert MultiPoly.zero(T12).evaluate({}) == ZERO


def test_evaluate_needs_every_variable_it_uses():
    p = MultiPoly.var(T12, "t1") * MultiPoly.var(T12, "t2") + MultiPoly.one(T12)
    with pytest.raises(ValueError, match="assigns no value to t2"):
        p.evaluate({"t1": fe(3)})
    with pytest.raises(ValueError, match="assigns no value to t1"):
        p.evaluate({})


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.integers(1, 3))
def test_evaluate_is_substitution(seed, gaussian, nvars):
    # evaluating at a point is substituting each coordinate as a constant
    # rational function, one variable after another
    rnd = random.Random(seed)
    universe = ("t1", "t2", "t3")[:nvars]
    p = random_poly(rnd, universe, max_deg=3, max_terms=5, gaussian=gaussian)
    point = random_point(rnd, universe, gaussian)
    f = RationalFunction.from_poly(p)
    for v, val in point.items():
        f = f.substitute(v, RationalFunction.const(universe, val))
    assert p.evaluate(point) == f.num.constant_value()
    assert f.den.is_one()


def _eval_numeric_loop(p: MultiPoly, point) -> complex:
    # the float operations of the evaluation, in their order, with no cache
    total = 0j
    for e, c in p.terms.items():
        v = c.to_complex()
        for name, k in zip(p.universe, e):
            if k:
                v *= point[name] ** k
        total += v
    return total


def test_eval_numeric_is_bit_identical_to_the_loop():
    rnd = random.Random(4)
    universe = ("t1", "t2", "t3")
    for _ in range(300):
        p = random_poly(rnd, universe, max_deg=4, max_terms=6, gaussian=rnd.random() < 0.5)
        for _ in range(3):
            point = {v: complex(rnd.uniform(-4, 4), rnd.uniform(-4, 4)) for v in universe}
            got = p.eval_numeric(point)
            want = _eval_numeric_loop(p, point)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_shift_and_rename():
    p = t() ** 2 + t()
    # exponent shift: multiply by t^k
    assert shift_var(p, "t", 1) == t() ** 3 + t() ** 2
    assert shift_var(shift_var(p, "t", 1), "t", -1) == p
    # rename_vars permutes within the universe
    t1 = MultiPoly.var(T12, "t1")
    t2 = MultiPoly.var(T12, "t2")
    swapped = (t1**2 + t2).rename_vars({"t1": "t2", "t2": "t1"})
    assert swapped == t2**2 + t1
    with pytest.raises(ValueError):
        t().rename_vars({"t": "s"})


def test_primitive_monic():
    p = c(4) * t() ** 2 + c(2) * t()
    lead, m = p.primitive_monic()
    assert lead == fe(4)
    assert m == t() ** 2 + t().scale(fe(1) / fe(2))
    assert m.lead_coeff() == ONE


def test_univar_gcd_and_inverse_mod():
    m = t() ** 2 + c(1)
    g = poly_gcd(t() ** 2 - c(1), t() - c(1))
    assert g == t() - c(1)
    inv = univar_inverse_mod(t(), m, "t")
    # t * inv == 1 mod t^2+1, i.e. inv == -t
    assert univar_rem(t() * inv - c(1), m, "t").is_zero()
    with pytest.raises(ValueError):
        univar_inverse_mod(t() + c(0), t() ** 2 + t(), "t")


@given(small_polys, small_polys)
@settings(max_examples=30, deadline=None)
def test_univar_rem_is_remainder(p, q):
    if q.is_zero() or q.is_constant():
        return
    r = univar_rem(p, q, "t")
    assert r.degree_in("t") < q.degree_in("t")
    # p - r divisible by q
    diff = p - r
    if not diff.is_zero():
        assert diff.divide_exact(q.primitive_monic()[1]) is not None


def test_universe_mismatch_rejected():
    with pytest.raises(ValueError):
        t() + MultiPoly.var(T12, "t1")


def test_with_universe():
    p = t() ** 2
    q = p.with_universe(("s", "t"))
    assert q.universe == ("s", "t")
    assert q.degree_in("t") == 2
    with pytest.raises(ValueError):
        q.with_universe(("s",))
