"""GCD-free basis refinement and factoring over it."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq import coprime
from dilogeq.coprime import CoprimeBasis, coprime_basis
from dilogeq.poly import MultiPoly, poly_gcd
from dilogeq.ratfunc import RationalFunction
from dilogeq.scalars import ONE, fe

from helpers import random_poly


T = ("t",)


def t():
    return MultiPoly.var(T, "t")


def c(n):
    return MultiPoly.const(T, fe(n))


def test_basis_example():
    # the refinement is minimal: t and t+1 are never separated because no
    # input tells them apart, so {t^3-t, t^2+t} yields {t-1, t^2+t}
    basis = coprime_basis([t() ** 3 - t(), t() ** 2 + t()])
    assert {str(b) for b in basis.elements} == {"t - 1", "t^2 + t"}
    u, e = basis.factor(t() ** 3 - t())
    assert u == ONE
    exps = {str(basis.elements[i]): k for i, k in e.items()}
    assert exps == {"t - 1": 1, "t^2 + t": 1}
    # adding t as an input forces the full split
    fine = coprime_basis([t() ** 3 - t(), t() ** 2 + t(), t()])
    assert {str(b) for b in fine.elements} == {"t", "t - 1", "t + 1"}
    u2, e2 = fine.factor(t() ** 2 + t())
    exps2 = {str(fine.elements[i]): k for i, k in e2.items()}
    assert exps2 == {"t": 1, "t + 1": 1}


def test_factor_with_unit():
    basis = coprime_basis([t() ** 2 - c(1)])
    u, e = basis.factor((t() ** 2 - c(1)).scale(fe(-6)))
    assert u == fe(-6)


def test_factor_rf():
    basis = coprime_basis([t() ** 3 - t(), t() ** 2 + t()])
    f = RationalFunction(t() ** 3 - t(), t() ** 2 + t())
    u, e = basis.factor_rf(f)
    assert u == ONE
    named = {str(basis.elements[i]): k for i, k in e.items()}
    # (t^3-t)/(t^2+t) = t - 1 after cancellation
    assert named == {"t - 1": 1}


def test_factor_outside_basis_rejected():
    basis = coprime_basis([t()])
    with pytest.raises(ValueError):
        basis.factor(t() + c(1))
    with pytest.raises(ValueError):
        basis.factor(MultiPoly.zero(T))
    # a frozen basis refuses to split or append, and the refused polynomial
    # changes neither the elements nor any record
    basis = coprime_basis([t() ** 2 + t(), t() - c(1)])
    elements = list(basis.elements)
    records = {p: dict(r) for p, r in basis._records.items()}
    for p in (
        t(),  # would split t^2 + t
        t() + c(2),  # would be appended
        (t() - c(1)) * (t() + c(5)) ** 2,  # the first part factors, the second not
    ):
        with pytest.raises(ValueError):
            basis.factor(p)
        assert basis.elements == elements
        assert basis._records == records


def test_factor_needs_a_frozen_basis():
    basis = CoprimeBasis(T)
    basis.add(t())
    with pytest.raises(RuntimeError):
        basis.factor(t())
    with pytest.raises(RuntimeError):
        basis.index_of(t())


def test_registered_factor_is_a_lookup(monkeypatch):
    # exponents are recorded while refining, so factoring a registered
    # polynomial, or one equal to it up to a unit, divides nothing
    T2 = ("x", "y")
    x, y = MultiPoly.var(T2, "x"), MultiPoly.var(T2, "y")
    one = MultiPoly.one(T2)
    inputs = [x * (x + y), (x + y) * (y - one) ** 2, y * (x * y + one), x - y]
    basis = CoprimeBasis(T2)
    for p in inputs:
        basis.add(p)
    f = RationalFunction(inputs[1], inputs[2])
    calls = {"divide_exact": 0, "poly_gcd": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(coprime, "poly_gcd", counted("poly_gcd", coprime.poly_gcd))
    monkeypatch.setattr(
        MultiPoly, "divide_exact", counted("divide_exact", MultiPoly.divide_exact)
    )
    basis.add(inputs[0].scale(fe(-3)))
    basis.freeze()
    for p in inputs:
        basis.factor(p.scale(fe(5)))
    basis.factor_rf(f)
    assert calls == {"divide_exact": 0, "poly_gcd": 0}
    assert len(basis._records) == len(inputs)


def test_add_after_freeze_rejected():
    basis = coprime_basis([t()])
    with pytest.raises(RuntimeError):
        basis.add(t() + c(1))


def test_add_zero_rejected():
    basis = CoprimeBasis(T)
    with pytest.raises(ValueError):
        basis.add(MultiPoly.zero(T))


def test_constants_leave_basis_empty():
    basis = coprime_basis([c(7)])
    assert len(basis) == 0
    u, e = basis.factor(c(7))
    assert u == fe(7) and e == {}


def test_squarefree_split():
    # a square factor is recorded with exponent 2 against a squarefree element
    basis = coprime_basis([(t() - c(1)) ** 2 * t()])
    assert {str(b) for b in basis.elements} == {"t", "t - 1"}
    _, e = basis.factor((t() - c(1)) ** 2 * t())
    exps = {str(basis.elements[i]): k for i, k in e.items()}
    assert exps == {"t - 1": 2, "t": 1}


def test_two_variable_refinement():
    T2 = ("t1", "t2")
    t1 = MultiPoly.var(T2, "t1")
    t2 = MultiPoly.var(T2, "t2")
    basis = coprime_basis([t1 * t2, t1 + t2, t1 * (t1 + t2)])
    assert {str(b) for b in basis.elements} == {"t1", "t1 + t2", "t2"}
    _, e = basis.factor(t1 * (t1 + t2))
    assert sum(e.values()) == 2


poly_lists = st.lists(
    st.builds(
        lambda seed: random_poly(random.Random(seed), T, max_deg=3, max_terms=3),
        st.integers(0, 10_000),
    ).filter(lambda p: not p.is_zero()),
    min_size=1,
    max_size=4,
)


@given(poly_lists)
@settings(max_examples=40, deadline=None)
def test_basis_invariants(polys):
    basis = coprime_basis(polys)
    for b in basis.elements:
        assert b.lead_coeff() == ONE
        assert not b.is_constant()
        # squarefree
        for v in b.vars_used():
            assert poly_gcd(b, b.derivative(v)).is_one()
    for i in range(len(basis.elements)):
        for j in range(i + 1, len(basis.elements)):
            assert poly_gcd(basis.elements[i], basis.elements[j]).is_one()


T2 = ("t1", "t2")

planted_lists = st.lists(
    st.builds(
        lambda seed: random_poly(random.Random(seed), T2, max_deg=2, max_terms=3),
        st.integers(0, 10_000),
    ).filter(lambda p: not p.is_constant()),
    min_size=3,
    max_size=5,
)


def _assert_multiplies_back(basis, p):
    u, e = basis.factor(p)
    prod = MultiPoly.one(p.universe).scale(u)
    for i, k in e.items():
        prod = prod * basis.elements[i] ** k
    assert prod == p


@given(poly_lists, planted_lists)
@settings(max_examples=40, deadline=None)
def test_factor_multiplies_back(polys, planted):
    basis = coprime_basis(polys)
    for p in polys:
        _assert_multiplies_back(basis, p)
    # products of neighbouring planted polynomials, with rising exponents:
    # each input shares a factor with the one before and splits its
    # elements, so the records of earlier inputs must follow the splits
    products = [a * b**k for k, (a, b) in enumerate(zip(planted, planted[1:]), 1)]
    basis = coprime_basis(products)
    for p in products:
        _assert_multiplies_back(basis, p)


@given(poly_lists)
@settings(max_examples=25, deadline=None)
def test_factor_products_of_inputs(polys):
    # products of registered inputs factor too
    basis = coprime_basis(polys)
    p = polys[0]
    for q in polys[1:]:
        p = p * q
    _assert_multiplies_back(basis, p)
