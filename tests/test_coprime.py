"""GCD-free basis refinement and factoring over it."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq import cli, coprime
from dilogeq.coprime import CoprimeBasis
from dilogeq.formal import FormalSum, five_term
from dilogeq.poly import MultiPoly, poly_gcd
from dilogeq.ratfunc import RationalFunction
from dilogeq.scalars import I, ONE, fe
from dilogeq.wedge import WedgeElement, boundary

from helpers import random_expression, random_poly, to_sympy


T = ("t",)


def t():
    return MultiPoly.var(T, "t")


def c(n):
    return MultiPoly.const(T, fe(n))


def coprime_basis(inputs) -> CoprimeBasis:
    """The frozen basis refining every input."""
    basis = CoprimeBasis()
    for p in inputs:
        basis.add(p)
    basis.freeze()
    return basis


def test_basis_example():
    # the refinement is minimal: t and t+1 are never separated because no
    # input tells them apart, so {t^3-t, t^2+t} yields {t-1, t^2+t}
    basis = coprime_basis([t() ** 3 - t(), t() ** 2 + t()])
    assert {str(b) for b in basis.elements} == {"t - 1", "t^2 + t"}
    u, e = basis.factor(t() ** 3 - t())
    assert u == ONE
    exps = {str(b): k for b, k in e.items()}
    assert exps == {"t - 1": 1, "t^2 + t": 1}
    # adding t as an input forces the full split
    fine = coprime_basis([t() ** 3 - t(), t() ** 2 + t(), t()])
    assert {str(b) for b in fine.elements} == {"t", "t - 1", "t + 1"}
    u2, e2 = fine.factor(t() ** 2 + t())
    exps2 = {str(b): k for b, k in e2.items()}
    assert exps2 == {"t": 1, "t + 1": 1}


def _multiplied_back(unit, exps, universe) -> MultiPoly:
    out = MultiPoly.one(universe).scale(unit)
    for b, k in exps.items():
        out = out * b**k
    return out


def test_factor_means_the_same_whatever_was_read_before(monkeypatch, tmp_path, capsys):
    # the basis of (t^3 - t, t^2 + t) is found as t^2 + t, t - 1, which is
    # not the sort_key order; factoring before any read that shows an
    # order, after every such read, and after reading the elements gives
    # one result, keyed by the elements themselves
    f, g = (RationalFunction.from_poly(q) for q in (t() ** 3 - t(), t() ** 2 + t()))
    w = WedgeElement([(1, f, g)])
    basis = w.basis
    found = list(basis.elements)
    assert [str(b) for b in found] == ["t^2 + t", "t - 1"]
    p = (t() ** 2 + t()) ** 2 * (t() - c(1))
    results = [basis.factor(p)]
    assert w.pairs and w.decompose()[0]
    assert [str(b) for b in w.sorted_basis()] == ["t - 1", "t^2 + t"]
    # cli wedge of a document whose boundary is w
    monkeypatch.setattr(cli, "boundary", lambda alpha: w)
    doc = tmp_path / "doc.txt"
    doc.write_text("dilog-identity v1\nvariables: t\nterm: 1 [t]\n")
    assert cli.main(["wedge", str(doc), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == ["t - 1", "t^2 + t"]
    results.append(basis.factor(p))
    assert basis.elements == found
    results.append(basis.factor(p))
    assert results == [(ONE, {t() ** 2 + t(): 2, t() - c(1): 1})] * 3
    for unit, exps in results:
        assert _multiplied_back(unit, exps, T) == p


def test_freeze_keeps_the_order_found():
    basis = CoprimeBasis()
    for p in (t() ** 3 - t(), t() ** 2 + t()):
        basis.add(p)
    found = list(basis.elements)
    basis.freeze()
    assert basis.elements == found == [t() ** 2 + t(), t() - c(1)]


@pytest.mark.parametrize("multiplicity", [0, -1])
def test_a_factor_map_needs_positive_multiplicities(multiplicity):
    # both maps pass the degree check: {t: 1, t - 1: 0} and {t: 2, t - 1: -1}
    basis = CoprimeBasis()
    factors = {t(): 1 - multiplicity, t() - c(1): multiplicity}
    with pytest.raises(ValueError, match=r"the factor t - 1 has multiplicity"):
        basis.add(t(), factors)
    assert basis.elements == [] and basis._records == {} and basis._inputs == {}
    basis.add(t(), {t(): 1})
    basis.freeze()
    assert basis.elements == [t()]


def test_factor_with_unit():
    basis = coprime_basis([t() ** 2 - c(1)])
    u, e = basis.factor((t() ** 2 - c(1)).scale(fe(-6)))
    assert u == fe(-6)


def test_factor_rf():
    basis = coprime_basis([t() ** 3 - t(), t() ** 2 + t()])
    f = RationalFunction(t() ** 3 - t(), t() ** 2 + t())
    u, e = basis.factor_rf(f)
    assert u == ONE
    named = {str(b): k for b, k in e.items()}
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
    basis = CoprimeBasis()
    basis.add(t())
    with pytest.raises(RuntimeError):
        basis.factor(t())


def test_registered_factor_is_a_lookup(monkeypatch):
    # exponents are recorded while refining, so factoring a registered
    # polynomial, or one equal to it up to a unit, divides nothing
    T2 = ("x", "y")
    x, y = MultiPoly.var(T2, "x"), MultiPoly.var(T2, "y")
    one = MultiPoly.one(T2)
    inputs = [x * (x + y), (x + y) * (y - one) ** 2, y * (x * y + one), x - y]
    basis = CoprimeBasis()
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
    basis = CoprimeBasis()
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
    exps = {str(b): k for b, k in e.items()}
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
    assert set(e) <= set(basis.elements)
    assert _multiplied_back(u, e, p.universe) == p


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


# -- sympy as an oracle for the whole basis ----------------------------------------


def expected_basis(inputs, gaussian):
    """{signature: monic product} from sympy's irreducible factors, where an
    irreducible's signature is its exponent in each input in turn; every
    correct refinement ends at this basis."""
    import sympy as sp

    gens = sp.symbols(inputs[0].universe)
    signatures = {}
    for j, p in enumerate(inputs):
        _, factors = sp.factor_list(to_sympy(p).as_expr(), *gens, gaussian=gaussian)
        for f, k in factors:
            f = sp.Poly(f, *gens, domain=sp.QQ_I).monic()
            signatures.setdefault(f, [0] * len(inputs))[j] += k
    groups = {}
    for f, sig in signatures.items():
        groups[tuple(sig)] = groups.get(tuple(sig), 1) * f
    return groups


def assert_matches_sympy(inputs, gaussian):
    basis = coprime_basis(inputs)
    groups = expected_basis(inputs, gaussian)
    elements = [to_sympy(b) for b in basis.elements]
    assert sorted(map(str, elements)) == sorted(str(g) for g in groups.values())
    for j, p in enumerate(inputs):
        _, record = basis.factor(p)
        assert {to_sympy(b): k for b, k in record.items()} == {
            g: sig[j] for sig, g in groups.items() if sig[j]
        }


XY = ("x", "y")
X, Y = MultiPoly.var(XY, "x"), MultiPoly.var(XY, "y")
ONE_XY = MultiPoly.one(XY)
IXY = MultiPoly.const(XY, I)

ORACLE_CASES = {
    # every part meets its elements by exact division: no gcd runs
    "divide": (False, [X + Y, X, X * (X + Y) ** 2 * (X - ONE_XY), Y**2 * (X - ONE_XY)], 0),
    # elements x^2 - x and (x + y)^2 y^3 are split by later inputs
    "split": (
        False,
        [X**2 * (X - ONE_XY) ** 2, (X + Y) ** 2 * Y**3, X * (X + Y), Y * (X * Y + ONE_XY)],
        None,
    ),
    "gaussian": (
        True,
        [
            X**2 * (X * X + ONE_XY),
            (X - IXY) ** 3 * Y,
            Y**2 * (Y + IXY * X) * (X + IXY),
            (Y + IXY * X) * X,
        ],
        None,
    ),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_basis_matches_sympy(case, monkeypatch):
    gaussian, inputs, gcds = ORACLE_CASES[case]
    calls = []
    gcd = coprime.poly_gcd
    monkeypatch.setattr(coprime, "poly_gcd", lambda p, q: calls.append(p) or gcd(p, q))
    assert_matches_sympy(inputs, gaussian)
    if gcds is None:
        assert calls, "the gcd fallback should split an element"
    else:
        assert len(calls) == gcds


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_basis_of_shared_factors_matches_sympy(gaussian, seed):
    # inputs are products of a few shared factors and monomials
    rnd = random.Random(seed)
    factors = [X, Y] + [
        random_poly(rnd, XY, max_deg=1, max_terms=3, gaussian=gaussian) for _ in range(4)
    ]
    factors = [f for f in factors if not f.is_constant()]
    inputs = []
    for _ in range(5):
        p = MultiPoly.const(XY, fe(rnd.choice([1, -2, 3])))
        for f in rnd.sample(factors, 3):
            p = p * f ** rnd.randint(1, 3)
        inputs.append(p)
    assert_matches_sympy(inputs, gaussian)


# -- inputs registered with the factors they were built from -----------------


def test_factors_are_merged_back_by_signature():
    # (x+1)(x+2) given as two factors is one element: no input holds one
    # factor without the other
    x1, x2 = X + ONE_XY, X + ONE_XY.scale(fe(2))
    basis = CoprimeBasis()
    basis.add((x1 * x2).scale(fe(3)), {x1: 1, x2: 1})
    basis.add((x1 * x2) ** 2 * Y, {x1: 2, x2: 2, Y: 1})
    basis.freeze()
    whole = coprime_basis([x1 * x2, (x1 * x2) ** 2 * Y])
    assert sorted(basis.elements, key=MultiPoly.sort_key) == sorted(
        whole.elements, key=MultiPoly.sort_key
    ) == sorted([x1 * x2, Y], key=MultiPoly.sort_key)
    assert basis.factor(x1 * x2) == (ONE, {x1 * x2: 1})


def test_a_power_is_refined_as_its_base(monkeypatch):
    # the argument (t+1)^50 reaches the basis as {t+1: 50}, so no
    # squarefree split sees the power itself
    seen = []
    split = coprime.squarefree_parts
    monkeypatch.setattr(coprime, "squarefree_parts", lambda p: seen.append(p) or split(p))
    one = RationalFunction.const(T, ONE)
    w = boundary(FormalSum.single((RationalFunction.var(T, "t") + one) ** 50))
    assert t() + c(1) in seen and (t() + c(1)) ** 50 not in seen
    assert t() + c(1) in w.basis.elements


def test_factors_that_do_not_multiply_to_the_input_are_rejected():
    basis = CoprimeBasis()
    with pytest.raises(ValueError):
        basis.add(X * (X + ONE_XY), {X: 1})


def _rebuilt(alpha: FormalSum) -> FormalSum:
    """alpha with every argument rebuilt whole, forgetting its factors."""
    terms = {RationalFunction(f.num, f.den): c for f, c in alpha.terms.items()}
    return FormalSum(alpha.universe, terms, alpha.field_mode, alpha.coeff_mode)


def _assert_basis_ignores_factors(alpha: FormalSum):
    built, whole = boundary(alpha), boundary(_rebuilt(alpha))
    assert built.sorted_basis() == whole.sorted_basis()
    assert built.pairs == whole.pairs


def _factored(alpha: FormalSum) -> bool:
    return any(
        len(fac) > 1 or 1 not in fac.values()
        for f in alpha.terms
        for fac in (f.num_factors, f.den_factors)
    )


def _xy_sums():
    x, y = RationalFunction.var(XY, "x"), RationalFunction.var(XY, "y")
    one = RationalFunction.const(XY, ONE)
    pair = (x + one) * (x + RationalFunction.const(XY, fe(2)))  # never occurs alone
    cancelled = (x * (x + one)) / x
    return {
        "product-only": FormalSum(XY, {pair: 1, pair**2 * y / (x - one): -2, y / pair: 1}),
        "cancelling-quotient": FormalSum(XY, {cancelled: 1, pair / cancelled**2: 1, y * pair: 3}),
        "five-term": five_term(pair / y, (x - y) ** 2 / (x * cancelled)),
    }


@pytest.mark.parametrize("case", ["product-only", "cancelling-quotient", "five-term"])
def test_boundary_basis_ignores_how_arguments_were_built(case):
    alpha = _xy_sums()[case]
    assert _factored(alpha)
    _assert_basis_ignores_factors(alpha)


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=4), st.integers(1, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_boundary_basis_ignores_how_random_arguments_were_built(seeds, nvars, gaussian):
    universe = ("x", "y", "z")[:nvars]
    terms = {}
    for k, seed in enumerate(seeds):
        f = random_expression(random.Random(seed), universe, gaussian, depth=3)
        if not (f.is_zero() or f.is_one()):
            terms[f] = terms.get(f, 0) + (-1) ** k * (k + 1)
    alpha = FormalSum(universe, terms, "Qi" if gaussian else "Q")
    _assert_basis_ignores_factors(alpha)
