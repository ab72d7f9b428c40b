"""The modular-image test in front of the exact gcd: sympy as an oracle,
pinned cases where the images must not decide, and the exact path alone."""

import gc
import importlib.util
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import dilogeq
from dilogeq import coprime, poly, primes
from dilogeq.poly import MultiPoly, poly_gcd, squarefree_parts
from dilogeq.scalars import I, fe

from helpers import random_poly, to_sympy

P = poly._P
UNIVERSES = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


def sympy_parts(p: MultiPoly, gaussian: bool) -> dict:
    """{k: monic product of the irreducible factors of multiplicity k}."""
    gens = sp.symbols(p.universe)
    _, factors = sp.factor_list(to_sympy(p).as_expr(), *gens, gaussian=gaussian)
    parts = {}
    for f, k in factors:
        parts[k] = parts.get(k, 1) * f
    return {k: sp.Poly(f, *gens, domain=sp.QQ_I).monic() for k, f in parts.items()}


def parts_dict(p: MultiPoly) -> dict:
    return {k: to_sympy(g).monic() for g, k in squarefree_parts(p)}


def draw_polys(nvars, gaussian, seed, count, max_deg=2):
    rnd = random.Random(seed)
    universe = UNIVERSES[nvars]
    out = []
    for _ in range(count):
        p = random_poly(rnd, universe, max_deg=max_deg, max_terms=3, gaussian=gaussian)
        out.append(p.scale(fe(Fraction(rnd.choice([1, 2, -3]), rnd.choice([1, 5, 7])))))
    return out


# -- oracle ------------------------------------------------------------------------


@given(st.integers(1, 3), st.booleans(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_gcd_matches_sympy(nvars, gaussian, seed):
    d, a, b = draw_polys(nvars, gaussian, seed, 3)
    for p, q in ((a, b), (d * a, d * b)):
        expected = sp.gcd(to_sympy(p), to_sympy(q)).monic()
        assert to_sympy(poly_gcd(p, q)).monic() == expected


@given(
    st.integers(1, 3), st.booleans(), st.integers(0, 10**6), st.integers(0, 3), st.integers(0, 3)
)
@settings(max_examples=30, deadline=None)
def test_squarefree_parts_match_sympy(nvars, gaussian, seed, ex, ey):
    # sympy's factorization over Q(i) grows slow with the degree in three
    # variables, so those inputs stay small
    [a] = draw_polys(nvars, gaussian, seed, 1, max_deg=1 if nvars == 3 else 2)
    b, c = draw_polys(nvars, gaussian, seed + 1, 2, max_deg=1)
    # monomial content x^ex * y^ey, or x^ex in one variable
    mono = MultiPoly(UNIVERSES[nvars], {(ex, ey, 0)[:nvars]: fe(1)})
    for p in (a * b, a * b**2, b * c**3):
        p = p * mono
        if not p.is_constant():
            assert parts_dict(p) == sympy_parts(p, gaussian)


# -- pinned cases ------------------------------------------------------------------


X = MultiPoly.var(("x",), "x")


def cx(c):
    return MultiPoly.const(("x",), fe(c) if isinstance(c, int) else c)


def test_the_prime_and_the_image_of_i():
    assert sp.isprime(P) and P % 4 == 1 and P < 2**61
    assert poly._I_IMAGE**2 % P == P - 1


def test_denominator_p_takes_the_exact_path():
    d = X + cx(fe(Fraction(1, P)))
    assert poly_gcd(d * (X - cx(2)), d * (X + cx(3))) == d
    assert poly_gcd(d, X + cx(2)).is_one()
    assert parts_dict(d**2 * (X + cx(1))) == {1: to_sympy(X + cx(1)), 2: to_sympy(d)}
    # P x + 1 is integral, but its image drops to the constant 1
    e = X.scale(fe(P)) + cx(1)
    assert poly_gcd(e * (X - cx(2)), e * (X + cx(3))) == d


def test_lead_coefficients_vanishing_at_the_point():
    u = ("x", "y")
    x, y = MultiPoly.var(u, "x"), MultiPoly.var(u, "y")
    rx, ry = (MultiPoly.const(u, fe(poly._residue(k))) for k in (0, 1))
    # d's images in x and in y are both the constant 1; a and b are coprime
    d = (x - rx) * (y - ry) + MultiPoly.one(u)
    a, b = x + MultiPoly.const(u, fe(2)), x * x + MultiPoly.const(u, fe(3))
    assert poly_gcd(d * a, d * b) == d.primitive_monic()[1]
    parts = squarefree_parts(d**2 * a)
    assert {k: g for g, k in parts} == {1: a, 2: d.primitive_monic()[1]}


def test_x_and_x_minus_p_are_coprime():
    # coprime over Q, while both images vanish at 0
    assert poly_gcd(X, X - cx(P)).is_one()
    assert parts_dict(X * (X - cx(P))) == {1: to_sympy(X * (X - cx(P)))}


def test_gaussian_linear_factors():
    xi = X - cx(I)
    assert poly_gcd(xi, X * X + cx(1)) == xi
    assert poly_gcd(xi, X + cx(I)).is_one()
    assert poly._images_coprime(xi, X + cx(I))
    assert parts_dict(xi**2 * (X + cx(I))) == {1: to_sympy(X + cx(I)), 2: to_sympy(xi)}


def test_ten_variables():
    u = tuple(f"x{k}" for k in range(10))
    v = {name: MultiPoly.var(u, name) for name in u}
    one = MultiPoly.one(u)
    d = v["x0"] + v["x9"] * v["x4"]
    a, b = v["x3"] - one.scale(fe(2)), v["x5"] + v["x9"] * v["x1"]
    assert poly_gcd(d * a, d * b) == d
    assert poly_gcd(a, b).is_one()
    assert {k: g for g, k in squarefree_parts(d**2 * b)} == {1: b, 2: d}


def test_monomial_content():
    u = tuple(f"x{k}" for k in range(10))
    x, y = MultiPoly.var(u, "x0"), MultiPoly.var(u, "x7")
    one = MultiPoly.one(u)
    for p, parts in (
        (x * x, [(x, 2)]),
        (x * x * y * y * (x + y), [(x + y, 1), (x * y, 2)]),
        (x * y**3 * (x + one) ** 2, [(x, 1), (x + one, 2), (y, 3)]),
        ((x * y + one) * y**2, [(x * y + one, 1), (y, 2)]),
    ):
        assert squarefree_parts(p.scale(fe(-3))) == parts
    z = X - cx(I)
    assert squarefree_parts((X**3 * z**2 * (X + cx(I))).scale(I)) == [
        (X + cx(I), 1),
        (z, 2),
        (X, 3),
    ]


def test_a_power_of_a_variable_needs_no_gcd(monkeypatch):
    calls = []
    monkeypatch.setattr(poly, "poly_gcd", lambda p, q: calls.append((p, q)))
    t = MultiPoly.var(("t",), "t")
    assert squarefree_parts(t**10000) == [(t, 10000)]
    u = ("x", "y")
    x, y = MultiPoly.var(u, "x"), MultiPoly.var(u, "y")
    assert squarefree_parts(x**5 * y**2) == [(y, 2), (x, 5)]
    assert calls == []


def test_square_seen_only_in_its_own_variable():
    u = ("x", "y")
    x, y = MultiPoly.var(u, "x"), MultiPoly.var(u, "y")
    d, q = y - MultiPoly.const(u, fe(2)), x + y
    # the image in x is squarefree; only the image in y shows d^2
    assert poly._images_squarefree(q)
    assert not poly._images_squarefree(d * d * q)
    assert {k: g for g, k in squarefree_parts(d * d * q)} == {1: q, 2: d}


def test_a_squarefree_input_is_returned_as_it_is():
    u = ("x", "y")
    x, y = MultiPoly.var(u, "x"), MultiPoly.var(u, "y")
    one = MultiPoly.one(u)
    for p in (x * y * (x + y + one), x * y):
        parts = squarefree_parts(p)
        assert len(parts) == 1 and parts[0][0] is p and parts[0][1] == 1
    assert squarefree_parts(x * x * (y + one)) == [(y + one, 1), (x, 2)]


# -- shared and carried images -------------------------------------------------------


def _same_images(a: poly._Images, b: poly._Images) -> bool:
    return a.images == b.images and a.decisive == b.decisive


_REDUCE = poly._reduce_mod_p


def _slot(p: MultiPoly) -> int:
    """The hash slot of p's value in the intern table."""
    return hash((p.universe, frozenset(p.terms.items())))


def test_equal_polynomials_built_apart_are_one_object_with_one_reduction(monkeypatch):
    u = ("x", "y")
    x, y = MultiPoly.var(u, "x"), MultiPoly.var(u, "y")
    one = MultiPoly.one(u)
    p, q = x * y + x * x + one.scale(fe(11)), (x + y) * x + one.scale(fe(11))
    assert p is q
    fresh = p._images is None
    reduced = []
    monkeypatch.setattr(poly, "_reduce_mod_p", lambda f: reduced.append(f) or _REDUCE(f))
    p._modular_images()
    q._modular_images()
    assert len(reduced) == fresh


def test_a_value_nothing_holds_leaves_the_table_and_reduces_afresh(monkeypatch):
    p = X**7 + cx(fe(Fraction(123457, 3)))
    p._modular_images()
    ref, h = weakref.ref(p), _slot(p)
    assert poly._INTERNED[h]() is p
    del p
    gc.collect()
    assert ref() is None and h not in poly._INTERNED
    reduced = []
    monkeypatch.setattr(poly, "_reduce_mod_p", lambda f: reduced.append(f) or _REDUCE(f))
    q = X**7 + cx(fe(Fraction(123457, 3)))
    assert q._images is None and poly._INTERNED[h]() is q
    assert _same_images(q._modular_images(), _REDUCE(q)) and reduced == [q]


def test_a_hash_collision_goes_to_the_overflow(monkeypatch):
    u = ("x", "y")
    terms = {(3, 1): fe(5), (1, 0): fe(Fraction(-2, 9)), (0, 0): fe(1, 13)}
    key = (u, frozenset(terms.items()))
    seeded = MultiPoly(u, {(1, 4): fe(17), (0, 2): fe(3)})
    before = (seeded.universe, dict(seeded.terms))
    # the slot of v's hash holds another live polynomial
    monkeypatch.setitem(poly._INTERNED, hash(key), weakref.ref(seeded))
    monkeypatch.setattr(poly, "_OVERFLOW", weakref.WeakValueDictionary())
    v = MultiPoly(u, terms)
    assert MultiPoly(u, dict(reversed(terms.items()))) is v and v is not seeded
    assert dict(poly._OVERFLOW) == {key: v}
    assert poly._INTERNED[hash(key)]() is seeded
    assert (seeded.universe, seeded.terms) == before
    # with the slot free, the lookup still finds v in the overflow
    monkeypatch.delitem(poly._INTERNED, hash(key))
    assert MultiPoly(u, terms) is v and hash(key) not in poly._INTERNED


@given(
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 10**6),
    st.sampled_from([fe(3), fe(Fraction(-2, 7)), I, fe(P), fe(Fraction(1, P)), fe(P + 1)]),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_shared_images_are_the_reduced_ones(nvars, gaussian, seed, unit, denominator_p):
    # each derived polynomial takes the images of an equal live one, or
    # reduces afresh; the units include residues 0 (P) and none (1/P), and a
    # coefficient with denominator P makes every image unusable
    [p] = draw_polys(nvars, gaussian, seed, 1)
    if p.is_constant():
        return
    if denominator_p:
        p = p + MultiPoly.const(p.universe, fe(Fraction(1, P)))
    p._modular_images()
    copy = MultiPoly(p.universe, dict(p.terms))
    for q in (copy, p.scale(unit), -p, p.primitive_monic()[1], copy.scale(unit).primitive_monic()[1]):
        assert _same_images(q._modular_images(), poly._reduce_mod_p(q))


# -- soundness of the image certificates ---------------------------------------------


def _free_of(p: MultiPoly, k: int) -> MultiPoly:
    """p with x_k set to 1."""
    out = MultiPoly.zero(p.universe)
    for e, c in p.terms.items():
        e = tuple(0 if i == k else x for i, x in enumerate(e))
        out = out + MultiPoly(p.universe, {e: c})
    return out


@given(
    st.sampled_from([2, 3]),
    st.booleans(),
    st.integers(0, 10**6),
    st.sampled_from([None, 0, 1]),
)
@settings(max_examples=150, deadline=None)
def test_images_never_certify_a_shared_or_repeated_factor(nvars, gaussian, seed, free):
    # d may be free of one variable: then x_k-primitivity of d*a in that
    # variable must not be claimed from a lone x_k^j or constant term
    rnd = random.Random(seed)
    universe = UNIVERSES[nvars]
    d = MultiPoly.zero(universe)
    while d.is_constant():
        d = random_poly(rnd, universe, max_deg=2, max_terms=3, gaussian=gaussian)
        if free is not None:
            d = _free_of(d, free)
    a, b = (random_poly(rnd, universe, max_deg=2, max_terms=3, gaussian=gaussian) for _ in "ab")
    assert not poly._images_squarefree(d * d * a)
    # either side may be the basis scan's element or its part
    for p, q in ((d * a, d * b), (d * b, d), (d, d * a)):
        assert not poly._images_coprime(p, q)
        assert not poly._images_coprime(q, p)
    if poly._images_coprime(a, b):
        assert poly_gcd(a, b).is_constant()
        assert sp.gcd(to_sympy(a), to_sympy(b)).is_ground


def test_a_lone_power_and_a_constant_term_do_not_make_a_factor_primitive():
    u = ("x", "y")
    x, y = MultiPoly.var(u, "x"), MultiPoly.var(u, "y")
    one = MultiPoly.one(u)
    d = y + one.scale(fe(2))
    # (y + 2)*(x + 1) has the terms x and 2 of degree 1 and 0 in x, each
    # beside another term of that degree
    p, q = d * (x + one), d * (x + one.scale(fe(3)))
    assert poly._reduce_mod_p(p).decisive is None
    assert not poly._images_coprime(p, q)
    assert not poly._images_squarefree(d * p)
    assert poly_gcd(p, q) == d
    # x + y*x^2 + 1 is x-primitive: x is alone in degree 1
    assert poly._reduce_mod_p(x + y * x * x + one).decisive == 0


def test_a_linear_image_on_either_side_spares_euclid(monkeypatch):
    u = ("x", "y")
    x, y = MultiPoly.var(u, "x"), MultiPoly.var(u, "y")
    one = MultiPoly.one(u)
    # g decides in x, where its image is quadratic; b decides in y, where
    # both images are linear, so one root test settles the pair
    g = x * x + x * y + one
    b = y + x * x + one.scale(fe(3))
    basis = coprime.CoprimeBasis()
    basis.add(b)
    euclid, calls = poly.gf_gcd, []

    def counted(p, q, prime):
        calls.append((p, q))
        return euclid(p, q, prime)

    monkeypatch.setattr(poly, "gf_gcd", counted)
    basis.add(g)
    # the squarefree test of g's quadratic image in x is one root test
    assert calls == []
    assert basis.elements == [b, g]
    # y + 2 is free of x, but the product is not x-primitive: its terms x
    # and 2 each share their degree in x with another term
    d = y + one.scale(fe(2))
    p = d * (x + one)
    assert not poly._images_coprime(d, p)
    assert not poly._images_coprime(p, d)
    assert poly_gcd(d, p) == d


def _gf_poly(rnd, degree):
    """Coefficients over GF(P) from degree 0 up, with a nonzero leader."""
    return [rnd.randrange(P) for _ in range(degree)] + [rnd.randrange(1, P)]


def _gf_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % P
    return out


def _univariate(coeffs):
    """A polynomial in x over Z whose image is `coeffs`."""
    return MultiPoly(("x",), {(k,): fe(c) for k, c in enumerate(coeffs) if c})


@pytest.mark.parametrize("seed", range(4))
def test_the_root_test_agrees_with_euclid(seed):
    rnd = random.Random(seed)
    x = sp.Symbol("x")
    for degree in range(7):
        for planted in (False, True):
            if planted and not degree:
                continue
            a = _gf_poly(rnd, 1)
            b = _gf_mul(a, _gf_poly(rnd, degree - 1)) if planted else _gf_poly(rnd, degree)
            p, q = _univariate(a), _univariate(b)
            assert poly._reduce_mod_p(p).images == {0: a}
            gcd = sp.gcd(sp.Poly(a[::-1], x, modulus=P), sp.Poly(b[::-1], x, modulus=P))
            coprime = gcd.degree() == 0
            assert coprime != planted
            assert poly._gf_coprime(a, b) == poly._gf_coprime(b, a) == coprime
            assert poly._images_coprime(p, q) == poly._images_coprime(q, p) == coprime


@pytest.mark.parametrize("seed", range(4))
def test_gf_coprime_matches_sympy(seed):
    rnd = random.Random(seed)
    x = sp.Symbol("x")
    for _ in range(40):
        da, db, dc = rnd.randint(1, 6), rnd.randint(1, 6), rnd.randint(0, 3)
        c = _gf_poly(rnd, dc)
        a, b = _gf_mul(c, _gf_poly(rnd, da)), _gf_mul(c, _gf_poly(rnd, db))
        gcd = sp.gcd(sp.Poly(a[::-1], x, modulus=P), sp.Poly(b[::-1], x, modulus=P))
        assert gcd.degree() >= dc
        assert poly._gf_coprime(a, b) == poly._gf_coprime(b, a) == (gcd.degree() == 0)


# -- the one-digit prime and the closed forms -----------------------------------------


def test_the_prime_is_one_digit_with_a_cube_root_of_one_and_a_square_root_of_minus_one():
    assert primes.is_prime(P) and P % 12 == 1 and P < 2**30
    assert poly._I_IMAGE**2 % P == P - 1


def _gf_coefficient(rnd):
    """A residue that is often 0, 1 or -1, so that sparse images come up."""
    return rnd.choice([0, 1, P - 1, rnd.randrange(P), rnd.randrange(P)])


def _gf_draw(rnd, degree):
    """Coefficients over GF(P) from degree 0 up, with a nonzero leader."""
    return [_gf_coefficient(rnd) for _ in range(degree)] + [rnd.randrange(1, P)]


def _euclid_coprime(a, b):
    return len(poly.gf_gcd(a, b, P)) == 1


SHAPES = [(1, 1), (1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 3)]


@given(st.integers(0, 10**9), st.sampled_from(SHAPES), st.booleans())
@settings(max_examples=300, deadline=None)
def test_each_closed_form_agrees_with_euclid(seed, shape, planted):
    # a planted common linear factor makes each form vanish
    rnd = random.Random(seed)
    da, db = shape
    if planted:
        root = _gf_draw(rnd, 1)
        a, b = (_gf_mul(root, _gf_draw(rnd, d - 1)) if d > 1 else root for d in (da, db))
        if da == db == 1:
            b = _gf_mul(root, [rnd.randrange(1, P)])
    else:
        a, b = _gf_draw(rnd, da), _gf_draw(rnd, db)
    expected = _euclid_coprime(a, b)
    assert not (planted and expected)
    assert poly._gf_coprime(a, b) == poly._gf_coprime(b, a) == expected


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=200, deadline=None)
def test_the_discriminant_agrees_with_euclid(seed, double_root):
    rnd = random.Random(seed)
    if double_root:
        root = _gf_draw(rnd, 1)
        c = _gf_mul(_gf_mul(root, root), [rnd.randrange(1, P)])
    else:
        c = _gf_draw(rnd, 2)
    derivative = [k * x % P for k, x in enumerate(c)][1:]
    expected = _euclid_coprime(c, derivative)
    assert not (double_root and expected)
    assert poly._gf_squarefree(c) == expected


def test_images_of_degree_at_most_two_never_run_euclid(monkeypatch):
    euclid, calls = poly.gf_gcd, []

    def counted(a, b, p):
        calls.append((a, b))
        return euclid(a, b, p)

    monkeypatch.setattr(poly, "gf_gcd", counted)
    # every exponent is at most 2, so every image has degree at most 2
    tested = 0
    for seed in range(60):
        nvars, gaussian = seed % 3 + 1, seed % 2 == 0
        d, a, b = draw_polys(nvars, gaussian, seed, 3)
        for p in (a, b, d):
            if not p.is_constant():
                poly._images_squarefree(p)
        for p, q in ((a, b), (d, a), (d, b)):
            if not (p.is_constant() or q.is_constant()):
                poly._images_coprime(p, q)
                poly._images_coprime(q, p)
                tested += 1
    assert tested > 100 and calls == []
    # a cubic image does reach Euclid
    cubic = X**3 + X + cx(1)
    assert poly._images_squarefree(cubic)
    assert calls


def test_inputs_that_agree_modulo_the_prime_stay_apart():
    # x + 1 and x + 1 + P share their image, which cannot certify them
    a, b = X + cx(1), X + cx(1 + P)
    assert poly._reduce_mod_p(a).images == poly._reduce_mod_p(b).images
    assert not poly._images_coprime(a, b)
    assert sp.gcd(to_sympy(a), to_sympy(b)).is_ground
    assert poly_gcd(a, b).is_one()
    basis = coprime.CoprimeBasis()
    basis.add(a)
    basis.add(b)
    assert basis.elements == [a, b]


def test_a_five_term_relation_at_t_over_the_prime_stays_constant():
    # the arguments' factors t, t - P and t + P share one image, and 1/P
    # has no residue at all
    t = dilogeq.RationalFunction.var(("t",), "t")
    over_p = dilogeq.RationalFunction.const(("t",), fe(Fraction(1, P)))
    shifted = t + dilogeq.RationalFunction.const(("t",), fe(P))
    relation = dilogeq.five_term(t * over_p, shifted)
    assert dilogeq.check_constant(relation).is_constant()
    assert not dilogeq.check_constant(relation + dilogeq.FormalSum.single(shifted)).is_constant()


# -- the exact path alone ----------------------------------------------------------


def _relation_sums(seed, count):
    """The relation-sum benchmark's inputs (bench/inputs.py imports nothing
    from the package, so a seed gives the same sums at every commit)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs
    spec.loader.exec_module(inputs)
    universe = inputs.RELATION_VARS

    def ratfunc(f):
        num, den = (MultiPoly(universe, {e: fe(c) for e, c in p}) for p in f)
        return dilogeq.RationalFunction(num, den)

    sums = []
    for gens in inputs.relation_sum_specs(seed, count):
        total = dilogeq.FormalSum.zero(universe)
        for coeff, x, y in gens:
            total = total + dilogeq.five_term(ratfunc(x), ratfunc(y)).scale(coeff)
        sums.append(total)
    return sums


def _bases_and_pairs(sums):
    # a Constant certificate carries no basis, so compare the boundaries
    return [(w.basis.elements, w.pairs) for w in map(dilogeq.boundary, sums)]


def test_relation_sums_without_images(monkeypatch):
    with_images = _bases_and_pairs(_relation_sums(1, 10))
    scanned = []

    def unknown(p, q):
        scanned.append((p, q))
        return False

    # the basis scan, poly_gcd and squarefree_parts each ask the images
    # first; the scan reads the pair test by its own import
    monkeypatch.setattr(poly, "_images_coprime", lambda p, q: False)
    monkeypatch.setattr(coprime, "_images_coprime", unknown)
    monkeypatch.setattr(poly, "_images_squarefree", lambda p: False)
    assert _bases_and_pairs(_relation_sums(1, 10)) == with_images
    assert scanned
