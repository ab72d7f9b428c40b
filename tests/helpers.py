"""Helpers shared by the test modules: builders and views the package itself
does not need, and deterministic random generators.

Every generator takes an explicit random.Random so failures reproduce from
the seed alone.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

from dilogeq.formal import FormalSum, five_term, inversion
from dilogeq.intmat import HermiteForm
from dilogeq.padic import EXACT, PadicNumber
from dilogeq.poly import MultiPoly, poly_gcd
from dilogeq.ratfunc import RationalFunction, ZeroDenominator
from dilogeq.scalars import I, FieldElement, fe
from dilogeq.wedge import BASIS, WedgeElement


ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def moved_report_digests() -> tuple:
    """(part, name) of each seed-1 digest of `tests/report_record.json` that
    `scripts/record_reports.py` records differently on this checkout, a
    missing or new entry included.  The record is made once a session and
    read by each test that checks a part of it."""
    scripts = str(ROOT / "scripts")
    sys.path.insert(0, scripts)
    try:
        from record_reports import RECORD, record
    finally:
        sys.path.remove(scripts)
    old, new = json.loads(RECORD.read_text())["1"], record(1)
    return tuple(
        (part, name)
        for part in new
        for name in sorted(old[part].keys() | new[part].keys())
        if old[part].get(name) != new[part].get(name)
    )


def fresh(code: str, *args: str):
    """Run `code` with `args` in a fresh interpreter that has the package
    on `PYTHONPATH`, as a one-shot command starts, and return the last line
    it prints, read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        env=env,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# -- builders and views the package itself does not need ---------------------


def rf(universe, num, den=None) -> RationalFunction:
    """Rational function from ints, Fractions, scalars or polys."""
    def to_poly(x):
        if isinstance(x, MultiPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return MultiPoly.const(universe, fe(x))
        if isinstance(x, FieldElement):
            return MultiPoly.const(universe, x)
        raise TypeError(f"cannot coerce {x!r} to a polynomial")

    n = to_poly(num)
    d = MultiPoly.one(universe) if den is None else to_poly(den)
    return RationalFunction(n, d)


def gcd_many(polys) -> MultiPoly:
    it = iter(polys)
    try:
        g = next(it)
    except StopIteration:
        raise ValueError("gcd of an empty collection")
    g = g.primitive_monic()[1]
    for p in it:
        if g.is_one():
            break
        g = poly_gcd(g, p)
    return g


def shift_var(p: MultiPoly, var: str, k: int) -> MultiPoly:
    """p times var**k (k >= 0)."""
    idx = p.universe.index(var)
    return MultiPoly(
        p.universe,
        {
            tuple(x + k if i == idx else x for i, x in enumerate(e)): c
            for e, c in p.terms.items()
        },
    )


def to_sympy(p: MultiPoly):
    """p as a sympy Poly over QQ_I in p's universe (sympy is a test extra,
    so it is imported here, not at module level)."""
    import sympy as sp

    rep = {
        e: sp.Rational(c.re.numerator, c.re.denominator)
        + sp.I * sp.Rational(imag(c).numerator, imag(c).denominator)
        for e, c in p.terms.items()
    }
    return sp.Poly.from_dict(rep, sp.symbols(p.universe), domain=sp.QQ_I)


def coefficients(coeff_mode: str):
    """A hypothesis strategy drawing a coefficient of that mode in each of
    its forms: an int, an integral Fraction and, in Q-mode, a Fraction
    with denominator 2 to 4 (integral when it cancels)."""
    from hypothesis import strategies as st

    whole = st.integers(-4, 4)
    forms = [whole, whole.map(Fraction)]
    if coeff_mode == "Q":
        forms.append(st.builds(Fraction, st.integers(-8, 8), st.integers(2, 4)))
    return st.one_of(forms)


def in_one_form(c) -> bool:
    """c is an int, or a Fraction that is not integral: the one form a
    coefficient of the package takes."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def wedge_difference(lhs: WedgeElement, rhs: WedgeElement) -> WedgeElement:
    """lhs - rhs: one element built from lhs's tensors and rhs's negated.
    The arguments of both must share one universe, and the two elements
    their modes."""
    negated = tuple((-a, f, g) for a, f, g in rhs.tensors)
    tensors = lhs.tensors + negated
    universes = {h.num.universe for _, f, g in tensors for h in (f, g)}
    if len(universes) > 1 or (lhs.field_mode, lhs.coeff_mode) != (rhs.field_mode, rhs.coeff_mode):
        raise ValueError("wedge elements live over different settings")
    return WedgeElement(tensors, lhs.field_mode, lhs.coeff_mode)


def beta1_by_index(w: WedgeElement) -> dict[tuple[int, int], Fraction]:
    """The beta1 layer of w keyed by basis indices i < j."""
    return {(x[1], y[1]): v for (x, y), v in w.pairs.items() if x[0] == y[0] == BASIS}


def beta3_is_zero(w: WedgeElement) -> bool:
    """Does w have no pair of two constant atoms (its beta3 layer)?"""
    return not any(w.decompose()[2].values())


def reconstruct(unit_exponent: int, factors, gaussian: bool) -> FieldElement:
    """The constant a factorization (`factor_constant`'s pair) stands for:
    the power of the mode's unit times the prime powers, multiplied back."""
    out = (I if gaussian else fe(-1)) ** unit_exponent
    for p, e in factors:
        out = out * p**e
    return out


def to_mode(s: FormalSum, coeff_mode: str) -> FormalSum:
    """Reinterpret coefficients; Q -> Z requires integer values."""
    return FormalSum(s.universe, dict(s.terms), s.field_mode, coeff_mode)


def imag(c: FieldElement) -> Fraction:
    """The imaginary part of c as a Fraction."""
    return Fraction(c.b, c.d)


def norm(c: FieldElement) -> Fraction:
    """The field norm a^2 + b^2 of c = a + b*i, a rational >= 0."""
    return Fraction(c.a * c.a + c.b * c.b, c.d * c.d)


def is_integer(c: FieldElement) -> bool:
    return not imag(c) and c.re.denominator == 1


def is_gaussian_integer(c: FieldElement) -> bool:
    return c.re.denominator == 1 and imag(c).denominator == 1


def is_zeroish(x: PadicNumber) -> bool:
    return x.unit == 0


def is_exact_zero(x: PadicNumber) -> bool:
    return x.unit == 0 and x.val >= EXACT


def agree_to(x: PadicNumber, y: PadicNumber, abs_digits: int) -> bool:
    """Do x and y agree modulo p^abs_digits (as far as both are known)?"""
    d = x - y
    # for a zeroish difference d.val is its cancellation floor; otherwise it
    # is the exact valuation, and either way agreement means it clears the cap
    return d.val >= min(abs_digits, x.abs_precision(), y.abs_precision())


def teichmuller(a: int, p: int, prec: int) -> PadicNumber:
    """The Teichmueller representative: the p^k-th power limit of a."""
    if a % p == 0:
        raise ValueError("needs a unit residue")
    m = p**prec
    x = a % m
    while True:
        y = pow(x, p, m)
        if y == x:
            break
        x = y
    return PadicNumber(p, 0, x, prec)


def in_row_span(rows: list[list[int]], v, width: int | None = None) -> bool:
    """Is v an integer combination of the rows?"""
    h = HermiteForm(len(v) if width is None else width)
    for r in rows:
        h.insert(r)
    return h.contains(v)


# -- a dense integer elimination, the reference for intmat -------------------


class DenseHermiteForm:
    """The row-style Hermite form with no unit-pivot pass: every row
    operation is dense on the row tail from the pivot column on.  Same
    conventions as `HermiteForm` (positive pivots, entries above a pivot in
    [0, pivot)), so `basis()` agrees row for row."""

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, list[int]] = {}

    def insert(self, row) -> bool:
        row = list(row)
        grew = False
        for c in range(self.width):
            if not row[c]:
                continue
            if c not in self.rows:
                if row[c] < 0:
                    row = [-x for x in row]
                self.rows[c] = row
                self._normalize_above(c)
                return True
            piv = self.rows[c]
            a, b = piv[c], row[c]
            if b % a == 0:
                q = b // a
                row[c:] = [y - q * x for x, y in zip(piv[c:], row[c:])]
                continue
            g, u, v = _xgcd(a, b)
            tail = list(zip(piv[c:], row[c:]))
            row[c:] = [(a // g) * y - (b // g) * x for x, y in tail]
            piv[c:] = [u * x + v * y for x, y in tail]
            self._normalize_above(c)
            # the pivot shrank from a to g, so the lattice grew
            grew = True
        return grew

    def _normalize_above(self, c: int):
        piv = self.rows[c]
        for c2, other in self.rows.items():
            if c2 != c and other[c]:
                q = other[c] // piv[c]
                if q:
                    other[c:] = [a - q * b for a, b in zip(other[c:], piv[c:])]

    def reduce(self, v: list[int], stop: int) -> list[int] | None:
        for c in range(stop):
            if not v[c]:
                continue
            piv = self.rows.get(c)
            if piv is None or v[c] % piv[c]:
                return None
            q = v[c] // piv[c]
            v[c:] = [a - q * b for a, b in zip(v[c:], piv[c:])]
        return v

    def basis(self) -> list[list[int]]:
        for c in sorted(self.rows):
            self._normalize_above(c)
        return [list(self.rows[c]) for c in sorted(self.rows)]

    def contains(self, v) -> bool:
        rest = self.reduce(list(v), self.width)
        return rest is not None and not any(rest)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b == g > 0."""
    if b == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    g, u, v = _xgcd(b, a % b)
    return g, v, u - (a // b) * v


def dense_hnf(rows: list[list[int]], width: int) -> list[list[int]]:
    h = DenseHermiteForm(width)
    for r in rows:
        h.insert(r)
    return h.basis()


def _dense_with_transform(rows: list[list[int]]) -> DenseHermiteForm:
    m, n = len(rows), len(rows[0])
    h = DenseHermiteForm(n + m)
    for i, r in enumerate(rows):
        h.insert(list(r) + [1 if j == i else 0 for j in range(m)])
    return h


def dense_left_kernel(rows: list[list[int]]) -> list[list[int]]:
    n = len(rows[0])
    h = _dense_with_transform(rows)
    return [h.rows[c][n:] for c in sorted(h.rows) if c >= n]


def dense_solve_integer(basis, targets) -> list[list[int] | None]:
    """x with x @ basis == v by reducing [v | 0] against [basis | I]."""
    m, n = len(basis), len(basis[0])
    form = _dense_with_transform(basis)
    out = []
    for v in targets:
        rest = form.reduce(list(v) + [0] * m, n)
        out.append(None if rest is None else [-t for t in rest[n:]])
    return out


def dense_smith(rows: list[list[int]], width: int) -> list[int]:
    """Kannan and Bachem's alternation on the whole matrix, then gcd/lcm
    exchanges into a divisibility chain."""
    a = dense_hnf(rows, width)
    while any(x for i, r in enumerate(a) for j, x in enumerate(r) if i != j):
        a = dense_hnf([list(col) for col in zip(*a)], len(a))
    d = [a[i][i] for i in range(len(a))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def random_coeff(rnd: random.Random, gaussian: bool = False, zero_ok: bool = True) -> FieldElement:
    lo = 0 if zero_ok else 1
    re = rnd.randint(-4, 4)
    im = rnd.randint(-2, 2) if gaussian and rnd.random() < 0.5 else 0
    if not zero_ok and re == 0 and im == 0:
        re = rnd.choice([1, 2, -1, 3])
    return fe(re, im)


def random_poly(
    rnd: random.Random,
    universe: tuple[str, ...],
    max_deg: int = 2,
    max_terms: int = 3,
    gaussian: bool = False,
    nonzero: bool = True,
) -> MultiPoly:
    n = len(universe)
    terms: dict = {}
    for _ in range(rnd.randint(1, max_terms)):
        exp = tuple(rnd.randint(0, max_deg) for _ in range(n))
        c = random_coeff(rnd, gaussian)
        if not c.is_zero():
            terms[exp] = c
    p = MultiPoly(universe, terms)
    if nonzero and p.is_zero():
        return MultiPoly.const(universe, fe(rnd.choice([1, 2, -1])))
    return p


def random_ratfunc(
    rnd: random.Random,
    universe: tuple[str, ...],
    max_deg: int = 2,
    gaussian: bool = False,
) -> RationalFunction:
    num = random_poly(rnd, universe, max_deg, gaussian=gaussian)
    den = random_poly(rnd, universe, max_deg, gaussian=gaussian)
    return RationalFunction(num, den)


def _pool_leaf(rnd: random.Random, universe, gaussian: bool) -> RationalFunction:
    """A constant or a linear polynomial from a small pool, so that the
    expressions built from them share factors and cancel often."""
    one = MultiPoly.one(universe)
    v, w = (MultiPoly.var(universe, rnd.choice(universe)) for _ in range(2))
    pool = [v, v + one, v - w, v.scale(fe(2)) - one, v + w + one.scale(fe(3))]
    consts = [fe(2), fe(-1), fe(Fraction(1, 2))]
    if gaussian:
        pool.append(v.scale(fe(0, 1)) + one)
        consts.append(fe(0, 1))
    if rnd.random() < 0.2:
        return RationalFunction.const(universe, rnd.choice(consts))
    return RationalFunction.from_poly(rnd.choice(pool))


def random_expression(
    rnd: random.Random, universe: tuple[str, ...], gaussian: bool = False, depth: int = 3
) -> RationalFunction:
    """A rational function built by arithmetic, as the parser and the
    relation generators build theirs: products, quotients, powers with
    negative exponents, inverses, 1 - f and sums over pool leaves."""
    if depth == 0 or rnd.random() < 0.2:
        return _pool_leaf(rnd, universe, gaussian)
    op = rnd.choice(("*", "*", "/", "/", "^", "inverse", "1-", "+"))
    f = random_expression(rnd, universe, gaussian, depth - 1)
    try:
        if op == "^":
            return f ** rnd.choice((-2, -1, 0, 2, 3))
        if op == "inverse":
            return f.inverse()
        if op == "1-":
            return f.one_minus()
        g = random_expression(rnd, universe, gaussian, depth - 1)
        return f * g if op == "*" else f / g if op == "/" else f + g
    except ZeroDenominator:
        return f


def random_admissible(
    rnd: random.Random,
    universe: tuple[str, ...],
    max_deg: int = 2,
    gaussian: bool = False,
) -> RationalFunction:
    """A random rational function avoiding the constants 0 and 1."""
    while True:
        f = random_ratfunc(rnd, universe, max_deg, gaussian)
        if not f.is_zero() and not f.is_one():
            return f


def random_formal_sum(
    rnd: random.Random,
    universe: tuple[str, ...],
    n_terms: int = 3,
    max_deg: int = 2,
    field_mode: str = "Q",
    coeff_mode: str = "Z",
) -> FormalSum:
    gaussian = field_mode == "Qi"
    total = FormalSum.zero(universe, field_mode, coeff_mode)
    for _ in range(n_terms):
        f = random_admissible(rnd, universe, max_deg, gaussian)
        a = rnd.choice([-3, -2, -1, 1, 2, 3])
        if coeff_mode == "Q" and rnd.random() < 0.4:
            a = Fraction(a, rnd.choice([2, 3]))
        total = total + FormalSum.single(f, a, field_mode, coeff_mode)
    return total


def random_five_term(rnd: random.Random, universe, max_deg: int = 2, field_mode="Q"):
    """A five-term generator with admissible random arguments: a draw where
    five_term's arguments degenerate is drawn again."""
    gaussian = field_mode == "Qi"
    while True:
        x = random_admissible(rnd, universe, max_deg, gaussian)
        y = random_admissible(rnd, universe, max_deg, gaussian)
        try:
            return five_term(x, y, field_mode)
        except ValueError:
            continue


def random_inversion(rnd: random.Random, universe, max_deg: int = 2, field_mode="Q"):
    gaussian = field_mode == "Qi"
    x = random_admissible(rnd, universe, max_deg, gaussian)
    return inversion(x, field_mode)


def random_point(rnd: random.Random, universe, gaussian: bool = False) -> dict:
    out = {}
    for v in universe:
        re = Fraction(rnd.randint(-9, 9), rnd.choice([1, 1, 2, 3]))
        im = Fraction(rnd.randint(-3, 3)) if gaussian and rnd.random() < 0.5 else 0
        out[v] = FieldElement(re, Fraction(im))
    return out


# -- planted-factorization inputs for the beta1 soundness oracle -------------


def planted_basis(rnd: random.Random, universe, count: int = 4) -> list[MultiPoly]:
    """Pairwise coprime monic squarefree polynomials to build inputs from.

    Linear polys t - a at distinct shifts plus, sometimes, an irreducible
    quadratic; pairwise coprimality holds by construction.
    """
    var = rnd.choice(universe)
    t = MultiPoly.var(universe, var)
    shifts = rnd.sample(range(-6, 7), count)
    polys = [t - MultiPoly.const(universe, fe(a)) for a in shifts]
    if rnd.random() < 0.4:
        # t^2 + k with k > 0 has no rational roots and is coprime to the rest
        k = rnd.choice([1, 2, 3, 5])
        polys.append(t * t + MultiPoly.const(universe, fe(k)))
    return polys


def product_of_planted(
    rnd: random.Random, planted: list[MultiPoly], max_exp: int = 2
) -> tuple[RationalFunction, dict[int, int]]:
    """A rational function prod planted[i]^{e_i} with its exponent record."""
    universe = planted[0].universe
    exps: dict[int, int] = {}
    num = MultiPoly.one(universe)
    den = MultiPoly.one(universe)
    for i, b in enumerate(planted):
        e = rnd.randint(-max_exp, max_exp)
        if not e:
            continue
        exps[i] = e
        if e > 0:
            num = num * b**e
        else:
            den = den * b ** (-e)
    unit = fe(rnd.choice([1, 2, 3, -1, -2, 5]))
    return RationalFunction(num.scale(unit), den), exps


def expand_beta1_to_planted(w, planted: list[MultiPoly]) -> dict:
    """Rewrite the basis-level beta1 matrix in planted coordinates.

    Each basis element of w is factored over the planted set (they are
    products of planted polys by construction); the pairing then expands
    bilinearly.  Raises if a basis element fails to factor.
    """
    from dilogeq.coprime import CoprimeBasis

    fine = CoprimeBasis()
    for b in planted:
        fine.add(b)
    fine.freeze()
    # the planted polys are pairwise coprime and squarefree, so the fine
    # basis is exactly the planted set (sorted); map indices back
    pos = {i: fine.elements.index(b.primitive_monic()[1]) for i, b in enumerate(planted)}
    back = {i: k for k, i in pos.items()}
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), a in beta1_by_index(w).items():
        _, ei = fine.factor(w.basis.elements[i])
        _, ej = fine.factor(w.basis.elements[j])
        for ki, mi in ei.items():
            for kj, nj in ej.items():
                if ki == kj:
                    continue
                # order pairs by planted index so signs line up with the
                # direct planted-level computation
                key, val = ((back[ki], back[kj]), a * mi * nj)
                if key[0] > key[1]:
                    key, val = (key[1], key[0]), -val
                out[key] = out.get(key, Fraction(0)) + val
    return {k: v for k, v in out.items() if v}


def beta1_from_exponents(tensors: list[tuple[int, dict, dict]]) -> dict:
    """The beta1 matrix straight from planted exponent records."""
    out: dict[tuple[int, int], Fraction] = {}
    for a, ef, eg in tensors:
        for i, mi in ef.items():
            for j, nj in eg.items():
                if i == j:
                    continue
                key, val = (i, j), Fraction(a) * mi * nj
                if key[0] > key[1]:
                    key, val = (key[1], key[0]), -val
                out[key] = out.get(key, Fraction(0)) + val
    return {k: v for k, v in out.items() if v}
