"""Deterministic random generators shared by the test modules.

Everything takes an explicit random.Random so failures reproduce from the
seed alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

from dilogeq.formal import FormalSum, five_term, inversion
from dilogeq.intmat import HermiteForm
from dilogeq.poly import MultiPoly
from dilogeq.ratfunc import RationalFunction
from dilogeq.scalars import FieldElement, fe


def in_row_span(rows: list[list[int]], v, width: int | None = None) -> bool:
    """Is v an integer combination of the rows?"""
    h = HermiteForm(len(v) if width is None else width)
    for r in rows:
        h.insert(r)
    return h.contains(v)


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
    """A five-term generator with admissible random arguments."""
    from dilogeq.formal import DegenerateArguments

    gaussian = field_mode == "Qi"
    while True:
        x = random_admissible(rnd, universe, max_deg, gaussian)
        y = random_admissible(rnd, universe, max_deg, gaussian)
        try:
            return five_term(x, y, field_mode)
        except DegenerateArguments:
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

    fine = CoprimeBasis(w.universe)
    for b in planted:
        fine.add(b)
    fine.freeze()
    # the planted polys are pairwise coprime and squarefree, so the fine
    # basis is exactly the planted set (sorted); map indices back
    pos = {i: fine.index_of(b.primitive_monic()[1]) for i, b in enumerate(planted)}
    assert all(v is not None for v in pos.values())
    back = {i: k for k, i in pos.items()}
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), a in w.beta1.items():
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
