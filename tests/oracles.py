r"""Reference implementations the package does not need, kept for the tests
that check it against them.

The tame symbol t_v at a place of one variable, with the one-variable
division it reduces by, and the push of a wedge element along t -> b.
Neither decides a verdict: the tame symbol kills f /\ (1 - f) (the Steinberg
relation; Milnor, Invent. Math. 9, 1970), so it is 1 on every boundary up
to sign, and pushing a boundary along t -> b agrees with the boundary of the
specialized sum, which is what the tests show.

The orders the package keeps rather than sorts on each read: a
polynomial's terms in descending graded-lex order, and a wedge element's
views (its decomposition, beta3 and first obstruction) read by sorting its
pairs into atom order.
"""

from __future__ import annotations

from fractions import Fraction

from dilogeq.coprime import CoprimeBasis
from dilogeq.poly import MultiPoly
from dilogeq.primes import strip_power
from dilogeq.ratfunc import INF, RationalFunction
from dilogeq.scalars import ONE, FieldElement
from dilogeq.wedge import BASIS, UNIT, WedgeElement, _atom_key, _layer


class NotUnivariate(ValueError):
    pass


# ---------------------------------------------------------------------------
# univariate division (polynomials in one variable, on MultiPoly itself)
# ---------------------------------------------------------------------------


def univar_divmod(p: MultiPoly, d: MultiPoly, var: str) -> tuple[MultiPoly, MultiPoly]:
    """(q, r) with p = q*d + r and deg r < deg d, for p and a nonzero d
    in `var` alone.  Graded-lex order on one variable is the degree, so
    each step cancels the leading term of the remainder."""
    if not set(p.vars_used() + d.vars_used()) <= {var}:
        raise ValueError("polynomial is not univariate in " + var)
    dexp, dc = d.lead_term()
    dcinv = dc.inverse()
    quotient: dict[tuple[int, ...], FieldElement] = {}
    r = p
    while r.terms:
        exp, c = r.lead_term()
        shift = tuple(a - b for a, b in zip(exp, dexp))
        if min(shift) < 0:
            break
        quotient[shift] = c * dcinv
        r = r - d.mul_term(shift, quotient[shift])
    return MultiPoly(p.universe, quotient), r


def univar_rem(p: MultiPoly, m: MultiPoly, var: str) -> MultiPoly:
    return univar_divmod(p, m, var)[1]


def univar_inverse_mod(p: MultiPoly, m: MultiPoly, var: str) -> MultiPoly:
    """Inverse of p modulo m; raises ValueError when gcd(p, m) != 1.

    Extended Euclid keeps s_k with s_k * p = r_k (mod m) along the
    remainders r_k of m and p; the last nonzero r_k is the gcd."""
    r0, r1 = m, univar_rem(p, m, var)
    s0, s1 = MultiPoly.zero(p.universe), MultiPoly.one(p.universe)
    while not r1.is_zero():
        q, r = univar_divmod(r0, r1, var)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if not r0.is_constant():
        raise ValueError("element not invertible modulo " + str(m))
    return univar_rem(s0.scale(r0.constant_value().inverse()), m, var)


# ---------------------------------------------------------------------------
# the tame symbol
# ---------------------------------------------------------------------------


def t_v(w: WedgeElement, b: MultiPoly) -> MultiPoly:
    r"""Tame symbol at the place of a univariate basis poly b.

    f /\ g maps to (-1)^{v(f)v(g)} f^{v(g)} g^{-v(f)} in (k[t]/(b))*,
    multiplied over the stored tensors a (f /\ g).  Each tensor is factored
    once over the joint basis, so the product is one constant times
    prod e_k^{n_k} over the basis elements e_k, with
    n_k = sum a (v(g) e_k(f) - v(f) e_k(g)); n_k vanishes at e_k = b.  That
    product is reduced modulo b once, by square-and-multiply with the
    squarings shared across the e_k, inverting e_k modulo b only where
    n_k < 0.  Returns the reduced representative, which is unique.
    """
    used = set(b.vars_used())
    for _, f, g in w.tensors:
        used |= set(f.vars_used()) | set(g.vars_used())
    if len(used) != 1:
        raise NotUnivariate(f"tame symbols need one variable, saw {sorted(used)}")
    var = next(iter(used))
    if b.is_constant():
        raise ValueError("the place must be a non-constant polynomial")
    basis = CoprimeBasis()
    basis.add(b)
    for _, f, g in w.tensors:
        for h in (f, g):
            basis.add(h.num, h.num_factors)
            basis.add(h.den, h.den_factors)
    basis.freeze()
    place = b.primitive_monic()[1]
    if place not in basis.elements:
        raise ValueError(f"{b} splits further over the joint basis; valuation is ambiguous")
    ib = basis.elements.index(place)

    sign, unit, exps = 0, ONE, {}
    for a, f, g in w.tensors:
        if a.denominator != 1:
            raise ValueError("tame symbols need integer coefficients")
        a = a.numerator
        uf, ef = basis.factor_rf(f)
        ug, eg = basis.factor_rf(g)
        vf, vg = ef.get(ib, 0), eg.get(ib, 0)
        sign += a * vf * vg
        unit = unit * uf ** (a * vg) / ug ** (a * vf)
        for k, e in ef.items():
            exps[k] = exps.get(k, 0) + a * vg * e
        for k, e in eg.items():
            exps[k] = exps.get(k, 0) - a * vf * e

    powers = [
        (univar_inverse_mod(basis.elements[k], b, var) if n < 0 else basis.elements[k], abs(n))
        for k, n in exps.items()
        if n
    ]
    out = MultiPoly.one(b.universe)
    for bit in reversed(range(max((n.bit_length() for _, n in powers), default=0))):
        out = univar_rem(out * out, b, var)
        for base, n in powers:
            if n >> bit & 1:
                out = univar_rem(out * base, b, var)
    return out.scale(-unit if sign % 2 else unit)


# ---------------------------------------------------------------------------
# specialization on the wedge side
# ---------------------------------------------------------------------------


def wedge_specialize(w: WedgeElement, var: str, target) -> WedgeElement:
    """Push a wedge element along t -> target, normalizing with pi = t - b
    (finite b) or pi = 1/t (b = inf): each generator f maps to the value of
    pi^{-ord(f)} f at the target, which is a well-defined nonzero function
    of the remaining variables.
    """
    tensors = []
    for a, f, g in w.tensors:
        new_universe = tuple(v for v in f.num.universe if v != var)
        sf = _sp_generator(f, var, target)
        sg = _sp_generator(g, var, target)
        tensors.append((a, sf.with_universe(new_universe), sg.with_universe(new_universe)))
    return WedgeElement(tensors, w.field_mode, w.coeff_mode)


def _sp_generator(f: RationalFunction, var: str, target) -> RationalFunction:
    if target is INF:
        # pi = 1/t strips the pole order, leaving the top-coefficient ratio
        return RationalFunction(f.num.lead_coeff_in(var), f.den.lead_coeff_in(var))
    if isinstance(target, FieldElement):
        target = RationalFunction.const(f.universe, target)
    if var in target.vars_used():
        raise ValueError(f"target must not involve {var}")
    # pi-tilde = den_b * t - num_b, a t-degree-1 poly; pi = pi-tilde / den_b
    tvar = MultiPoly.var(f.universe, var)
    pit = target.den * tvar - target.num
    n0, kn = strip_power(f.num, pit, MultiPoly.divide_exact)
    d0, kd = strip_power(f.den, pit, MultiPoly.divide_exact)
    ord_f = kn - kd
    stripped = RationalFunction(n0, d0)
    value = stripped.substitute(var, target)
    if value is INF or value.is_zero():
        raise ArithmeticError(f"stripping {var} - target left a zero or pole in {f}")
    if ord_f:
        db = RationalFunction.from_poly(target.den)
        value = value * db**ord_f
    return value


# ---------------------------------------------------------------------------
# orders by sorting
# ---------------------------------------------------------------------------


def descending_terms(p: MultiPoly) -> list[tuple[tuple[int, ...], FieldElement]]:
    """p's (exponent, coefficient) terms sorted into descending graded-lex
    order: total degree first, then the exponent tuple."""
    return sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def sorted_entries(w: WedgeElement) -> list[tuple]:
    """(x, y, value) for every pair of w, sorted into canonical atom order."""
    return sorted(
        ((x, y, v) for (x, y), v in w.pairs.items()),
        key=lambda e: (_atom_key(e[0]), _atom_key(e[1])),
    )


def decompose_by_sorting(w: WedgeElement):
    """(beta1, beta2, beta3) of w as `WedgeElement.decompose` gives them,
    each layer filled in the order of `sorted_entries`."""
    beta1, beta2 = {}, {}
    beta3 = {"pairs": {}, "units": {}, "unit_unit": Fraction(0)}
    for x, y, v in sorted_entries(w):
        lx, ly = w._label(x), w._label(y)
        layer = _layer(x, y)
        if layer == 1:
            beta1[lx, ly] = v
        elif layer == 2:
            beta2.setdefault(lx, {})[ly] = v
        elif y != UNIT:
            beta3["pairs"][lx, ly] = v
        elif x != UNIT:
            beta3["units"][lx] = v
        else:
            beta3["unit_unit"] = v
    return beta1, beta2, beta3


def first_obstruction_by_sorting(w: WedgeElement):
    """The first entry of a stable sort by beta layer of `sorted_entries`:
    a beta1 pair, else a beta2 column, else None."""
    els = w.basis.elements
    for x, y, v in sorted(sorted_entries(w), key=lambda e: _layer(e[0], e[1])):
        if y[0] == BASIS:
            return ("pair", els[x[1]], els[y[1]], v)
        if x[0] == BASIS:
            return ("column", els[x[1]], w._label(y), v)
        break
    return None
