r"""The antisymmetrized square of the multiplicative group, and the boundary
map deciding constancy of dilogarithm sums.

An element of A (x) wedge^2 F* is kept two ways: as the raw list of tensors
a * (f /\ g) it was built from (so elements can be subtracted and compared
exactly), and as a normal form over a joint GCD-free basis.  Every f splits
into atoms: non-constant basis elements, prime constants, and the torsion
unit (-1 in rational mode, i in Gaussian mode).  The normal form is one
antisymmetric pairing on atoms, stored as coefficients on pairs x /\ y with
x before y in the atom order basis < prime < unit.  Its three layers are
the usual beta decomposition:

  beta1: pairs of two basis elements;
  beta2: a basis element against a prime or the unit;
  beta3: two constants (prime pairs, prime /\ unit, unit /\ unit).

Identities used (all derived from the defining relation (-x) (x) x = 0):
  antisymmetry  f /\ g = -(g /\ f)
  diagonal      f /\ f = f /\ (-1); over Q(i), -1 = i^2 so this is 2 (f /\ i)
  torsion       b /\ (-1) has order 2, b /\ i has order 4, i /\ i = 0
so pairs ending in the unit are stored mod 2 (rational) or mod 4 (Gaussian)
when coefficients are in Z, and vanish identically when coefficients are in Q.

The constancy criterion: a formal sum has constant dilogarithm (in the
Bloch-Wigner, Rogers, or p-adic sense, under the matching admissibility of
its arguments) exactly when beta1 and beta2 of its boundary vanish; beta3 is
the constant residue living in A (x) wedge^2 k*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coprime import CoprimeBasis
from .formal import FormalSum, conj_sum
from .poly import MultiPoly, univar_inverse_mod, univar_rem
from .primes import factor_constant, prime_key
from .ratfunc import INF, RationalFunction
from .scalars import FieldElement, ONE


class UnknownBasisElement(KeyError):
    pass


class NotUnivariate(ValueError):
    pass


class UnpairedVariables(ValueError):
    pass


Tensor = tuple[Fraction, RationalFunction, RationalFunction]

# Atoms are (BASIS, basis index), (PRIME, prime) and the one torsion UNIT.
BASIS, PRIME = 0, 1
UNIT = (2, 0)


def _atom_key(x):
    return (PRIME, prime_key(x[1])) if x[0] == PRIME else x


def _layer(x, y) -> int:
    r"""1, 2 or 3: the beta layer holding the pair x /\ y, x before y."""
    return 1 + (x[0] != BASIS) + (y[0] != BASIS)


class WedgeElement:
    r"""a1 (f1 /\ g1) + ... in normal form over a joint coprime basis.

    `pairs[(x, y)]` is the nonzero coefficient of x /\ y for atoms x before
    y; pairs ending in UNIT are torsion, reduced mod 2 or mod 4 in Z-mode.
    """

    __slots__ = ("universe", "field_mode", "coeff_mode", "tensors", "basis", "pairs")

    def __init__(self, universe, tensors, field_mode="Q", coeff_mode="Z"):
        self.universe = tuple(universe)
        self.field_mode = field_mode
        self.coeff_mode = coeff_mode
        self.tensors = tuple(
            (Fraction(a), f, g) for a, f, g in tensors if Fraction(a)
        )
        for _, f, g in self.tensors:
            if f.is_zero() or g.is_zero():
                raise ValueError("wedge arguments must be nonzero")
        self._normalize()

    # -- normal form -------------------------------------------------------

    def _normalize(self):
        gaussian = self.field_mode == "Qi"
        basis = self.basis = _joint_basis(self.universe, self.tensors)

        def atoms(f: RationalFunction) -> list:
            unit, exps = basis.factor_rf(f)
            fac = factor_constant(unit, gaussian)
            return (
                [((BASIS, i), e) for i, e in exps.items()]
                + [((PRIME, p), e) for p, e in fac.factors]
                + [(UNIT, fac.unit_exponent)]
            )

        # sums stay on ints while the coefficients are integral; each
        # surviving pair becomes a Fraction once, below
        pairs: dict[tuple, int | Fraction] = {}
        for a, f, g in self.tensors:
            if a.denominator == 1:
                a = a.numerator
            atoms_f, atoms_g = atoms(f), atoms(g)
            for x, m in atoms_f:
                for y, n in atoms_g:
                    key, v = (x, y), a * m * n
                    if not v:
                        continue
                    if x == y:
                        if x == UNIT and gaussian:
                            continue  # i /\ i = 0
                        if x != UNIT:
                            # x /\ x = x /\ (-1) = 2 (x /\ i)
                            key, v = (x, UNIT), 2 * v if gaussian else v
                    elif _atom_key(y) < _atom_key(x):
                        key, v = (y, x), -v
                    pairs[key] = pairs.get(key, 0) + v

        modulus = 4 if gaussian else 2
        self.pairs = {}
        for (x, y), v in pairs.items():
            if y == UNIT:
                v = _reduce_one(v, self.coeff_mode, modulus)
            if v:
                self.pairs[x, y] = Fraction(v)

    # -- predicates and views ------------------------------------------------

    @property
    def beta1(self) -> dict[tuple[int, int], Fraction]:
        """Basis-pair coefficients, keyed by basis indices i < j."""
        return {(x[1], y[1]): v for (x, y), v in self.pairs.items() if _layer(x, y) == 1}

    def _layer_is_zero(self, layer: int) -> bool:
        return all(_layer(x, y) != layer for x, y in self.pairs)

    def beta1_is_zero(self) -> bool:
        return self._layer_is_zero(1)

    def beta2_is_zero(self) -> bool:
        return self._layer_is_zero(2)

    def is_zero(self) -> bool:
        return not self.pairs

    def __sub__(self, other: "WedgeElement") -> "WedgeElement":
        if (
            self.universe != other.universe
            or self.field_mode != other.field_mode
            or self.coeff_mode != other.coeff_mode
        ):
            raise ValueError("wedge elements live over different settings")
        negated = tuple((-a, f, g) for a, f, g in other.tensors)
        return WedgeElement(
            self.universe, self.tensors + negated, self.field_mode, self.coeff_mode
        )

    def _entries(self) -> list[tuple]:
        """(x, y, value) for every pair, in canonical atom order."""
        return sorted(
            ((x, y, v) for (x, y), v in self.pairs.items()),
            key=lambda e: (_atom_key(e[0]), _atom_key(e[1])),
        )

    def _label(self, x) -> str:
        if x == UNIT:
            return "i" if self.field_mode == "Qi" else "-1"
        return str(x[1]) if x[0] == PRIME else str(self.basis.elements[x[1]])

    def decompose(self):
        """(beta1, beta2, beta3) as plain printable dictionaries."""
        beta1, beta2 = {}, {}
        beta3 = {"pairs": {}, "units": {}, "unit_unit": Fraction(0)}
        for x, y, v in self._entries():
            lx, ly = self._label(x), self._label(y)
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

    def first_obstruction(self):
        """The first nonzero beta1 entry, else the first nonzero beta2 entry,
        in canonical order; None when both layers vanish."""
        els = self.basis.elements
        for x, y, v in sorted(self._entries(), key=lambda e: _layer(*e[:2])):
            if y[0] == BASIS:
                return ("pair", els[x[1]], els[y[1]], v)
            if x[0] == BASIS:
                return ("column", els[x[1]], self._label(y), v)
            break
        return None

    def __str__(self):
        b1, b2, b3 = self.decompose()
        return f"WedgeElement(beta1={b1}, beta2={b2}, beta3={b3})"

    __repr__ = __str__


def _joint_basis(universe, tensors, first: tuple[MultiPoly, ...] = ()) -> CoprimeBasis:
    """The frozen coprime basis refining `first`, then every numerator and
    denominator of the tensors, each with the factors it was built from."""
    basis = CoprimeBasis(universe)
    for p in first:
        basis.add(p)
    for _, f, g in tensors:
        for h in (f, g):
            basis.add(h.num, h.num_factors)
            basis.add(h.den, h.den_factors)
    basis.freeze()
    return basis


def _reduce_one(v: int | Fraction, coeff_mode: str, modulus: int) -> int:
    if coeff_mode == "Q":
        return 0
    if v.denominator != 1:
        raise ValueError(f"torsion component {v} is not an integer in Z-mode")
    return v.numerator % modulus


# ---------------------------------------------------------------------------
# the boundary map and constancy certificates
# ---------------------------------------------------------------------------


def boundary(alpha: FormalSum) -> WedgeElement:
    r"""d[f] = f /\ (1 - f), extended A-linearly."""
    tensors = [(a, f, f.one_minus()) for f, a in alpha.items()]
    return WedgeElement(alpha.universe, tensors, alpha.field_mode, alpha.coeff_mode)


@dataclass(frozen=True)
class ConstancyCertificate:
    verdict: str  # "Constant" | "NotConstant"
    witness: tuple | None
    residual_beta3: dict
    notes: tuple[str, ...] = ()

    def is_constant(self) -> bool:
        return self.verdict == "Constant"


def _certificate(w: WedgeElement) -> ConstancyCertificate:
    _, _, b3 = w.decompose()
    if w.beta1_is_zero() and w.beta2_is_zero():
        return ConstancyCertificate("Constant", None, b3)
    obs = w.first_obstruction()
    if obs is None:
        raise ArithmeticError("a nonzero beta1 or beta2 has no first entry")
    return ConstancyCertificate("NotConstant", obs, b3)


def check_constant(alpha: FormalSum) -> ConstancyCertificate:
    """Is the (Bloch-Wigner / Rogers / p-adic) dilogarithm of alpha constant?

    The symbolic criterion is the same for all three interpretations: the
    boundary's beta1 and beta2 must vanish.  Which numeric reading applies
    is a matter of where the arguments are admissible.
    """
    return _certificate(boundary(alpha))


def check_constant_real(alpha: FormalSum) -> ConstancyCertificate:
    """Constancy of the Bloch-Wigner dilogarithm on the real locus: the
    conjugation criterion with every variable real."""
    return check_constant_cc(alpha)


def check_constant_cc(
    alpha: FormalSum, var_swap: dict[str, str] | None = None
) -> ConstancyCertificate:
    """Constancy of the Bloch-Wigner dilogarithm on the fixed locus of a
    conjugation: paired variables are complex conjugates, the rest are real.

    `var_swap` gives each pair (z, zbar) in one direction or both.  With its
    completion, sigma conjugates coefficients and swaps paired variables, an
    antiholomorphic involution of the complexification; a name sigma does
    not move is real.  D(zbar) = -D(z) gives D(alpha^sigma) = -D(alpha) on
    the fixed locus, so D(alpha) = D(alpha - alpha^sigma) / 2 there.  If the
    boundary of alpha - alpha^sigma vanishes (beta1 and beta2), that sum has
    constant D on the whole complexification, so alpha has constant D on
    the locus.  A pairing that gives a variable two partners or names a
    variable outside the universe raises UnpairedVariables.
    """
    full = dict(var_swap or {})
    for a, b in list(full.items()):
        full.setdefault(b, a)
    if not set(full) | set(full.values()) <= set(alpha.universe) or any(
        full[full[v]] != v for v in full
    ):
        raise UnpairedVariables(
            f"variable pairing {var_swap} is not an involution of {alpha.universe}"
        )
    return _certificate(boundary(alpha - conj_sum(alpha, full)))


# ---------------------------------------------------------------------------
# valuation pairings
# ---------------------------------------------------------------------------


def t_pair(w: WedgeElement, b: MultiPoly, bprime: MultiPoly) -> Fraction:
    """The beta1 pairing against the double valuation at (b, b')."""
    i = w.basis.index_of(b)
    j = w.basis.index_of(bprime)
    if i is None:
        raise UnknownBasisElement(str(b))
    if j is None:
        raise UnknownBasisElement(str(bprime))
    if i == j:
        raise ValueError("t_pair needs two distinct basis elements")
    if i < j:
        return w.beta1.get((i, j), Fraction(0))
    return -w.beta1.get((j, i), Fraction(0))


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
    basis = _joint_basis(w.universe, w.tensors, first=(b,))
    ib = basis.index_of(b.primitive_monic()[1])
    if ib is None:
        raise UnknownBasisElement(
            f"{b} splits further over the joint basis; valuation is ambiguous"
        )

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
    out = MultiPoly.one(w.universe)
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
    new_universe = tuple(v for v in w.universe if v != var)
    tensors = []
    for a, f, g in w.tensors:
        sf = _sp_generator(f, var, target)
        sg = _sp_generator(g, var, target)
        tensors.append((a, sf.with_universe(new_universe), sg.with_universe(new_universe)))
    return WedgeElement(new_universe, tensors, w.field_mode, w.coeff_mode)


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
    kn, n0 = _strip(f.num, pit)
    kd, d0 = _strip(f.den, pit)
    ord_f = kn - kd
    stripped = RationalFunction(n0, d0)
    value = stripped.substitute(var, target)
    if value is INF or value.is_zero():
        raise ArithmeticError(f"stripping {var} - target left a zero or pole in {f}")
    if ord_f:
        db = RationalFunction.from_poly(target.den)
        value = value * db**ord_f
    return value


def _strip(p: MultiPoly, pit: MultiPoly) -> tuple[int, MultiPoly]:
    k = 0
    while True:
        q = p.divide_exact(pit)
        if q is None:
            return k, p
        p = q
        k += 1
