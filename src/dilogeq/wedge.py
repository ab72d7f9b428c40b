r"""The antisymmetrized square of the multiplicative group, and the boundary
map deciding constancy of dilogarithm sums.

An element of A (x) wedge^2 F* is kept two ways: as the raw list of tensors
a * (f /\ g) it was built from, and as a normal form over a joint GCD-free
basis.  Every f splits into atoms: non-constant basis elements, prime
constants, and the torsion unit (-1 in rational mode, i in Gaussian mode).
The normal form is one antisymmetric pairing on atoms, stored as
coefficients on pairs x /\ y with x before y in the atom order
basis < prime < unit.  Basis elements are paired in the order the basis
found them, which any fixed total order does as well for the sums; the
canonical order sorts the basis by `MultiPoly.sort_key`, so it is built
only for a read that shows an order over basis elements (see
`WedgeElement.pairs`).  Its three layers are the usual beta decomposition:

  beta1: pairs of two basis elements;
  beta2: a basis element against a prime or the unit;
  beta3: two constants (prime pairs, prime /\ unit, unit /\ unit).

Identities used (all derived from the defining relation (-x) (x) x = 0):
  antisymmetry  f /\ g = -(g /\ f)
  diagonal      f /\ f = f /\ (-1); over Q(i), -1 = i^2 so this is 2 (f /\ i)
  torsion       b /\ (-1) has order 2, b /\ i has order 4, i /\ i = 0
so pairs ending in the unit are stored mod 2 (rational) or mod 4 (Gaussian)
when coefficients are in Z, and vanish identically when coefficients are in Q.
Coefficients, of the tensors and of the pairs, take formal's one form: an
int when integral, else a Fraction, so in Z-mode every pair holds an int.

The constancy criterion: a formal sum has constant dilogarithm (in the
Bloch-Wigner, Rogers, or p-adic sense, under the matching admissibility of
its arguments) exactly when beta1 and beta2 of its boundary vanish; beta3 is
the constant residue living in A (x) wedge^2 k*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coprime import CoprimeBasis
from .formal import FormalSum, _check_coeff, conj_sum
from .poly import MultiPoly
from .primes import factor_constant, prime_key
from .ratfunc import RationalFunction


# Atoms are (BASIS, basis element), (PRIME, prime) and the one torsion UNIT.
# While the normal form is built their sort keys are the atoms themselves,
# but (BASIS, the index the basis found the element at) for a basis element
# and (PRIME, prime_key(prime)) for a prime.
BASIS, PRIME = 0, 1
UNIT = (2, 0)


def _layer(x, y) -> int:
    r"""1, 2 or 3: the beta layer holding the pair x /\ y, x before y."""
    return 1 + (x[0] != BASIS) + (y[0] != BASIS)


class WedgeElement:
    r"""a1 (f1 /\ g1) + ... in normal form over a joint coprime basis."""

    __slots__ = (
        "field_mode", "coeff_mode", "tensors", "basis", "_open", "_beta3", "_primes", "_sorted"
    )

    def __init__(self, tensors, field_mode="Q", coeff_mode="Z"):
        self.field_mode = field_mode
        self.coeff_mode = coeff_mode
        # each coefficient in the one form formal gives it, checked against
        # the coefficient mode as a FormalSum checks its own, so every
        # Z-mode pair below holds an int
        tensors = ((_check_coeff(a, coeff_mode), f, g) for a, f, g in tensors)
        self.tensors = tuple(t for t in tensors if t[0])
        for _, f, g in self.tensors:
            if f.is_zero() or g.is_zero():
                raise ValueError("wedge arguments must be nonzero")
        self._normalize()

    # -- normal form -------------------------------------------------------

    def _normalize(self):
        gaussian = self.field_mode == "Qi"
        basis = self.basis = _joint_basis(self.tensors)
        found = {b: (BASIS, i) for i, b in enumerate(basis.elements)}
        constants = {}  # unit -> its keyed constant atoms, once per unit
        prime_atoms = self._primes = {}  # a prime's sort key -> its atom

        def atoms(f: RationalFunction) -> list:
            """(sort key, exponent) for each atom of f with a nonzero exponent."""
            unit, exps = basis.factor_rf(f)
            keyed = constants.get(unit)
            if keyed is None:
                unit_exponent, factors = factor_constant(unit, gaussian)
                keyed = constants[unit] = []
                for p, e in factors:
                    key = (PRIME, prime_key(p))
                    prime_atoms[key] = (PRIME, p)
                    keyed.append((key, e))
                if unit_exponent:
                    keyed.append((UNIT, unit_exponent))
            return [(found[b], e) for b, e in exps.items()] + keyed

        # pairs of sort keys; sums stay on ints while the coefficients are
        # integral, and each surviving pair is put in the one form below
        pairs: dict[tuple, int | Fraction] = {}
        for a, f, g in self.tensors:
            atoms_f, atoms_g = atoms(f), atoms(g)
            for x, m in atoms_f:
                for y, n in atoms_g:
                    key, v = (x, y), a * m * n
                    if x == y:
                        if x == UNIT and gaussian:
                            continue  # i /\ i = 0
                        if x != UNIT:
                            # x /\ x = x /\ (-1) = 2 (x /\ i)
                            key, v = (x, UNIT), 2 * v if gaussian else v
                    elif y < x:
                        key, v = (y, x), -v
                    pairs[key] = pairs.get(key, 0) + v

        modulus = 4 if gaussian else 2
        self._open, beta3 = [], []
        for (x, y), v in pairs.items():
            if y == UNIT:
                v = 0 if self.coeff_mode == "Q" else v % modulus
            if v:
                (self._open if x[0] == BASIS else beta3).append((x, y, _check_coeff(v, "Q")))
        # beta3 keys name constants only, so their order is canonical at
        # once; the keys of a pair are unique, so no value is compared
        beta3.sort()
        atom = prime_atoms.get
        self._beta3 = [(atom(x, x), atom(y, y), v) for x, y, v in beta3]
        self._sorted = None

    def _canonical_open(self) -> list[tuple]:
        r"""The beta1 and beta2 entries (x, y, value) in canonical atom
        order, re-keyed from the found order: a beta1 pair the canonical
        order reverses changes sign, a beta2 pair keeps its basis atom
        first.  Sorts the basis, unless there is no such entry."""
        if not self._open:
            return []
        found = self.basis.elements
        rank = {b: (BASIS, r) for r, b in enumerate(self.sorted_basis())}
        entries = []
        for (_, i), y, v in self._open:
            x = rank[found[i]]
            if y[0] == BASIS:
                y = rank[found[y[1]]]
                if y < x:
                    x, y, v = y, x, -v
            entries.append((x, y, v))
        entries.sort()
        atom = {key: (BASIS, b) for b, key in rank.items()} | self._primes
        return [(atom[x], atom.get(y, y), v) for x, y, v in entries]

    # -- views -----------------------------------------------------------------

    def sorted_basis(self) -> list:
        """The basis elements in canonical `MultiPoly.sort_key` order, the
        order of every printed basis and of the beta1 and beta2 entries;
        sorted on each call, and read by no Constant verdict."""
        return sorted(self.basis.elements, key=MultiPoly.sort_key)

    @property
    def pairs(self) -> dict:
        r"""{(x, y): coefficient} for each nonzero x /\ y, x before y, in
        canonical atom order; a basis atom is (BASIS, element), and pairs
        ending in UNIT are torsion, reduced mod 2 or mod 4 in Z-mode.  The
        element is built with its basis elements in the order found; the
        first read of beta1 or beta2 (this view, `decompose`,
        `first_obstruction`) sorts the basis and re-keys them, once.  beta3
        names no basis element, so it is in canonical order from the start."""
        return {(x, y): v for x, y, v in self._entries()}

    def _entries(self, layer: int | None = None) -> list[tuple]:
        """(x, y, value) for every pair, or for those of one beta layer, in
        canonical atom order."""
        if layer == 3:
            return self._beta3
        if self._sorted is None:
            self._sorted = self._canonical_open()
        if layer is None:
            return self._sorted + self._beta3
        return [e for e in self._sorted if _layer(e[0], e[1]) == layer]

    def _label(self, x) -> str:
        if x == UNIT:
            return "i" if self.field_mode == "Qi" else "-1"
        return str(x[1])

    def decompose(self):
        """(beta1, beta2, beta3) as plain printable dictionaries."""
        beta1, beta2 = {}, {}
        for x, y, v in self._entries():
            layer = _layer(x, y)
            if layer == 1:
                beta1[self._label(x), self._label(y)] = v
            elif layer == 2:
                beta2.setdefault(self._label(x), {})[self._label(y)] = v
        return beta1, beta2, self.beta3()

    def beta3(self) -> dict:
        """The beta3 layer as a printable dictionary; it labels constants
        only, so no basis polynomial is formatted."""
        beta3 = {"pairs": {}, "units": {}, "unit_unit": 0}
        for x, y, v in self._entries(3):
            lx, ly = self._label(x), self._label(y)
            if y != UNIT:
                beta3["pairs"][lx, ly] = v
            elif x != UNIT:
                beta3["units"][lx] = v
            else:
                beta3["unit_unit"] = v
        return beta3

    def first_obstruction(self):
        """The first nonzero beta1 entry, else the first nonzero beta2 entry,
        in canonical order; None when both layers vanish, which sorts
        nothing."""
        if not self._open:
            return None
        x, y, v = (self._entries(1) or self._entries(2))[0]
        if y[0] == BASIS:
            return ("pair", x[1], y[1], v)
        return ("column", x[1], self._label(y), v)

    def __str__(self):
        b1, b2, b3 = self.decompose()
        return f"WedgeElement(beta1={b1}, beta2={b2}, beta3={b3})"

    __repr__ = __str__


def _joint_basis(tensors) -> CoprimeBasis:
    """The frozen coprime basis refining every numerator and denominator of
    the tensors, each with the factors it was built from."""
    basis = CoprimeBasis()
    for _, f, g in tensors:
        for h in (f, g):
            basis.add(h.num, h.num_factors)
            basis.add(h.den, h.den_factors)
    basis.freeze()
    return basis


# ---------------------------------------------------------------------------
# the boundary map and constancy certificates
# ---------------------------------------------------------------------------


def boundary(alpha: FormalSum) -> WedgeElement:
    r"""d[f] = f /\ (1 - f), extended A-linearly over the terms as stored,
    since no order of them changes the sum."""
    tensors = [(a, f, f.one_minus()) for f, a in alpha.terms.items()]
    return WedgeElement(tensors, alpha.field_mode, alpha.coeff_mode)


@dataclass(frozen=True)
class ConstancyCertificate:
    verdict: str  # "Constant" | "NotConstant"
    witness: tuple | None
    residual_beta3: dict

    def is_constant(self) -> bool:
        return self.verdict == "Constant"


def _certificate(w: WedgeElement) -> ConstancyCertificate:
    obs = w.first_obstruction()
    return ConstancyCertificate("Constant" if obs is None else "NotConstant", obs, w.beta3())


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
    variable outside the universe raises ValueError.
    """
    full = dict(var_swap or {})
    for a, b in list(full.items()):
        full.setdefault(b, a)
    if not set(full) | set(full.values()) <= set(alpha.universe) or any(
        full[full[v]] != v for v in full
    ):
        raise ValueError(
            f"variable pairing {var_swap} is not an involution of {alpha.universe}"
        )
    return _certificate(boundary(alpha - conj_sum(alpha, full)))
