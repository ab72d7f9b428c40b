"""Rational functions in canonical lowest terms.

Normal form: gcd(num, den) constant, den primitive monic (graded-lex
leading coefficient 1), the freed unit absorbed into the numerator.  With
both halves canonical, structural equality decides equality of rational
functions, which is what formal sums key on.

Substitution of a value for one variable returns either a RationalFunction
or the in-band INF sentinel; 0/0 cannot happen because a common root of
numerator and denominator in the eliminated variable would contradict
lowest terms (Gauss: coprime over the polynomial ring stays coprime over
the rational-function coefficient field).  Substituting the symbol INF is
resolved by degree comparison in the eliminated variable, with the equal-
degree case given by the ratio of the leading coefficients.

Full evaluation at a point is different: coprime polynomials in two or more
variables can vanish together, as (y - 3)/(x - 2) does at (2, 3), and
`evaluate` raises Indeterminate there.
"""

from __future__ import annotations

from .poly import MultiPoly, poly_gcd
from .scalars import FieldElement


class ZeroDenominator(ValueError):
    pass


class Indeterminate(ArithmeticError):
    """Numerator and denominator vanish together at a point (0/0)."""


class Infinity:
    """The point at infinity; a unique in-band sentinel."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __str__(self):
        return "inf"


INF = Infinity()


def complete_var_swap(var_swap: dict[str, str]) -> dict[str, str]:
    """The symmetric closure of a variable pairing: each b -> a added for a -> b."""
    full = dict(var_swap)
    for a, b in var_swap.items():
        full.setdefault(b, a)
    return full


class RationalFunction:
    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: MultiPoly, den: MultiPoly, _normalized=False):
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_poly(p: MultiPoly) -> "RationalFunction":
        return RationalFunction(p, MultiPoly.one(p.universe), _normalized=True)

    @staticmethod
    def const(universe, c: FieldElement) -> "RationalFunction":
        return RationalFunction.from_poly(MultiPoly.const(universe, c))

    @staticmethod
    def var(universe, name: str) -> "RationalFunction":
        return RationalFunction.from_poly(MultiPoly.var(universe, name))

    # -- structure ------------------------------------------------------

    @property
    def universe(self):
        return self.num.universe

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.den.is_one() and self.num.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> FieldElement:
        return self.num.constant_value() / self.den.constant_value()

    def vars_used(self) -> tuple[str, ...]:
        used = set(self.num.vars_used()) | set(self.den.vars_used())
        return tuple(v for v in self.universe if v in used)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def sort_key(self):
        return (self.num.sort_key(), self.den.sort_key())

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDenominator("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def one_minus(self) -> "RationalFunction":
        """1 - f, the companion argument of every dilogarithm term.

        Already in normal form: gcd(den - num, den) = gcd(num, den) is
        constant and den is unchanged, as in __neg__.
        """
        return RationalFunction(self.den - self.num, self.den, _normalized=True)

    def scale(self, c: FieldElement) -> "RationalFunction":
        return RationalFunction(self.num.scale(c), self.den)

    # -- conjugation -------------------------------------------------------

    def conjugate(self, var_swap: dict[str, str] | None = None) -> "RationalFunction":
        """Conjugate coefficients, optionally swapping paired variables."""
        num = self.num.conjugate_coeffs()
        den = self.den.conjugate_coeffs()
        if var_swap:
            full = complete_var_swap(var_swap)
            num = num.rename_vars(full)
            den = den.rename_vars(full)
        return RationalFunction(num, den)

    # -- substitution --------------------------------------------------------

    def substitute(self, var: str, value):
        """Substitute var -> value (RationalFunction or INF).

        Returns a RationalFunction over the same universe (with var unused)
        or INF when the denominator vanishes identically / degrees force it.
        """
        if value is INF:
            dn = self.num.degree_in(var)
            dd = self.den.degree_in(var)
            if dn > dd:
                return INF
            if dn < dd:
                return RationalFunction.from_poly(MultiPoly.zero(self.universe))
            return RationalFunction(
                self.num.lead_coeff_in(var), self.den.lead_coeff_in(var)
            )
        if isinstance(value, FieldElement):
            value = RationalFunction.const(self.universe, value)
        if var in value.vars_used():
            raise ValueError(f"substitution value must not involve {var}")
        ns = _poly_substitute(self.num, var, value)
        ds = _poly_substitute(self.den, var, value)
        if ds.is_zero():
            if ns.is_zero():
                raise ArithmeticError("0/0 impossible for lowest-terms input")
            return INF
        return ns / ds

    def evaluate(self, assignment: dict[str, FieldElement]):
        """Full evaluation at a point; returns FieldElement or INF, and
        raises Indeterminate where numerator and denominator both vanish."""
        n = self.num.evaluate(assignment)
        d = self.den.evaluate(assignment)
        if d.is_zero():
            if n.is_zero():
                raise Indeterminate(f"0/0: numerator and denominator of {self} vanish there")
            return INF
        return n / d

    def eval_numeric(self, point: dict[str, complex]) -> complex:
        return self.num.eval_numeric(point) / self.den.eval_numeric(point)

    def with_universe(self, new_universe) -> "RationalFunction":
        return RationalFunction(
            self.num.with_universe(new_universe),
            self.den.with_universe(new_universe),
            _normalized=True,
        )

    # -- display ----------------------------------------------------------------

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _normalize(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    if num.is_zero():
        return num, MultiPoly.one(num.universe)
    g = poly_gcd(num, den)
    if not g.is_constant():
        nq = num.divide_exact(g)
        dq = den.divide_exact(g)
        if nq is None or dq is None:
            raise ArithmeticError("a gcd must divide both of its arguments")
        num, den = nq, dq
    unit, den = den.primitive_monic()
    if not unit.is_one():
        num = num.scale(unit.inverse())
    return num, den


def _poly_substitute(p: MultiPoly, var: str, value: RationalFunction) -> RationalFunction:
    """Evaluate a polynomial at var = value by Horner over the var-degrees."""
    coeffs = p.coeffs_in(var)
    if not coeffs:
        return RationalFunction.from_poly(p)
    top = max(coeffs)
    acc = RationalFunction.from_poly(MultiPoly.zero(p.universe))
    for k in range(top, -1, -1):
        acc = acc * value
        if k in coeffs:
            acc = acc + RationalFunction.from_poly(coeffs[k])
    return acc
