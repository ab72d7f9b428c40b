"""Rational functions in canonical lowest terms.

Normal form: gcd(num, den) constant, den primitive monic (graded-lex
leading coefficient 1), the freed unit absorbed into the numerator.  With
both halves canonical, structural equality decides equality of rational
functions, which is what formal sums key on.

Substitution of a value for one variable returns either a RationalFunction
or the in-band INF sentinel.  The value is a point [a : b] of P^1: num :
den for a rational function, [1 : 0] for INF.  A polynomial p of degree n
in the variable goes to its homogenization sum_k p_k a^k b^(n-k), and the
numerator's and the denominator's are brought to one degree by a power of
b; at INF this is the comparison of degrees, with the equal-degree case
the ratio of the leading coefficients.  0/0 cannot happen because a
common root of numerator and denominator in the eliminated variable would
contradict lowest terms (Gauss: coprime over the polynomial ring stays
coprime over the rational-function coefficient field), and [1 : 0] makes
both leading coefficients nonzero.

Full evaluation at a point is different: coprime polynomials in two or more
variables can vanish together, as (y - 3)/(x - 2) does at (2, 3), and
`evaluate` raises Indeterminate there.

Factor maps: each rational function also keeps, for its numerator and for
its denominator, a map {monic non-constant factor: multiplicity} whose
product is exactly the monic numerator, or the denominator (a constant has
the empty map).  The factors need not be squarefree, irreducible or
coprime; they are the pieces the function was built from, handed to the
coprime basis so it refines them instead of rediscovering them inside
products.  Equality and hashing ignore the maps.  A function built whole
gets the one-factor maps, made when first asked for.  Products, quotients,
powers, inverses, negation, scaling and `one_minus` combine the maps of
their operands.  A product of a/b and c/d cancels by the cross gcds
gcd(a, d) and gcd(c, b) (Henrici, J. ACM 3, 1956; Knuth, TAOCP 2, 4.5.1),
each taken only when that denominator is not 1; the result is in lowest
terms because a/b and c/d are, and a side that cancels falls back to its
one-factor map.  Powers and inverses run no gcd at all.  A sum starts a
new numerator factor; a sum with a polynomial side keeps the other side's
denominator and its map.
"""

from __future__ import annotations

from .poly import MultiPoly, _exact_quotient, poly_gcd
from .scalars import ONE, FieldElement


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


class RationalFunction:
    __slots__ = ("num", "den", "_num_factors", "_den_factors")

    def __init__(self, num: MultiPoly, den: MultiPoly, _normalized=False, _factors=(None, None)):
        """`_factors` holds the numerator and denominator factor maps of an
        already normalized pair; None stands for the one-factor map."""
        if not _normalized:
            num, den = _normalize(num, den)
            _factors = (None, None)
        self.num = num
        self.den = den
        self._num_factors, self._den_factors = _factors

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

    @property
    def num_factors(self) -> dict[MultiPoly, int]:
        """{monic factor: multiplicity}, multiplying to the monic numerator."""
        if self._num_factors is None:
            self._num_factors = _whole(self.num)
        return self._num_factors

    @property
    def den_factors(self) -> dict[MultiPoly, int]:
        """{monic factor: multiplicity}, multiplying to the denominator."""
        if self._den_factors is None:
            self._den_factors = _whole(self.den)
        return self._den_factors

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.den.is_one() and self.num.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def vars_used(self) -> tuple[str, ...]:
        used = set(self.num.vars_used()) | set(self.den.vars_used())
        return tuple(v for v in self.universe if v in used)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def sort_key(self):
        return (self.num.sort_key(), self.den.sort_key())

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return self._plus(other.num, other)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self._plus(-other.num, other)

    def _plus(self, onum: MultiPoly, other: "RationalFunction") -> "RationalFunction":
        """self + onum / other.den.  With one side a polynomial the sum is
        already in lowest terms: gcd(n + m*d, d) = gcd(n, d)."""
        if other.den.is_one():
            num = self.num + (onum if self.den.is_one() else onum * self.den)
            return RationalFunction(num, self.den, True, (None, self._den_factors))
        if self.den.is_one():
            num = self.num * other.den + onum
            return RationalFunction(num, other.den, True, (None, other._den_factors))
        return RationalFunction(self.num * other.den + onum * self.den, self.den * other.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, True, (self._num_factors, self._den_factors))

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.is_zero() or other.is_zero():
            return RationalFunction.from_poly(MultiPoly.zero(self.universe))
        a, af, b, bf = self.num, self.num_factors, self.den, self.den_factors
        c, cf, d, df = other.num, other.num_factors, other.den, other.den_factors
        if not d.is_one():
            g = poly_gcd(a, d)
            if not g.is_constant():
                a, d = _exact_quotient(a, g), _exact_quotient(d, g)
                af, df = _whole(a), _whole(d)
        if not b.is_one():
            g = poly_gcd(c, b)
            if not g.is_constant():
                c, b = _exact_quotient(c, g), _exact_quotient(b, g)
                cf, bf = _whole(c), _whole(b)
        return RationalFunction(a * c, b * d, True, (_merge(af, cf), _merge(bf, df)))

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return self * other.inverse()

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDenominator("inverse of zero")
        unit, den = self.num.primitive_monic()
        num = self.den if unit.is_one() else self.den.scale(unit.inverse())
        return RationalFunction(num, den, True, (self._den_factors, self._num_factors))

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return RationalFunction.const(self.universe, ONE)
        if n == 1:
            return self
        factors = tuple(
            {p: k * n for p, k in fac.items()} for fac in (self.num_factors, self.den_factors)
        )
        return RationalFunction(self.num**n, self.den**n, True, factors)

    def one_minus(self) -> "RationalFunction":
        """1 - f, the companion argument of every dilogarithm term.

        Already in normal form: gcd(den - num, den) = gcd(num, den) is
        constant and den is unchanged, as in __neg__; so is its factor map.
        """
        return RationalFunction(self.den - self.num, self.den, True, (None, self._den_factors))

    # -- conjugation -------------------------------------------------------

    def conjugate(self, var_swap: dict[str, str] | None = None) -> "RationalFunction":
        """Conjugate coefficients, then rename variables by `var_swap`, a
        permutation of the universe given in full (both directions of each
        pair); names it leaves out stay.  Both are ring automorphisms, so
        numerator and denominator stay coprime and, as in with_universe,
        only the denominator is made monic again."""
        num = self.num.conjugate_coeffs()
        den = self.den.conjugate_coeffs()
        if var_swap:
            num = num.rename_vars(var_swap)
            den = den.rename_vars(var_swap)
        return RationalFunction(*_monic_den(num, den), _normalized=True)

    # -- substitution --------------------------------------------------------

    def substitute(self, var: str, value):
        """Substitute var -> value (RationalFunction or INF).

        Returns a RationalFunction over the same universe (with var unused)
        or INF when the denominator vanishes at the point [a : b].
        """
        if value is INF:
            a, b = MultiPoly.one(self.universe), MultiPoly.zero(self.universe)
        elif var in value.vars_used():
            raise ValueError(f"substitution value must not involve {var}")
        else:
            a, b = value.num, value.den
        n, num = _homogenized(self.num, var, a, b)
        m, den = _homogenized(self.den, var, a, b)
        if n > m:
            den = den * b ** (n - m)
        else:
            num = num * b ** (m - n)
        if den.is_zero():
            if num.is_zero():
                raise ArithmeticError("0/0 impossible for lowest-terms input")
            return INF
        return RationalFunction(num, den)

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
        """Re-express over `new_universe`.  Reordering the variables keeps
        numerator and denominator coprime but can move the graded-lex
        leader, so the denominator is made monic again."""
        num, den = _monic_den(
            self.num.with_universe(new_universe), self.den.with_universe(new_universe)
        )
        return RationalFunction(num, den, _normalized=True)

    # -- display ----------------------------------------------------------------

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _whole(p: MultiPoly) -> dict[MultiPoly, int]:
    """The one-factor map of p: its monic part, or nothing for a constant."""
    return {} if p.is_constant() else {p.primitive_monic()[1]: 1}


def _merge(a: dict[MultiPoly, int], b: dict[MultiPoly, int]) -> dict[MultiPoly, int]:
    """The factor map of a product; the maps themselves are never changed."""
    if not a or not b:
        return a or b
    out = dict(a)
    for p, k in b.items():
        out[p] = out.get(p, 0) + k
    return out


def _normalize(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    if num.is_zero():
        return num, MultiPoly.one(num.universe)
    g = poly_gcd(num, den)
    if not g.is_constant():
        num, den = _exact_quotient(num, g), _exact_quotient(den, g)
    return _monic_den(num, den)


def _monic_den(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """The same quotient with the denominator's leading coefficient 1."""
    unit, den = den.primitive_monic()
    if not unit.is_one():
        num = num.scale(unit.inverse())
    return num, den


def _homogenized(p: MultiPoly, var: str, a: MultiPoly, b: MultiPoly) -> tuple[int, MultiPoly]:
    """(n, sum_k p_k a^k b^(n-k)) for p = sum_k p_k var^k of degree n in var
    (0 for the zero polynomial), by Horner's rule with a running power of b."""
    coeffs = p.coeffs_in(var)
    n = max(coeffs, default=0)
    acc, power = MultiPoly.zero(p.universe), MultiPoly.one(p.universe)
    for k in range(n, -1, -1):
        acc = acc * a
        if k in coeffs:
            acc = acc + coeffs[k] * power
        power = power * b
    return n, acc
