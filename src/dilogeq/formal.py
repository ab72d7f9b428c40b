"""Formal A-linear combinations of dilogarithm arguments.

A FormalSum is a finite map from rational functions f (with f != 0, 1 --
the admissible arguments) to nonzero exact coefficients.  Coefficients live
in Z or Q per the sum's coeff_mode: Z-mode keeps denominators out (and
downstream lets mod-2 sign torsion survive), Q-mode is the torsion-free
quotient.  The field_mode records whether keys may carry Gaussian rational
coefficients ("Qi") or must stay over Q ("Q").

Relation generators:
  five_term(x, y)  = [x] - [y] + [y/x] + [(1-x)/(1-y)] - [(1-x^-1)/(1-y^-1)]
  inversion(x)     = [x] + [1/x]
  c_element(c)     = [c] + [1-c]
each built from its arguments as pairs, which the FormalSum constructor
merges, so equal arguments collapse into one term.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .poly import join_signed
from .ratfunc import RationalFunction


FIELD_MODES = ("Q", "Qi")
COEFF_MODES = ("Z", "Q")


def _check_coeff(c: Fraction, coeff_mode: str) -> Fraction:
    c = Fraction(c)
    if coeff_mode == "Z" and c.denominator != 1:
        raise ValueError(f"coefficient {c} is not an integer (coefficients: Z)")
    return c


def check_term(f: RationalFunction, c, universe, coeff_mode: str) -> Fraction:
    """The coefficient of the term c [f], checked as FormalSum checks it;
    raises ValueError.  A zero coefficient leaves f unchecked."""
    c = _check_coeff(c, coeff_mode)
    if c:
        if f.is_zero() or f.is_one():
            raise ValueError(f"argument {f} outside the admissible set")
        if f.universe != universe:
            raise ValueError("term universe mismatch")
    return c


def _term_text(c: Fraction, symbol: str) -> str:
    """The text of the term c symbol: symbol, -symbol or c*symbol."""
    if c == 1:
        return symbol
    if c == -1:
        return "-" + symbol
    return f"{c}*{symbol}"


class FormalSum:
    __slots__ = ("universe", "field_mode", "coeff_mode", "terms")

    def __init__(
        self,
        universe,
        terms: Mapping[RationalFunction, Fraction] | Iterable[tuple[RationalFunction, Fraction]],
        field_mode: str = "Q",
        coeff_mode: str = "Z",
    ):
        """`terms` maps arguments to coefficients, or lists (argument,
        coefficient) pairs: the free abelian group law, so the coefficients
        of a repeated argument are summed, each total is checked as
        check_term checks it, and the arguments whose total is 0 drop out."""
        if field_mode not in FIELD_MODES:
            raise ValueError(f"unknown field mode {field_mode!r}")
        if coeff_mode not in COEFF_MODES:
            raise ValueError(f"unknown coefficient mode {coeff_mode!r}")
        self.universe = tuple(universe)
        self.field_mode = field_mode
        self.coeff_mode = coeff_mode
        totals = {}
        for f, c in terms.items() if isinstance(terms, Mapping) else terms:
            totals[f] = totals[f] + c if f in totals else c
        self.terms: dict[RationalFunction, Fraction] = {}
        for f, c in totals.items():
            c = check_term(f, c, self.universe, coeff_mode)
            if c:
                self.terms[f] = c

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(universe, field_mode="Q", coeff_mode="Z") -> "FormalSum":
        return FormalSum(universe, {}, field_mode, coeff_mode)

    @staticmethod
    def single(f: RationalFunction, coeff=1, field_mode="Q", coeff_mode="Z") -> "FormalSum":
        return FormalSum(f.universe, {f: coeff}, field_mode, coeff_mode)

    # -- structure ---------------------------------------------------------

    def items(self) -> list[tuple[RationalFunction, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.field_mode == other.field_mode
            and self.coeff_mode == other.coeff_mode
            and self.terms == other.terms
        )

    def _check_compatible(self, other: "FormalSum"):
        if (
            self.universe != other.universe
            or self.field_mode != other.field_mode
            or self.coeff_mode != other.coeff_mode
        ):
            raise ValueError("formal sums live over different settings")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "FormalSum") -> "FormalSum":
        self._check_compatible(other)
        pairs = [*self.terms.items(), *other.terms.items()]
        return FormalSum(self.universe, pairs, self.field_mode, self.coeff_mode)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __neg__(self) -> "FormalSum":
        return FormalSum(
            self.universe,
            {f: -c for f, c in self.terms.items()},
            self.field_mode,
            self.coeff_mode,
        )

    def scale(self, c) -> "FormalSum":
        c = _check_coeff(c, self.coeff_mode)
        return FormalSum(
            self.universe,
            {f: c * a for f, a in self.terms.items()},
            self.field_mode,
            self.coeff_mode,
        )

    def with_universe(self, new_universe) -> "FormalSum":
        return FormalSum(
            new_universe,
            {f.with_universe(new_universe): c for f, c in self.terms.items()},
            self.field_mode,
            self.coeff_mode,
        )

    # -- display -------------------------------------------------------------

    def __str__(self):
        return join_signed(_term_text(c, f"[{f}]") for f, c in self.items())

    def __repr__(self):
        return f"FormalSum({self})"


class ExtendedFormalSum:
    """A FormalSum plus explicit coefficients for the symbols [0], [1], [inf]."""

    __slots__ = ("ordinary", "c0", "c1", "cinf")

    def __init__(self, ordinary: FormalSum, c0=0, c1=0, cinf=0):
        self.ordinary = ordinary
        self.c0 = _check_coeff(c0, ordinary.coeff_mode)
        self.c1 = _check_coeff(c1, ordinary.coeff_mode)
        self.cinf = _check_coeff(cinf, ordinary.coeff_mode)

    def __eq__(self, other):
        if not isinstance(other, ExtendedFormalSum):
            return NotImplemented
        return (
            self.ordinary == other.ordinary
            and self.c0 == other.c0
            and self.c1 == other.c1
            and self.cinf == other.cinf
        )

    def __str__(self):
        pieces = [_term_text(c, f"[{f}]") for f, c in self.ordinary.items()]
        for c, sym in ((self.c0, "[0]"), (self.c1, "[1]"), (self.cinf, "[inf]")):
            if c:
                pieces.append(_term_text(c, sym))
        return join_signed(pieces)

    def __repr__(self):
        return f"ExtendedFormalSum({self})"


# ---------------------------------------------------------------------------
# relation generators
# ---------------------------------------------------------------------------


def _admissible(f: RationalFunction, label: str) -> RationalFunction:
    if f.is_zero() or f.is_one():
        raise ValueError(f"{label} = {f} lies in {{0, 1}}")
    return f


def five_term(
    x: RationalFunction, y: RationalFunction, field_mode="Q", coeff_mode="Z"
) -> FormalSum:
    """[x] - [y] + [y/x] + [(1-x)/(1-y)] - [(1-1/x)/(1-1/y)], merged."""
    if x == y:
        raise ValueError("x = y degenerates the relation")
    _admissible(x, "x")
    _admissible(y, "y")
    # with x and y admissible no divisor vanishes: each does only at x = 0 or y = 1
    a3 = _admissible(y / x, "y/x")
    a4 = _admissible(x.one_minus() / y.one_minus(), "(1-x)/(1-y)")
    a5 = _admissible(x.inverse().one_minus() / y.inverse().one_minus(), "(1-1/x)/(1-1/y)")
    pairs = ((x, 1), (y, -1), (a3, 1), (a4, 1), (a5, -1))
    return FormalSum(x.universe, pairs, field_mode, coeff_mode)


def inversion(x: RationalFunction, field_mode="Q", coeff_mode="Z") -> FormalSum:
    """[x] + [1/x], merged (x = -1 gives 2[-1])."""
    _admissible(x, "x")
    return FormalSum(x.universe, ((x, 1), (x.inverse(), 1)), field_mode, coeff_mode)


def c_element(c: RationalFunction, field_mode="Q", coeff_mode="Z") -> FormalSum:
    """[c] + [1-c], merged (c = 1/2 gives 2[1/2])."""
    _admissible(c, "c")
    return FormalSum(c.universe, ((c, 1), (c.one_minus(), 1)), field_mode, coeff_mode)


def conj_sum(alpha: FormalSum, var_swap: dict[str, str] | None = None) -> FormalSum:
    """Conjugate every argument; coefficients are left untouched."""
    pairs = [(f.conjugate(var_swap), c) for f, c in alpha.terms.items()]
    return FormalSum(alpha.universe, pairs, alpha.field_mode, alpha.coeff_mode)
