"""Exact scalar arithmetic over Q and Q(i).

A FieldElement is a pair of Fractions (re, im); rational values simply have
im == 0.  All arithmetic is exact, Fractions keep themselves in lowest terms.
Whether a computation treats values as living in Q or in Q(i) is contextual
state of the caller (a formal sum carries a field mode); the scalars
themselves are mode-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"expected a rational value, got {x!r}")


@dataclass(frozen=True)
class FieldElement:
    """An element a + b*i with a, b exact rationals."""

    re: Fraction
    im: Fraction = _ZERO

    # -- constructors ------------------------------------------------

    @staticmethod
    def of(re, im=0) -> "FieldElement":
        return FieldElement(_as_fraction(re), _as_fraction(im))

    @staticmethod
    def i() -> "FieldElement":
        return FieldElement(_ZERO, _ONE)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def is_rational(self) -> bool:
        return not self.im

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.re, -self.im)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if not self.im and not other.im:
            return FieldElement(self.re * other.re, _ZERO)
        return FieldElement(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if not self.im:
            return FieldElement(1 / self.re, _ZERO)
        n = self.re * self.re + self.im * self.im
        return FieldElement(self.re / n, -self.im / n)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "FieldElement":
        return FieldElement(self.re, -self.im)

    def scale(self, q: Fraction) -> "FieldElement":
        return FieldElement(self.re * q, self.im * q)

    # -- norms and keys ----------------------------------------------

    def norm(self) -> Fraction:
        """Field norm a^2 + b^2 (a rational, >= 0)."""
        return self.re * self.re + self.im * self.im

    def sort_key(self):
        return (
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        )

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- display -----------------------------------------------------

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re} {sign} {istr}"

    def __repr__(self) -> str:
        return f"FieldElement({self})"


ZERO = FieldElement(_ZERO)
ONE = FieldElement(_ONE)
MINUS_ONE = FieldElement(Fraction(-1))
I = FieldElement(_ZERO, _ONE)


def fe(re, im=0) -> FieldElement:
    """Shorthand constructor accepting ints, Fractions, or strings."""
    if isinstance(re, str):
        re = Fraction(re)
    if isinstance(im, str):
        im = Fraction(im)
    return FieldElement.of(re, im)
