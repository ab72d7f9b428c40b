"""Exact scalar arithmetic over Q and Q(i).

A FieldElement stores three Python ints (a, b, d) for the value
(a + b*i) / d, with d > 0 and gcd(a, b, d) = 1.  That form is canonical:
equal values have equal triples, so equality and hashing compare the ints,
and zero is (0, 0, 1).  Every operation is integer arithmetic followed by
one three-way gcd in `_make`, the one constructor that normalizes (the
inverse of a rational d/a is already in lowest terms and skips it); d is
the lcm of the denominators of the two parts in lowest terms.

`re` stays available as a read-only `Fraction` view, built on demand, for
callers that want the real part as a rational (p-adic points, the
real-part criterion); the arithmetic never goes through it, and neither
does `str`, which prints parts of any length.
Rational values simply have b == 0.  Whether a computation treats values as
living in Q or in Q(i) is contextual state of the caller (a formal sum
carries a field mode); the scalars themselves are mode-agnostic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational


def _parts(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational value in lowest terms."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Rational):
        return x.numerator, x.denominator
    raise TypeError(f"expected a rational value, got {x!r}")


def _make(a: int, b: int, d: int) -> "FieldElement":
    """(a + b*i) / d in canonical form; d must be nonzero."""
    if d < 0:
        a, b, d = -a, -b, -d
    if d != 1:
        g = gcd(d, a, b)  # gcd returns at once from 1, so d goes first
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(FieldElement)
    x.a = a
    x.b = b
    x.d = d
    return x


class FieldElement:
    """An element (a + b*i) / d of Q(i), kept in canonical form."""

    __slots__ = ("a", "b", "d")

    def __new__(cls, re, im=0):
        ra, rd = _parts(re)
        ia, id_ = _parts(im)
        return _make(ra * id_, ia * rd, rd * id_)

    # -- parts ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_one(self) -> bool:
        return self.a == 1 and self.d == 1 and not self.b

    def is_rational(self) -> bool:
        return not self.b

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _make(self.a + other.a, self.b + other.b, d1)
        return _make(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _make(self.a - other.a, self.b - other.b, d1)
        return _make(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __neg__(self) -> "FieldElement":
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not b1 and not b2:
            return _make(a1 * a2, 0, self.d * other.d)
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def inverse(self) -> "FieldElement":
        a, b, d = self.a, self.b, self.d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero")
            # gcd(a, d) is already 1, so d / a needs only its sign fixed
            x = _new(FieldElement)
            x.a, x.b, x.d = (-d, 0, -a) if a < 0 else (d, 0, a)
            return x
        return _make(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def conjugate(self) -> "FieldElement":
        return _make(self.a, -self.b, self.d)

    def scale(self, q) -> "FieldElement":
        """self * q for a rational q (an int or a Fraction)."""
        n, m = _parts(q)
        return _make(self.a * n, self.b * n, self.d * m)

    # -- equality, norms and keys ------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not FieldElement:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def sort_key(self):
        """(re.numerator, re.denominator, im.numerator, im.denominator)."""
        a, b, d = self.a, self.b, self.d
        ga, gb = gcd(a, d), gcd(b, d)
        return (a // ga, d // ga, b // gb, d // gb)

    def to_complex(self) -> complex:
        # int true division is correctly rounded, as Fraction's float is
        return complex(self.a / self.d, self.b / self.d)

    # -- display -----------------------------------------------------

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if not b:
            return _ratio_str(a, d)
        im = "i" if abs(b) == d else _ratio_str(abs(b), d) + "*i"
        if not a:
            return im if b > 0 else "-" + im
        return f"{_ratio_str(a, d)} {'+' if b > 0 else '-'} {im}"

    def __repr__(self) -> str:
        return f"FieldElement({self})"

    def __reduce__(self):
        return (_make, (self.a, self.b, self.d))


_new = object.__new__

# below the least int-to-str digit limit Python allows (640 digits)
_SHORT = 10**600


def _decimal(n: int) -> str:
    """n in decimal, however many digits it has: a long n is split at a
    power of ten near its middle digit until every part is short, so the
    interpreter's int-to-str limit is never reached and never changed."""
    if -_SHORT < n < _SHORT:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    hi, lo = divmod(n, 10**k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _ratio_str(n: int, d: int) -> str:
    """n / d (d > 0) in lowest terms, printed as `Fraction` prints it."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"

ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
MINUS_ONE = _make(-1, 0, 1)
I = _make(0, 1, 1)

fe = FieldElement  # the short name callers build constants with
