"""Fixed-precision p-adic arithmetic, the branch-dependent p-adic logarithm,
the dilogarithm Li_{p,2} on its convergence disc, and the branch difference
of a formal sum's value at a rational point.

A PadicNumber is p^val * unit with the unit kept modulo p^prec, so the
value is known modulo p^(val+prec); a number whose digits have all
cancelled is kept as an explicit O(p^val) with unit 0.  Every operation
propagates a precision lower bound; nothing ever claims digits it does not
have.

The logarithm on Q_p* splits as log(p^v u) = v*log(p) + log(u), where
log(p) is exactly the free choice of branch, the Teichmueller part of u is
torsion (so any homomorphism into Q_p kills it), and the principal-unit
part is handled by the usual series, reached by raising u to the (p-1)-st
power (squaring, for p = 2) and dividing the result back out.

On the disc v_p(z) >= 1:
    D_p(z) = Li_{p,2}(z) + (1/2) log(z) log(1-z),
and for two branches differing by Delta = logA(p) - logB(p), the value of
a formal sum sum a [z] at a rational point moves by

    sum a * Delta/2 * (v(z) log(1-z) - v(1-z) log(z)),

the bracket being branch-independent, which is what branch_diff computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .primes import int_quotient, strip_power


EXACT = 10**9  # valuation sentinel for an exact zero


def _require_base(p: int):
    if p < 2:
        raise ValueError(f"a p-adic base must be at least 2, got {p}")


@lru_cache(maxsize=1024)
def _power(p: int, k: int) -> int:
    """p**k, cached as `primes._factor_int` is: a computation at one
    precision reduces modulo the same few powers in every operation."""
    return p**k


def _same_prime(a: "PadicNumber", b: "PadicNumber"):
    if a.p != b.p:
        raise ValueError(f"cannot combine {a.p}-adic and {b.p}-adic numbers")


@dataclass(frozen=True)
class PadicNumber:
    """p^val * (unit + O(p^prec)); unit == 0 encodes O(p^val)."""

    p: int
    val: int
    unit: int
    prec: int

    def __post_init__(self):
        _require_base(self.p)
        if self.unit:
            if not 0 < self.unit < _power(self.p, self.prec) or self.unit % self.p == 0:
                raise ValueError(f"unit {self.unit} is not a unit mod {self.p}^{self.prec}")
        elif self.prec:
            raise ValueError("a zero unit needs prec 0")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(p: int, abs_prec: int = EXACT) -> "PadicNumber":
        return PadicNumber(p, min(abs_prec, EXACT), 0, 0)

    @staticmethod
    def from_rational(q, p: int, prec: int) -> "PadicNumber":
        if prec < 1:
            raise ValueError(f"precision must be at least 1, got {prec}")
        q = Fraction(q)
        if q == 0:
            return PadicNumber.zero(p)
        # q = p^v * n / d with p dividing neither n nor d
        _require_base(p)
        n, e = strip_power(q.numerator, p, int_quotient)
        d, f = strip_power(q.denominator, p, int_quotient)
        v = e - f
        m = _power(p, prec)
        # p divides neither n nor d, so the unit is not 0 mod p
        return PadicNumber(p, v, (n % m) * pow(d, -1, m) % m, prec)

    # -- structure ----------------------------------------------------------

    def abs_precision(self) -> int:
        """The value is known modulo p to this power."""
        if self.unit == 0:
            return self.val
        return self.val + self.prec

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        a, b = self, other
        _same_prime(a, b)
        p = a.p
        if a.unit == 0 and b.unit == 0:
            return PadicNumber.zero(p, min(a.val, b.val))
        if a.unit == 0:
            a, b = b, a
        if b.unit == 0:
            # a + O(p^{b.val})
            cap = min(a.abs_precision(), b.val)
            if cap <= a.val:
                return PadicNumber.zero(p, cap)
            return PadicNumber(p, a.val, a.unit % _power(p, cap - a.val), cap - a.val)
        cap = min(a.abs_precision(), b.abs_precision())
        v = min(a.val, b.val)
        digits = cap - v
        if digits <= 0:
            return PadicNumber.zero(p, cap)
        m = _power(p, digits)
        s = (a.unit * _power(p, a.val - v) + b.unit * _power(p, b.val - v)) % m
        if s == 0:
            return PadicNumber.zero(p, cap)
        s, k = strip_power(s, p, int_quotient)
        if digits - k <= 0:
            return PadicNumber.zero(p, cap)
        return PadicNumber(p, v + k, s % _power(p, digits - k), digits - k)

    def __neg__(self) -> "PadicNumber":
        if self.unit == 0:
            return self
        m = _power(self.p, self.prec)
        return PadicNumber(self.p, self.val, (m - self.unit) % m, self.prec)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        a, b = self, other
        _same_prime(a, b)
        p = a.p
        if a.unit == 0 or b.unit == 0:
            # O(p^x) times p^y-unit (or O(p^y)) is O(p^{x+y})
            return PadicNumber.zero(p, min(a.val + b.val, EXACT))
        prec = min(a.prec, b.prec)
        m = _power(p, prec)
        u = (a.unit * b.unit) % m
        return PadicNumber(p, a.val + b.val, u, prec)

    def __pow__(self, n: int) -> "PadicNumber":
        p = self.p
        if self.unit:
            return PadicNumber(p, self.val * n, pow(self.unit, n, _power(p, self.prec)), self.prec)
        if n < 0:
            raise ZeroDivisionError("inverse of zero (at this precision)")
        if n == 0:
            return PadicNumber.from_rational(1, p, 1)
        return PadicNumber.zero(p, min(self.val * n, EXACT))

    def scale_rational(self, q) -> "PadicNumber":
        q = Fraction(q)
        if q == 0:
            return PadicNumber.zero(self.p)
        prec = self.prec if self.unit else 8
        return self * PadicNumber.from_rational(q, self.p, max(prec, 1))

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.unit == 0:
            if self.val >= EXACT:
                return "0"
            return f"O({self.p}^{self.val})"
        return f"{self.p}^{self.val} * {self.unit} + O({self.p}^{self.abs_precision()})"

    def __repr__(self):
        return f"PadicNumber({self})"


def _series(z: PadicNumber, coefficient, log_power: int) -> PadicNumber:
    """sum_{k>=1} coefficient(k) z^k to z's absolute precision, for a
    nonzero z of valuation s >= 1 and v_p(coefficient(k)) >= -m*log2(k),
    m = log_power.

    Tail bound: v(coefficient(j) z^j) >= j*s - m*log2(j), increasing in j
    for j > m, so once it clears the target every later term is invisible."""
    s, m = z.val, log_power
    target = z.abs_precision()
    total = PadicNumber.zero(z.p)
    term = z
    k = 1
    while True:
        total = total + term.scale_rational(coefficient(k))
        k += 1
        if k > m and k * s - m * (k.bit_length() - 1) > target + m + 1:
            return total
        term = term * z


def _log_principal(t: PadicNumber) -> PadicNumber:
    """log(1 + t) for v_p(t) >= 1 (>= 2 when p = 2), by the series."""
    if t.unit == 0:
        return PadicNumber.zero(t.p, t.val)
    if t.val < (2 if t.p == 2 else 1):
        raise ArithmeticError(f"the log series needs v_p(t) large enough, got {t.val}")
    return _series(t, lambda k: Fraction((-1) ** (k + 1), k), 1)


def plog(x: PadicNumber, log_p: PadicNumber) -> PadicNumber:
    """The logarithm on Q_p* of the branch whose value at p is log_p:
    val*log_p + log(unit part)."""
    if x.unit == 0:
        raise ZeroDivisionError("log of zero")
    p = x.p
    e = 2 if p == 2 else p - 1
    # u^e is a principal unit; log(u) = log(u^e)/e kills the torsion part
    u = PadicNumber(p, 0, x.unit, x.prec)
    ue = u**e
    one = PadicNumber.from_rational(1, p, x.prec)
    t = ue - one
    lu = _log_principal(t).scale_rational(Fraction(1, e))
    return log_p.scale_rational(x.val) + lu


def li2p(z: PadicNumber) -> PadicNumber:
    """Li_{p,2}(z) = sum z^n / n^2 on the disc v_p(z) >= 1."""
    if z.unit == 0:
        if z.val < 1:
            raise ValueError("need v_p(z) >= 1")
        return PadicNumber.zero(z.p, min(z.val, EXACT))
    if z.val < 1:
        raise ValueError(f"need v_p(z) >= 1, got valuation {z.val}")
    return _series(z, lambda k: Fraction(1, k * k), 2)


def dp_disc(z: PadicNumber, log_p: PadicNumber) -> PadicNumber:
    """D_p(z) = Li_{p,2}(z) + (1/2) log(z) log(1-z) on the disc, with the
    branch of log whose value at p is log_p."""
    if z.unit == 0:
        return li2p(z)
    if z.val < 1:
        raise ValueError(f"need v_p(z) >= 1, got valuation {z.val}")
    one = PadicNumber.from_rational(1, z.p, z.prec)
    lz = plog(z, log_p)
    l1z = plog(one - z, log_p)
    return li2p(z) + (lz * l1z).scale_rational(Fraction(1, 2))


# ---------------------------------------------------------------------------
# branch dependence of certified identities
# ---------------------------------------------------------------------------


def branch_diff(value, log_a: PadicNumber, log_b: PadicNumber, prec: int = 32) -> PadicNumber:
    """How much the p-adic value of a formal sum at a point moves between
    the two branches whose values of log_p(p) are log_a and log_b: over its
    terms a[z], sum a * Delta/2 * (v(z)log(1-z) - v(1-z)log(z)), with
    Delta = log_a - log_b.  The bracket is branch-independent, so it is
    evaluated with log_a.

    `value` is the sum's exact value at the point, as
    specialize.evaluate_at_point returns it: constant arguments, none of
    them 0 or 1."""
    p = log_a.p
    delta = log_a - log_b
    total = PadicNumber.zero(p)
    for f, a in value.items():
        z = f.constant_value()
        if not z.is_rational():
            raise ValueError("p-adic evaluation needs rational values")
        zp = PadicNumber.from_rational(z.re, p, prec)
        wp = PadicNumber.from_rational(1 - z.re, p, prec)  # w = 1 - z
        bracket = plog(wp, log_a).scale_rational(zp.val) - plog(zp, log_a).scale_rational(wp.val)
        total = total + (delta * bracket).scale_rational(a * Fraction(1, 2))
    return total
