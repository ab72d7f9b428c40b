"""Fixed-precision p-adic arithmetic, the branch-dependent p-adic logarithm,
the dilogarithm Li_{p,2} on its convergence disc, and the branch difference
of a formal sum's value at a rational point.

A PadicNumber is p^val * unit with the unit kept modulo p^prec, so the
value is known modulo p^(val+prec); a number whose digits have all
cancelled is kept as an explicit O(p^val) with unit 0 and prec 0, and
every formula reads it as that number: a sum, product or power needs no
case of its own for it.  The exact zero is O(p^EXACT), and an exact zero
times anything stays exact.  Every operation propagates a precision lower
bound; nothing ever claims digits it does not have.

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
        """The value is known modulo p to this power (an O(p^val) has prec 0)."""
        return self.val + self.prec

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        a, b = self, other
        _same_prime(a, b)
        p = a.p
        # an O(p^w) is a number whose unit is 0: its absolute precision w
        # caps the sum, and it adds nothing below the cap
        cap = min(a.abs_precision(), b.abs_precision())
        v = min(a.val, b.val, cap)
        s = sum(x.unit * _power(p, x.val - v) for x in (a, b) if x.unit) % _power(p, cap - v)
        if s == 0:
            return PadicNumber.zero(p, cap)
        # s < p^(cap - v), so k < cap - v and a digit is left
        s, k = strip_power(s, p, int_quotient)
        return PadicNumber(p, v + k, s, cap - v - k)

    def __neg__(self) -> "PadicNumber":
        if self.unit == 0:
            return self
        return PadicNumber(self.p, self.val, _power(self.p, self.prec) - self.unit, self.prec)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        a, b = self, other
        _same_prime(a, b)
        p = a.p
        if a.unit == 0 or b.unit == 0:
            # O(p^x) times p^y * unit, or times O(p^y), is O(p^(x+y)); the
            # exact zero's val is no valuation to add, so it stays exact
            return PadicNumber.zero(p, EXACT if EXACT in (a.val, b.val) else a.val + b.val)
        prec = min(a.prec, b.prec)
        u = (a.unit * b.unit) % _power(p, prec)
        return PadicNumber(p, a.val + b.val, u, prec)

    def __pow__(self, n: int) -> "PadicNumber":
        p = self.p
        if self.unit:
            return PadicNumber(p, self.val * n, pow(self.unit, n, _power(p, self.prec)), self.prec)
        if n < 0:
            raise ZeroDivisionError("inverse of zero (at this precision)")
        if n == 0:
            return PadicNumber.from_rational(1, p, 1)
        return PadicNumber.zero(p, self.val * n)

    def scale_rational(self, q) -> "PadicNumber":
        return self * PadicNumber.from_rational(q, self.p, max(self.prec, 1))

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.unit == 0:
            if self.val >= EXACT:
                return "0"
            return f"O({self.p}^{self.val})"
        return f"{self.p}^{self.val} * {self.unit} + O({self.p}^{self.abs_precision()})"

    def __repr__(self):
        return f"PadicNumber({self})"


def _series(z: PadicNumber, power: int, alternating: bool) -> PadicNumber:
    """sum_{k>=1} c_k z^k / k^m to z's absolute precision, m = power and
    c_k = (-1)^(k+1) when alternating, else 1, for a nonzero z of valuation
    s >= 1.

    Tail bound: v(z^j / j^m) >= j*s - m*log2(j), increasing in j for
    j > m, so once it clears the target every later term is invisible.

    The terms k < n are summed as PadicNumbers of z's precision would sum
    them: with k = p^e_k * r_k, p not dividing r_k, term k is known modulo
    p^(v_k + prec), v_k = k*s - m*e_k, and the sum modulo p^cap, cap the
    least of those.  Horner's rule gives it, b_k = a_k + z*b_(k+1) with
    a_k = c_k p^(f - m*e_k) / r_k^m and f = m * max e_k, so that every a_k
    is integral and the sum is z*b_1 / p^f.  b_k matters only modulo
    p^(cap + f - k*s), so each step works to the digits it needs, and a_k
    takes one inverse of the small r_k^m."""
    p, s, m = z.p, z.val, power
    target = z.abs_precision()
    n = m + 1  # the terms k < n are the visible ones
    while n * s - m * (n.bit_length() - 1) <= target + m + 1:
        n += 1
    stripped = [strip_power(k, p, int_quotient) for k in range(1, n)]
    cap = min(k * s - m * e for k, (_, e) in enumerate(stripped, 1)) + z.prec
    f = m * max(e for _, e in stripped)
    # b_k vanishes modulo p^(cap + f - k*s) for k above top
    top = min(n - 1, (cap + f - 1) // s)
    step = _power(p, s)
    z_int = step * z.unit  # z as an integer
    mod, b = p ** (cap + f - top * s), 0
    for k in range(top, 0, -1):
        r, e = stripped[k - 1]
        a = pow(r**m, -1, mod) * _power(p, f - m * e)
        if alternating and not k % 2:
            a = -a
        b = (a + z_int * b) % mod
        mod *= step
    value = z_int * b % mod  # p^f times the sum, modulo p^(cap + f)
    if not value:
        return PadicNumber.zero(p, cap)
    unit, j = strip_power(value, p, int_quotient)
    return PadicNumber(p, j - f, unit, cap + f - j)


def _log_principal(t: PadicNumber) -> PadicNumber:
    """log(1 + t) for v_p(t) >= 1 (>= 2 when p = 2), by the series."""
    if t.unit == 0:
        return PadicNumber.zero(t.p, t.val)
    if t.val < (2 if t.p == 2 else 1):
        raise ArithmeticError(f"the log series needs v_p(t) large enough, got {t.val}")
    return _series(t, 1, True)


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
    if z.val < 1:
        raise ValueError(f"need v_p(z) >= 1, got valuation {z.val}")
    return _series(z, 2, False) if z.unit else PadicNumber.zero(z.p, z.val)


def dp_disc(z: PadicNumber, log_p: PadicNumber) -> PadicNumber:
    """D_p(z) = Li_{p,2}(z) + (1/2) log(z) log(1-z) on the disc, with the
    branch of log whose value at p is log_p."""
    li = li2p(z)
    if z.unit == 0:
        return li
    one = PadicNumber.from_rational(1, z.p, z.prec)
    lz = plog(z, log_p)
    l1z = plog(one - z, log_p)
    return li + (lz * l1z).scale_rational(Fraction(1, 2))


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
    specialize.evaluate_at_point returns it: the (z, a) pairs of field
    elements z, none of them 0 or 1, with their coefficients a."""
    p = log_a.p
    delta = log_a - log_b
    total = PadicNumber.zero(p)
    for z, a in value:
        if not z.is_rational():
            raise ValueError("p-adic evaluation needs rational values")
        zp = PadicNumber.from_rational(z.re, p, prec)
        wp = PadicNumber.from_rational(1 - z.re, p, prec)  # w = 1 - z
        bracket = plog(wp, log_a).scale_rational(zp.val) - plog(zp, log_a).scale_rational(wp.val)
        total = total + (delta * bracket).scale_rational(a * Fraction(1, 2))
    return total
