"""Prime factorization of exact constants in Q and Q(i).

Rational constants split as (-1)^s * prod p^e over positive primes; Gaussian
constants split as i^k * prod pi^e over Gaussian primes normalized to the
first quadrant (re > 0, im >= 0), the unique such associate.  Factoring is
by trial division over Z up to a bound (default 10**6).  A residual is
prime once no divisor up to its square root is left, which certifies primes
up to the bound squared; a residual that the bound leaves unproven raises
OversizedConstant instead of guessing.  The rational primes under a
Gaussian integer z = g * w, g = gcd(re, im), are those of g and of the norm
of w; both are far smaller than the norm g^2 * N(w) of z.

Split primes p = 1 mod 4 are located as gcd(p, x + i) in Z[i] where
x^2 = -1 mod p; inert primes p = 3 mod 4 stay prime; 2 ramifies through
1 + i.  Every factorization is exactly invertible: multiplying the unit and
the prime powers back reproduces the input (tests rely on this oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .scalars import FieldElement, fe


DEFAULT_FACTOR_BOUND = 10**6


class OversizedConstant(ValueError):
    """A constant's factorization needs a prime above the trial bound."""


@dataclass(frozen=True)
class UnitPrimeFactorization:
    """c = unit_generator^unit_exponent * prod prime^exponent, exactly.

    The unit generator is -1 (rational mode, exponent mod 2) or i (Gaussian
    mode, exponent mod 4).  Factors are sorted by (norm, re, im).
    """

    gaussian: bool
    unit_exponent: int
    factors: tuple[tuple[FieldElement, int], ...]

    def reconstruct(self) -> FieldElement:
        unit = FieldElement.i() if self.gaussian else fe(-1)
        out = unit**self.unit_exponent
        for p, e in self.factors:
            out = out * p**e
        return out


@lru_cache(maxsize=1024)
def _factor_int(n: int, bound: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 by trial division with divisors up to bound, as
    ascending (prime, exponent) pairs; cached, so a process trial-divides
    each distinct integer once.

    A residual left once p * p > n has no divisor up to its square root,
    so it is prime whatever its size; only a residual still unproven when
    p passes the bound is an error.
    """
    out: dict[int, int] = {}
    for p in _trial_sequence():
        if p * p > n:
            break
        if p > bound:
            raise OversizedConstant(
                f"constant has a prime factor above the bound {bound}: residual {n}"
            )
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(out.items())


def _trial_sequence():
    yield 2
    p = 3
    while True:
        yield p
        p += 2


def factor_rational(q: Fraction | int, bound: int = DEFAULT_FACTOR_BOUND):
    """q != 0 -> (sign_exponent in {0,1}, {prime: exponent})."""
    if q == 0:
        raise ValueError("cannot factor zero")
    sign = 1 if q < 0 else 0
    out = dict(_factor_int(abs(q.numerator), bound))
    for p, e in _factor_int(q.denominator, bound):
        out[p] = out.get(p, 0) - e
    return sign, {p: e for p, e in out.items() if e}


def is_prime(n: int) -> bool:
    """Whether n is a prime integer, by the trial division above; raises
    OversizedConstant when n has no divisor up to the default bound and
    is too large for that bound to prove it prime."""
    return isinstance(n, int) and n >= 2 and factor_rational(n)[1] == {n: 1}


# -- Gaussian integers as coordinate pairs -----------------------------------


def _gnorm(z):
    return z[0] * z[0] + z[1] * z[1]


def _gmul(z, w):
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _gdiv_exact(z, w):
    """z / w in Z[i], or None when not divisible."""
    n = _gnorm(w)
    re = z[0] * w[0] + z[1] * w[1]
    im = z[1] * w[0] - z[0] * w[1]
    if re % n or im % n:
        return None
    return (re // n, im // n)


def _gdiv_round(z, w):
    n = _gnorm(w)
    re = z[0] * w[0] + z[1] * w[1]
    im = z[1] * w[0] - z[0] * w[1]
    # nearest integer, ties toward zero: fine for Euclid (norm shrinks)
    rq = (2 * re + n) // (2 * n) if re >= 0 else -((2 * -re + n) // (2 * n))
    iq = (2 * im + n) // (2 * n) if im >= 0 else -((2 * -im + n) // (2 * n))
    return (rq, iq)


def _ggcd(z, w):
    while w != (0, 0):
        q = _gdiv_round(z, w)
        z, w = w, (z[0] - _gmul(q, w)[0], z[1] - _gmul(q, w)[1])
    return z


def _first_quadrant(z):
    """z = i^k * w with w in the closed-lower/open-left first quadrant."""
    w, rot = z, 0
    while not (w[0] > 0 and w[1] >= 0):
        w = (-w[1], w[0])
        rot += 1
        if rot > 4:
            raise ValueError("zero has no quadrant normal form")
    return (4 - rot) % 4, w


def _sqrt_minus_one(p: int) -> int:
    for r in range(2, p):
        if pow(r, (p - 1) // 2, p) == p - 1:
            return pow(r, (p - 1) // 4, p)
    raise ArithmeticError(f"no square root of -1 mod {p}")  # unreachable for p=1 mod 4


def factor_gaussian_integer(z, bound: int = DEFAULT_FACTOR_BOUND):
    """Nonzero z in Z[i] -> (unit_exponent mod 4, {(re, im): exponent})."""
    if z == (0, 0):
        raise ValueError("cannot factor zero")
    g = gcd(z[0], z[1])
    primes = {p for p, _ in _factor_int(g, bound)}
    primes |= {p for p, _ in _factor_int(_gnorm((z[0] // g, z[1] // g)), bound)}
    out: dict[tuple[int, int], int] = {}
    for p in sorted(primes):
        if p == 2:
            reps = [(1, 1)]
        elif p % 4 == 3:
            reps = [(p, 0)]
        else:
            x = _sqrt_minus_one(p)
            pi = _ggcd((p, 0), (x, 1))
            _, pi = _first_quadrant(pi)
            _, pibar = _first_quadrant((pi[0], -pi[1]))
            reps = [pi, pibar]
        for rep in reps:
            while True:
                q = _gdiv_exact(z, rep)
                if q is None:
                    break
                z = q
                out[rep] = out.get(rep, 0) + 1
    if _gnorm(z) != 1:
        raise OversizedConstant(f"residual non-unit after trial division: {z}")
    unit, w = _first_quadrant(z)
    if w != (1, 0):
        raise ArithmeticError(f"{z} is not a unit times 1")
    return unit, out


def factor_constant(
    c: FieldElement, gaussian: bool, bound: int = DEFAULT_FACTOR_BOUND
) -> UnitPrimeFactorization:
    """Factor a nonzero exact constant per the mode's unit convention."""
    if c.is_zero():
        raise ValueError("cannot factor zero")
    if not gaussian:
        if not c.is_rational():
            raise ValueError("rational mode cannot factor a Gaussian constant")
        sign, fac = factor_rational(c.re, bound)
        factors = tuple(
            (fe(p), e) for p, e in sorted(fac.items())
        )
        return UnitPrimeFactorization(False, sign, factors)
    m = (c.re.denominator * c.im.denominator) // gcd(c.re.denominator, c.im.denominator)
    a = int(c.re * m)
    b = int(c.im * m)
    ku, fnum = factor_gaussian_integer((a, b), bound)
    kd, fden = factor_gaussian_integer((m, 0), bound)
    combined = dict(fnum)
    for rep, e in fden.items():
        combined[rep] = combined.get(rep, 0) - e
    combined = {rep: e for rep, e in combined.items() if e}
    ordered = sorted(combined.items(), key=lambda t: (_gnorm(t[0]), t[0]))
    factors = tuple(
        (FieldElement(Fraction(rep[0]), Fraction(rep[1])), e) for rep, e in ordered
    )
    return UnitPrimeFactorization(True, (ku - kd) % 4, factors)
