"""Prime factorization of exact constants in Q and Q(i).

Rational constants split as (-1)^s * prod p^e over positive primes; Gaussian
constants split as i^k * prod pi^e over Gaussian primes normalized to the
first quadrant (re > 0, im >= 0), the unique such associate.  Factoring is
by trial division over Z up to FACTOR_BOUND = 10**6.  A residual is prime
once no divisor up to its square root is left, which certifies primes up
to the bound squared; a residual that the bound leaves unproven raises
OversizedConstant instead of guessing.

Gaussian integers are `FieldElement`s with d == 1; their arithmetic is that
of `scalars`, and pi divides z in Z[i] exactly when the quotient z / pi has
d == 1.  For c = (a + bi) / d, write a + bi = g * w with g = gcd(a, b): the
rational primes under c are those of g, of the norm of w and of d, all far
smaller than the norm g^2 * N(w).  Over each such p lie the first-quadrant
Gaussian primes: 1 + i for p = 2 (ramified), p itself for p = 3 mod 4
(inert), and for p = 1 mod 4 the gcd pi of p and x + i in Z[i], where
x^2 = -1 mod p, with the associate of its conjugate (split).  Each is
stripped from the numerator a + bi and from d; what is left of each is a
unit, whose power of i gives k.  `prime_key` is the one order of prime
factors in both modes.  Every factorization is exactly invertible:
multiplying the unit and the prime powers back reproduces the input (the
tests check every factorization with `reconstruct` in tests/helpers.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, log10

from .scalars import I, FieldElement, fe


FACTOR_BOUND = 10**6
_SHOWN_DIGITS = 60


class OversizedConstant(ValueError):
    """A constant's factorization needs a prime above the trial bound."""


@dataclass(frozen=True)
class UnitPrimeFactorization:
    """c = unit_generator^unit_exponent * prod prime^exponent, exactly.

    The unit generator is -1 (rational mode, exponent mod 2) or i (Gaussian
    mode, exponent mod 4).  Factors are in `prime_key` order.
    """

    gaussian: bool
    unit_exponent: int
    factors: tuple[tuple[FieldElement, int], ...]


@lru_cache(maxsize=1024)
def _factor_int(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 by trial division with divisors up to FACTOR_BOUND, as
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
        if p > FACTOR_BOUND:
            raise OversizedConstant(
                f"constant has a prime factor above the bound {FACTOR_BOUND}: "
                f"residual {_residual_text(n)}"
            )
        if n % p:
            continue
        # Strip the power of p in O(log e) divisions, not e: divide by p,
        # p^2, p^4, ... while each divides, leaving an exponent below the
        # next square, then by the same powers from the largest down.
        powers = []
        q, e = p, 0
        while True:
            quo, rem = divmod(n, q)
            if rem:
                break
            n = quo
            e += 1 << len(powers)
            powers.append(q)
            q *= q
        for i in range(len(powers) - 1, -1, -1):
            quo, rem = divmod(n, powers[i])
            if not rem:
                n = quo
                e += 1 << i
        out[p] = e
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(out.items())


def _residual_text(n: int) -> str:
    """n in decimal, or its digit count when n has more than
    _SHOWN_DIGITS digits (Python refuses to format an int of more than
    4300 digits by default)."""
    if n < 10**_SHOWN_DIGITS:
        return str(n)
    digits = int(log10(n)) + 1
    # log10 is a float: correct the count by exact comparisons
    while 10 ** (digits - 1) > n:
        digits -= 1
    while 10**digits <= n:
        digits += 1
    return f"of {digits} digits"


def _trial_sequence():
    yield 2
    p = 3
    while True:
        yield p
        p += 2


def factor_rational(q: Fraction | int):
    """q != 0 -> (sign_exponent in {0,1}, {prime: exponent})."""
    if q == 0:
        raise ValueError("cannot factor zero")
    sign = 1 if q < 0 else 0
    out = dict(_factor_int(abs(q.numerator)))
    for p, e in _factor_int(q.denominator):
        out[p] = out.get(p, 0) - e
    return sign, {p: e for p, e in out.items() if e}


def is_prime(n: int) -> bool:
    """Whether n is a prime integer, by the trial division above; raises
    OversizedConstant when n has no divisor up to FACTOR_BOUND and
    is too large for that bound to prove it prime."""
    return isinstance(n, int) and n >= 2 and factor_rational(n)[1] == {n: 1}


# -- Gaussian integers --------------------------------------------------------


def prime_key(p: FieldElement):
    """The order of prime factors, for Z and Z[i] alike: by norm, then by
    real and imaginary part."""
    return (p.a * p.a + p.b * p.b, p.a, p.b)


def _ggcd(z: FieldElement, w: FieldElement) -> FieldElement:
    """A gcd of the Gaussian integers z and w, by Euclid's algorithm: the
    quotient rounded to the nearest Gaussian integer leaves a remainder of
    at most half the divisor's norm."""
    while not w.is_zero():
        q = z / w
        n = 2 * q.d  # round each part of q to the nearest integer
        z, w = w, z - FieldElement((2 * q.a + q.d) // n, (2 * q.b + q.d) // n) * w
    return z


def _first_quadrant(z: FieldElement) -> tuple[int, FieldElement]:
    """(k, w) with z = i^k * w and w in the first quadrant (re > 0, im >= 0)."""
    for k in range(4):
        if z.a > 0 and z.b >= 0:
            return -k % 4, z
        z = z * I
    raise ValueError("zero has no quadrant normal form")


def _sqrt_minus_one(p: int) -> int:
    for r in range(2, p):
        if pow(r, (p - 1) // 2, p) == p - 1:
            return pow(r, (p - 1) // 4, p)
    raise ArithmeticError(f"no square root of -1 mod {p}")  # unreachable for p=1 mod 4


@lru_cache(maxsize=1024)
def _gaussian_primes_over(p: int) -> tuple[FieldElement, ...]:
    """The first-quadrant Gaussian primes that divide the rational prime p;
    cached, as `_factor_int` is."""
    if p == 2:
        return (FieldElement(1, 1),)
    if p % 4 == 3:
        return (FieldElement(p),)
    pi = _first_quadrant(_ggcd(FieldElement(p), FieldElement(_sqrt_minus_one(p), 1)))[1]
    return pi, _first_quadrant(pi.conjugate())[1]


def _strip(z: FieldElement, pi: FieldElement) -> tuple[FieldElement, int]:
    """(w, e) with z = pi^e * w and pi not dividing w in Z[i]."""
    e, q = 0, z / pi
    while q.d == 1:  # q is a Gaussian integer
        z, e, q = q, e + 1, q / pi
    return z, e


def _factor_gaussian(c: FieldElement) -> tuple[int, list[tuple[FieldElement, int]]]:
    """(unit exponent mod 4, [(prime, exponent)]) of c = (a + bi) / d."""
    g = gcd(c.a, c.b)
    norm = (c.a // g) ** 2 + (c.b // g) ** 2
    rational = {p for n in (g, norm, c.d) for p, _ in _factor_int(n)}
    num, den = FieldElement(c.a, c.b), FieldElement(c.d)
    factors = []
    for p in rational:
        for pi in _gaussian_primes_over(p):
            num, e = _strip(num, pi)
            den, f = _strip(den, pi)
            if e != f:
                factors.append((pi, e - f))
    (k_num, one_num), (k_den, one_den) = _first_quadrant(num), _first_quadrant(den)
    if not (one_num.is_one() and one_den.is_one()):
        raise ArithmeticError(f"{c} leaves the non-units {num} and {den}")
    return (k_num - k_den) % 4, factors


def factor_constant(c: FieldElement, gaussian: bool) -> UnitPrimeFactorization:
    """Factor a nonzero exact constant per the mode's unit convention."""
    if c.is_zero():
        raise ValueError("cannot factor zero")
    if gaussian:
        unit, factors = _factor_gaussian(c)
    elif not c.is_rational():
        raise ValueError("rational mode cannot factor a Gaussian constant")
    else:
        unit, fac = factor_rational(c.re)
        factors = [(fe(p), e) for p, e in fac.items()]
    factors.sort(key=lambda t: prime_key(t[0]))
    return UnitPrimeFactorization(gaussian, unit, tuple(factors))
