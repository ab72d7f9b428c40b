"""Prime factorization of exact constants in Q and Q(i).

Rational constants split as (-1)^s * prod p^e over positive primes; Gaussian
constants split as i^k * prod pi^e over Gaussian primes normalized to the
first quadrant (re > 0, im >= 0), the unique such associate.  Factoring is
by trial division over Z up to FACTOR_BOUND = 10**6.  A residual is prime
once no divisor up to its square root is left, which certifies primes up
to the bound squared; a residual that the bound leaves unproven raises
ValueError instead of guessing.

`is_prime`, which proves the primes given as options (`check --padic P`,
`padic-branch-diff --p P`, `blochfq P`) through `require_prime`, needs no
factoring: one Miller-Rabin test to the 13 prime bases 2..41 decides every
n below psi_13 = 3317044064679887385961981, and a probable prime at or
above it is refused rather than guessed.

Gaussian integers, the rational ones among them, are `FieldElement`s with
d == 1; their division is that of z * conj(pi).  Every prime power, over
Z and over Z[i] alike (and in the valuations of `padic`), comes out by one
`strip_power`, in O(log e) exact quotients for an exponent e.

Both modes factor c = (a + bi) / d by one loop.  Write a + bi = g * w
with g = gcd(a, b): the rational primes under c are those of g, of the
norm of w and of d, all far smaller than the norm g^2 * N(w).  Over each
such p lie the mode's primes: p itself in rational mode, and in Gaussian
mode the first-quadrant Gaussian primes: 1 + i for p = 2 (ramified), p
itself for p = 3 mod 4 (inert), and for p = 1 mod 4 the gcd pi of p and
x + i in Z[i], where x^2 = -1 mod p, with the associate of its conjugate
(split).  Each is stripped from the numerator a + bi and from d; what is
left of each is a unit i^k, so k is the Gaussian unit exponent and k // 2
the exponent of -1 = i^2.  A new field brings only its primes over p and
its unit group.  `prime_key` is the one order of prime factors in both
modes.  Every factorization is exactly invertible: multiplying the unit
and the prime powers back reproduces the input (the tests check every
factorization with `reconstruct` in tests/helpers.py).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .scalars import I, FieldElement, _decimal, _make


FACTOR_BOUND = 10**6
_SHOWN_DIGITS = 60


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
            raise ValueError(
                f"constant has a prime factor above the bound {FACTOR_BOUND}: "
                f"residual {_residual_text(n)}"
            )
        if not n % p:
            n, out[p] = strip_power(n, p, int_quotient)
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(out.items())


def strip_power(x, p, quotient):
    """(y, e) with x = p^e * y for a nonzero x, and p not dividing y.

    `quotient(x, q)` is the exact quotient x / q, or None when q does not
    divide x; ints and Gaussian integers each bring their own.
    x is divided by p, p^2, p^4, ... while each divides, which leaves an
    exponent below the next power, then by the same powers from the
    largest down: O(log e) quotients, not e.  Every power of a unit
    divides x, so a unit p raises ValueError instead of looping without
    end; p is a unit exactly when p * p divides p.
    """
    powers, e = [], 0
    while (y := quotient(x, p)) is not None:
        # a unit takes every turn, so the second one tests for it
        if len(powers) == 1 and quotient(powers[0], p) is not None:
            raise ValueError(f"cannot strip the powers of the unit {powers[0]}")
        x, e = y, e + (1 << len(powers))
        powers.append(p)
        p = p * p
    for i in range(len(powers) - 1, -1, -1):
        if (y := quotient(x, powers[i])) is not None:
            x, e = y, e + (1 << i)
    return x, e


def int_quotient(x: int, q: int) -> int | None:
    """x // q when q divides x, else None: the quotient `strip_power` takes
    over Z."""
    y, r = divmod(x, q)
    return None if r else y


def _residual_text(n: int) -> str:
    """n in decimal, or its digit count when n has more than _SHOWN_DIGITS
    digits."""
    text = _decimal(n)
    return text if len(text) <= _SHOWN_DIGITS else f"of {len(text)} digits"


def _trial_sequence():
    yield 2
    p = 3
    while True:
        yield p
        p += 2


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least composite that passes Miller-Rabin to all of _MR_BASES
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_PROVEN = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is a prime integer, by the Miller-Rabin test to the bases
    _MR_BASES, which no composite below _MR_PROVEN passes.  Raises
    ValueError for an n at or above that bound that passes the test, as a
    probable prime the test cannot prove."""
    if not isinstance(n, int) or n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(not n % b for b in _MR_BASES):
        return False
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN:
        raise ValueError(f"{n} is too large to prove prime")
    return True


def require_prime(n: int, name: str) -> None:
    """Refuse the value n of the option or parameter `name` unless
    `is_prime` proves it prime; raises ValueError."""
    try:
        prime = is_prime(n)
    except ValueError:
        raise ValueError(f"{name} {n} is too large to prove prime") from None
    if not prime:
        raise ValueError(f"{name} {n} is not a prime")


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


# k for each unit i^k of Z[i], by its (real, imaginary) parts
_UNIT_POWERS = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _sqrt_minus_one(p: int) -> int:
    for r in range(2, p):
        if pow(r, (p - 1) // 2, p) == p - 1:
            return pow(r, (p - 1) // 4, p)
    raise ArithmeticError(f"no square root of -1 mod {p}")  # unreachable for p=1 mod 4


@lru_cache(maxsize=1024)
def _primes_over(p: int, gaussian: bool) -> tuple[FieldElement, ...]:
    """The mode's primes over the rational prime p: p itself in rational
    mode, the first-quadrant Gaussian primes that divide p in Gaussian
    mode; cached, as `_factor_int` is."""
    if not gaussian:
        return (_make(p, 0, 1),)
    if p == 2:
        return (FieldElement(1, 1),)
    if p % 4 == 3:
        return (FieldElement(p),)
    pi = _first_quadrant(_ggcd(FieldElement(p), FieldElement(_sqrt_minus_one(p), 1)))[1]
    return pi, _first_quadrant(pi.conjugate())[1]


def gaussian_quotient(z: FieldElement, w: FieldElement) -> FieldElement | None:
    """z / w for Gaussian integers z and w, or None when w does not divide z
    in Z[i]: z * conj(w) / N(w), one integer divmod per part, so no
    field division and no gcd.  A rational w divides each part by itself,
    which needs no norm."""
    if w.b:
        n = w.a * w.a + w.b * w.b
        re, im = z.a * w.a + z.b * w.b, z.b * w.a - z.a * w.b
    else:
        n, re, im = w.a, z.a, z.b
    re, r = divmod(re, n)
    if r:
        return None
    im, r = divmod(im, n)
    return None if r else _make(re, im, 1)


def factor_constant(c: FieldElement, gaussian: bool) -> tuple[int, tuple]:
    """c != 0 -> (k, ((prime, exponent), ...)) with c = u^k * prod
    prime^exponent exactly, for the mode's unit u: -1 (rational mode, k mod
    2) or i (Gaussian mode, k mod 4).  Factors are in `prime_key` order.

    One loop for both modes: over a rational prime p lies p itself in
    rational mode and the Gaussian primes over p in Gaussian mode; what is
    left is i^k, and -1 = i^2 gives the rational exponent k // 2."""
    if c.is_zero():
        raise ValueError("cannot factor zero")
    if not (gaussian or c.is_rational()):
        raise ValueError("rational mode cannot factor a Gaussian constant")
    a, b, d = c.a, c.b, c.d
    g = gcd(a, b)
    rational = {p for n in (g, (a // g) ** 2 + (b // g) ** 2, d) for p, _ in _factor_int(n)}
    num, den = _make(a, b, 1), _make(d, 0, 1)
    factors = []
    norm = a * a + b * b
    for p in rational:
        for pi in _primes_over(p, gaussian):
            # a prime over p divides a + bi only if p divides its norm, and
            # d only if p does
            e = f = 0
            if not norm % p:
                num, e = strip_power(num, pi, gaussian_quotient)
            if not d % p:
                den, f = strip_power(den, pi, gaussian_quotient)
            if e != f:
                factors.append((pi, e - f))
    k_num, k_den = _UNIT_POWERS.get((num.a, num.b)), _UNIT_POWERS.get((den.a, den.b))
    if k_num is None or k_den is None:
        raise ArithmeticError(f"{c} leaves the non-units {num} and {den}")
    if len(factors) > 1:
        factors.sort(key=lambda t: prime_key(t[0]))
    k = (k_num - k_den) % 4
    return (k if gaussian else k // 2), tuple(factors)
