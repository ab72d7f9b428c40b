"""Factoring exact constants over Q and Q(i)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq.primes import (
    OversizedConstant,
    UnitPrimeFactorization,
    _factor_int,
    factor_constant,
    factor_rational,
    is_prime,
    prime_key,
)
from dilogeq.scalars import FieldElement, fe

from helpers import is_integer, reconstruct


def test_factor_rational_examples():
    sign, fac = factor_rational(Fraction(12))
    assert sign == 0 and fac == {2: 2, 3: 1}
    sign, fac = factor_rational(Fraction(-3, 4))
    assert sign == 1 and fac == {2: -2, 3: 1}
    sign, fac = factor_rational(Fraction(1))
    assert sign == 0 and fac == {}
    sign, fac = factor_rational(Fraction(-1))
    assert sign == 1 and fac == {}
    with pytest.raises(ValueError):
        factor_rational(Fraction(0))


# 1000003 * 1000033: no divisor up to the default bound 10^6, and too large
# for trial division up to that bound to prove it prime
UNPROVEN = 1_000_003 * 1_000_033


def test_factor_rational_oversized():
    with pytest.raises(OversizedConstant):
        factor_rational(Fraction(UNPROVEN))


def test_factor_rational_certifies_primes_above_the_bound():
    # trial division stops at 1001 > sqrt(1000003), which proves it prime
    assert factor_rational(1_000_003) == (0, {1_000_003: 1})
    assert factor_rational(Fraction(-2, 1_000_003)) == (1, {2: 1, 1_000_003: -1})


def test_factor_int_strips_high_prime_powers():
    # a 317,000-bit power of 3: removing it one division at a time would be
    # quadratic in its size
    assert _factor_int(3**200000 * 5**3 * 7) == ((3, 200000), (5, 3), (7, 1))


def test_cached_factorizations_are_not_shared():
    # trial division is cached per integer; callers get their own dicts
    factor_rational(Fraction(12))[1][2] = 99
    assert factor_rational(Fraction(12)) == (0, {2: 2, 3: 1})
    assert factor_rational(Fraction(1, 12)) == (0, {2: -2, 3: -1})


def test_is_prime():
    assert [n for n in range(-5, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(999_999_000_001) and not is_prime(1_000_003 * 1000)
    assert not is_prime(5.0)
    # trial division to the default bound proves primes below its square
    with pytest.raises(OversizedConstant):
        is_prime(UNPROVEN)


def test_gaussian_oversized_names_the_rational_residual():
    # gcd(re, im) is factored over Z, not the norm 9 * UNPROVEN^2
    with pytest.raises(OversizedConstant, match=f"residual {UNPROVEN}$"):
        factor_constant(fe(3 * UNPROVEN), gaussian=True)


def test_factor_constant_rational_mode():
    f = factor_constant(fe(Fraction(-20, 9)), gaussian=False)
    assert f.unit_exponent == 1
    assert f.factors == ((fe(2), 2), (fe(3), -2), (fe(5), 1))
    assert reconstruct(f) == fe(Fraction(-20, 9))
    with pytest.raises(ValueError):
        factor_constant(fe(1, 1), gaussian=False)


def test_gaussian_two_ramifies():
    # 2 = -i * (1+i)^2
    f = factor_constant(fe(2), gaussian=True)
    assert f.factors == ((fe(1, 1), 2),)
    assert f.unit_exponent == 3  # i^3 = -i
    assert reconstruct(f) == fe(2)


def test_gaussian_five_splits():
    # 5 = (2+i)(2-i); 2-i is replaced by its first-quadrant associate
    # 1+2i = i*(2-i), so the unit becomes i^3
    f = factor_constant(fe(5), gaussian=True)
    assert f.unit_exponent == 3
    assert set(f.factors) == {(fe(2, 1), 1), (fe(1, 2), 1)}
    for pi, _ in f.factors:
        assert pi.re > 0 and pi.im >= 0
    assert reconstruct(f) == fe(5)


def test_gaussian_three_inert():
    f = factor_constant(fe(3), gaussian=True)
    assert f.factors == ((fe(3), 1),)
    assert f.unit_exponent == 0


def test_gaussian_units():
    for k, u in enumerate([fe(1), fe(0, 1), fe(-1), fe(0, -1)]):
        f = factor_constant(u, gaussian=True)
        assert f.factors == ()
        assert f.unit_exponent == k
        assert reconstruct(f) == u


def test_gaussian_fraction():
    # (1+i)/2 = i^k * (1+i)^(-1) since (1+i)/2 = 1/(1-i) = (1+i)/((1+i)(1-i))
    c = fe(Fraction(1, 2), Fraction(1, 2))
    f = factor_constant(c, gaussian=True)
    assert reconstruct(f) == c
    assert f.factors == ((fe(1, 1), -1),)


def test_gaussian_mode_required_for_imaginary():
    with pytest.raises(ValueError):
        factor_constant(fe(0, 1), gaussian=False)


small_nonzero_fracs = st.fractions(
    min_value=-50, max_value=50, max_denominator=30
).filter(lambda q: q != 0)


@given(small_nonzero_fracs)
@settings(max_examples=80)
def test_rational_reconstruct(q):
    f = factor_constant(fe(q), gaussian=False)
    assert reconstruct(f) == fe(q)
    assert f.unit_exponent in (0, 1)
    for p, e in f.factors:
        assert is_integer(p) and p.re >= 2 and e != 0


# kept small so cleared-denominator norms stay under the trial bound
gaussian_fracs = st.fractions(min_value=-10, max_value=10, max_denominator=8)


@given(gaussian_fracs.filter(lambda q: q != 0), gaussian_fracs)
@settings(max_examples=80)
def test_gaussian_reconstruct(re, im):
    c = fe(re, im)
    f = factor_constant(c, gaussian=True)
    assert reconstruct(f) == c
    assert f.unit_exponent in (0, 1, 2, 3)
    for pi, e in f.factors:
        # first-quadrant normalization
        assert pi.re > 0 and pi.im >= 0 and e != 0


@given(small_nonzero_fracs, small_nonzero_fracs)
@settings(max_examples=40)
def test_rational_factorization_is_multiplicative(a, b):
    fa = factor_constant(fe(a), gaussian=False)
    fb = factor_constant(fe(b), gaussian=False)
    fab = factor_constant(fe(a * b), gaussian=False)
    merged: dict[FieldElement, int] = {}
    for p, e in fa.factors + fb.factors:
        merged[p] = merged.get(p, 0) + e
    merged = {p: e for p, e in merged.items() if e}
    assert dict(fab.factors) == merged
    assert fab.unit_exponent == (fa.unit_exponent + fb.unit_exponent) % 2


I = fe(0, 1)


# (constant, unit exponent, [(prime as (re, im), exponent)] in prime_key
# order), as the factorization over coordinate pairs gave them
GAUSSIAN_TABLE = [
    (fe(1), 0, []),
    (I, 1, []),
    (fe(-1), 2, []),
    (-I, 3, []),
    (fe(2), 3, [((1, 1), 2)]),
    (fe(5), 3, [((1, 2), 1), ((2, 1), 1)]),
    (fe(Fraction(3, 35), Fraction(4, 35)), 1, [((1, 2), -1), ((2, 1), 1), ((7, 0), -1)]),
    (fe(1_000_033), 3, [((408, 913), 1), ((913, 408), 1)]),
    (I * fe(1, 1) ** 3 / fe(9), 1, [((1, 1), 3), ((3, 0), -2)]),
]


@pytest.mark.parametrize("c, unit, factors", GAUSSIAN_TABLE, ids=lambda v: str(v))
def test_gaussian_factorizations_of_recorded_constants(c, unit, factors):
    f = factor_constant(c, gaussian=True)
    assert f.unit_exponent == unit
    assert f.factors == tuple((fe(re, im), e) for (re, im), e in factors)
    assert reconstruct(f) == c


def _is_gaussian_prime(pi: FieldElement) -> bool:
    """pi is prime in Z[i]: its norm is a prime, or the square of a prime
    = 3 mod 4 (such a prime stays prime in Z[i])."""
    n = pi.a * pi.a + pi.b * pi.b
    q = math.isqrt(n)
    return is_prime(n) or (q * q == n and q % 4 == 3 and is_prime(q))


@given(
    st.integers(-3000, 3000),
    st.integers(-3000, 3000),
    st.integers(1, 500),
)
@settings(max_examples=300)
def test_gaussian_factors_are_distinct_first_quadrant_primes_in_key_order(a, b, d):
    if a == b == 0:
        return
    c = fe(Fraction(a, d), Fraction(b, d))
    f = factor_constant(c, gaussian=True)
    assert reconstruct(f) == c
    primes = [pi for pi, _ in f.factors]
    for pi, e in f.factors:
        assert e != 0 and pi.d == 1 and pi.a > 0 and pi.b >= 0
        assert _is_gaussian_prime(pi)
    units = {fe(1), I, fe(-1), -I}
    for k, pi in enumerate(primes):
        for rho in primes[k + 1 :]:
            assert pi / rho not in units
    keys = [prime_key(pi) for pi in primes]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
