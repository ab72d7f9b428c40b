"""Factoring exact constants over Q and Q(i)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq.primes import (
    _factor_int,
    _residual_text,
    factor_constant,
    gaussian_quotient,
    int_quotient,
    is_prime,
    prime_key,
    require_prime,
    strip_power,
)
from dilogeq.poly import MultiPoly
from dilogeq.scalars import I, FieldElement, fe

from helpers import imag, is_integer, random_poly, reconstruct


def test_factor_constant_rational_examples():
    sign, fac = factor_constant(fe(12), gaussian=False)
    assert sign == 0 and fac == ((fe(2), 2), (fe(3), 1))
    sign, fac = factor_constant(fe(Fraction(-3, 4)), gaussian=False)
    assert sign == 1 and fac == ((fe(2), -2), (fe(3), 1))
    sign, fac = factor_constant(fe(1), gaussian=False)
    assert sign == 0 and fac == ()
    sign, fac = factor_constant(fe(-1), gaussian=False)
    assert sign == 1 and fac == ()
    with pytest.raises(ValueError):
        factor_constant(fe(0), gaussian=False)


# 1000003 * 1000033: no divisor up to the default bound 10^6, and too large
# for trial division up to that bound to prove it prime
UNPROVEN = 1_000_003 * 1_000_033
OVERSIZED = "constant has a prime factor above the bound 1000000: residual "


def test_factor_constant_rational_oversized():
    with pytest.raises(ValueError, match=f"^{OVERSIZED}{UNPROVEN}$"):
        factor_constant(fe(UNPROVEN), gaussian=False)


def test_residual_text_prints_up_to_sixty_digits():
    # a longer residual is named by its digit count
    assert _residual_text(10**60 - 1) == "9" * 60
    assert _residual_text(10**60) == "of 61 digits"
    assert _residual_text(2**100000 - 1) == "of 30103 digits"


def test_factor_constant_certifies_primes_above_the_bound():
    # trial division stops at 1001 > sqrt(1000003), which proves it prime
    assert factor_constant(fe(1_000_003), gaussian=False) == (0, ((fe(1_000_003), 1),))
    assert factor_constant(fe(Fraction(-2, 1_000_003)), gaussian=False) == (
        1, ((fe(2), 1), (fe(1_000_003), -1))
    )


def test_factor_int_strips_high_prime_powers():
    # a 317,000-bit power of 3: removing it one division at a time would be
    # quadratic in its size
    assert _factor_int(3**200000 * 5**3 * 7) == ((3, 200000), (5, 3), (7, 1))


def test_is_prime():
    assert [n for n in range(-5, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(999_999_000_001) and not is_prime(1_000_003 * 1000)
    assert not is_prime(5.0)
    # too large for trial division to the factoring bound, but base 2
    # shows it composite
    assert not is_prime(UNPROVEN)


# psi_13 and psi_12: the least strong pseudoprimes to the first 13 and 12
# prime bases (Sorenson and Webster, Math. Comp. 86, 2017)
PSI_13 = 3317044064679887385961981
PSI_12 = 318665857834031151167461


def test_is_prime_matches_sympy_below_psi_13():
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(13)
    special = [
        UNPROVEN,
        PSI_12,
        # psi_9 = psi_11, the least strong pseudoprime to the bases 2..23
        3825123056546413051,
        # Carmichael numbers
        561, 1105, 1729, 2465, 41041, 825265, 321197185, 5394826801, 232250619601,
        2**61 - 1,
        2**31 - 1,
    ]
    ns = [
        *special,
        *(rnd.randrange(2, 10**6) for _ in range(200)),
        *(rnd.randrange(10**12, 2**64) for _ in range(200)),
        *(rnd.randrange(2**64, PSI_13) for _ in range(200)),
        # products of two primes near the square root, which trial
        # division to 10^6 cannot settle
        *(sympy.nextprime(rnd.randrange(10**11)) ** 2 for _ in range(10)),
        *(sympy.nextprime(rnd.randrange(10**11)) * sympy.nextprime(10**11) for _ in range(10)),
        *(sympy.nextprime(rnd.randrange(10**20, 10**24)) for _ in range(20)),
    ]
    assert all(n < PSI_13 for n in ns)
    assert [is_prime(n) for n in ns] == [bool(sympy.isprime(n)) for n in ns]
    assert [is_prime(n) for n in special] == [False] * 12 + [True, True]


@pytest.mark.parametrize("n", [PSI_13, 2**89 - 1, 2**127 - 1])
def test_is_prime_refuses_a_probable_prime_at_or_above_psi_13(n):
    # psi_13 is composite and 2^89 - 1 and 2^127 - 1 are prime; the test to
    # bases 2..41 tells neither apart
    with pytest.raises(ValueError, match=f"^{n} is too large to prove prime$"):
        is_prime(n)
    with pytest.raises(ValueError, match=f"^--p {n} is too large to prove prime$"):
        require_prime(n, "--p")


def test_is_prime_decides_composites_above_psi_13():
    assert not is_prime(PSI_13 + 1) and not is_prime((2**89 - 1) * (2**61 - 1))


def test_require_prime():
    assert require_prime(2**61 - 1, "--padic") is None
    for n in (4, 1, -3, UNPROVEN):
        with pytest.raises(ValueError, match=f"^p {n} is not a prime$"):
            require_prime(n, "p")


def test_is_prime_agrees_with_trial_division_below_the_bound_squared():
    # is_prime runs Miller-Rabin there; among the inputs are the strong
    # pseudoprimes to the bases 2, 3, 5 and to 2, 3, 5, 7, a Carmichael
    # number and a semiprime of two primes beside the trial bound
    rnd = random.Random(12)
    special = [561, 25326001, 3215031751, 999_983 * 1_000_003, 999_999_000_001]
    ns = [
        *range(2, 20),
        *special,
        *(rnd.randrange(2, 10**6) for _ in range(200)),
        *(rnd.randrange(2, 10**12) for _ in range(60)),
    ]
    assert [is_prime(n) for n in ns] == [_factor_int(n) == ((n, 1),) for n in ns]
    assert [is_prime(n) for n in special] == [False, False, False, False, True]


def test_gaussian_oversized_names_the_rational_residual():
    # gcd(re, im) is factored over Z, not the norm 9 * UNPROVEN^2
    with pytest.raises(ValueError, match=f"^{OVERSIZED}{UNPROVEN}$"):
        factor_constant(fe(3 * UNPROVEN), gaussian=True)


def test_factor_constant_rational_mode():
    k, factors = factor_constant(fe(Fraction(-20, 9)), gaussian=False)
    assert k == 1
    assert factors == ((fe(2), 2), (fe(3), -2), (fe(5), 1))
    assert reconstruct(k, factors, False) == fe(Fraction(-20, 9))
    with pytest.raises(ValueError):
        factor_constant(fe(1, 1), gaussian=False)


def test_gaussian_two_ramifies():
    # 2 = -i * (1+i)^2
    k, factors = factor_constant(fe(2), gaussian=True)
    assert factors == ((fe(1, 1), 2),)
    assert k == 3  # i^3 = -i
    assert reconstruct(k, factors, True) == fe(2)


def test_gaussian_five_splits():
    # 5 = (2+i)(2-i); 2-i is replaced by its first-quadrant associate
    # 1+2i = i*(2-i), so the unit becomes i^3
    k, factors = factor_constant(fe(5), gaussian=True)
    assert k == 3
    assert set(factors) == {(fe(2, 1), 1), (fe(1, 2), 1)}
    for pi, _ in factors:
        assert pi.re > 0 and imag(pi) >= 0
    assert reconstruct(k, factors, True) == fe(5)


def test_gaussian_three_inert():
    assert factor_constant(fe(3), gaussian=True) == (0, ((fe(3), 1),))


def test_gaussian_units():
    for k, u in enumerate([fe(1), fe(0, 1), fe(-1), fe(0, -1)]):
        assert factor_constant(u, gaussian=True) == (k, ())
        assert reconstruct(k, (), True) == u


def test_gaussian_fraction():
    # (1+i)/2 = i^k * (1+i)^(-1) since (1+i)/2 = 1/(1-i) = (1+i)/((1+i)(1-i))
    c = fe(Fraction(1, 2), Fraction(1, 2))
    k, factors = factor_constant(c, gaussian=True)
    assert reconstruct(k, factors, True) == c
    assert factors == ((fe(1, 1), -1),)


def test_gaussian_mode_required_for_imaginary():
    with pytest.raises(ValueError):
        factor_constant(fe(0, 1), gaussian=False)


small_nonzero_fracs = st.fractions(
    min_value=-50, max_value=50, max_denominator=30
).filter(lambda q: q != 0)


@given(small_nonzero_fracs)
@settings(max_examples=80)
def test_rational_reconstruct(q):
    k, factors = factor_constant(fe(q), gaussian=False)
    assert reconstruct(k, factors, False) == fe(q)
    assert k in (0, 1)
    for p, e in factors:
        assert is_integer(p) and p.re >= 2 and e != 0


# kept small so cleared-denominator norms stay under the trial bound
gaussian_fracs = st.fractions(min_value=-10, max_value=10, max_denominator=8)


@given(gaussian_fracs.filter(lambda q: q != 0), gaussian_fracs)
@settings(max_examples=80)
def test_gaussian_reconstruct(re, im):
    c = fe(re, im)
    k, factors = factor_constant(c, gaussian=True)
    assert reconstruct(k, factors, True) == c
    assert k in (0, 1, 2, 3)
    for pi, e in factors:
        # first-quadrant normalization
        assert pi.re > 0 and imag(pi) >= 0 and e != 0


@given(small_nonzero_fracs, small_nonzero_fracs)
@settings(max_examples=40)
def test_rational_factorization_is_multiplicative(a, b):
    ka, fa = factor_constant(fe(a), gaussian=False)
    kb, fb = factor_constant(fe(b), gaussian=False)
    kab, fab = factor_constant(fe(a * b), gaussian=False)
    merged: dict[FieldElement, int] = {}
    for p, e in fa + fb:
        merged[p] = merged.get(p, 0) + e
    merged = {p: e for p, e in merged.items() if e}
    assert dict(fab) == merged
    assert kab == (ka + kb) % 2


@given(st.integers(-10**5, 10**5).filter(bool), st.integers(1, 10**4))
@settings(max_examples=150)
def test_the_two_modes_agree_on_a_rational_constant(n, d):
    c = fe(Fraction(n, d))
    _, rational = factor_constant(c, gaussian=False)
    _, gaussian = factor_constant(c, gaussian=True)
    # each Gaussian prime under its rational prime: its norm, or the square
    # root of its norm
    over: dict[int, list] = {}
    for pi, e in gaussian:
        norm = pi.a * pi.a + pi.b * pi.b
        over.setdefault(norm if is_prime(norm) else math.isqrt(norm), []).append((pi, e))
    assert sorted(over) == [p.a for p, _ in rational]
    for p, e in rational:
        if p.a == 2:
            # ramified: 2 = -i (1 + i)^2
            assert over[2] == [(fe(1, 1), 2 * e)]
        elif p.a % 4 == 3:
            # inert: the Gaussian prime p
            assert over[p.a] == [(p, e)]
        else:
            # split: p = pi * conj(pi), each to the exponent of p
            assert [f for _, f in over[p.a]] == [e, e]


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
    k, got = factor_constant(c, gaussian=True)
    assert k == unit
    assert got == tuple((fe(re, im), e) for (re, im), e in factors)
    assert reconstruct(k, got, True) == c


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
    k, factors = factor_constant(c, gaussian=True)
    assert reconstruct(k, factors, True) == c
    primes = [pi for pi, _ in factors]
    for pi, e in factors:
        assert e != 0 and pi.d == 1 and pi.a > 0 and pi.b >= 0
        assert _is_gaussian_prime(pi)
    units = {fe(1), I, fe(-1), -I}
    for k, pi in enumerate(primes):
        for rho in primes[k + 1 :]:
            assert pi / rho not in units
    keys = [prime_key(pi) for pi in primes]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


# -- strip_power ----------------------------------------------------------------


def _strip_one_at_a_time(x, p, quotient):
    e = 0
    while (y := quotient(x, p)) is not None:
        x, e = y, e + 1
    return x, e


@given(
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(2, 12) | st.integers(-12, -2),
    st.integers(0, 40),
)
@settings(max_examples=150)
def test_strip_power_over_the_integers(m, p, k):
    x = m * p**k
    y, e = strip_power(x, p, int_quotient)
    assert (y, e) == _strip_one_at_a_time(x, p, int_quotient)
    assert x == p**e * y and y % p and e >= k


gaussian_ints = st.builds(FieldElement, st.integers(-30, 30), st.integers(-30, 30))


@given(
    gaussian_ints.filter(lambda z: not z.is_zero()),
    st.sampled_from([fe(1, 1), fe(2, 1), fe(1, 2), fe(3), fe(2), fe(1, 3), fe(-4, 2)]),
    st.integers(0, 25),
)
@settings(max_examples=150)
def test_strip_power_over_the_gaussian_integers(m, p, k):
    x = m * p**k
    y, e = strip_power(x, p, gaussian_quotient)
    assert (y, e) == _strip_one_at_a_time(x, p, gaussian_quotient)
    assert x == p**e * y and gaussian_quotient(y, p) is None and e >= k


def test_gaussian_quotient_is_exact_division_in_z_i():
    assert gaussian_quotient(fe(5), fe(2, 1)) == fe(2, -1)
    assert gaussian_quotient(fe(5), fe(3)) is None
    assert gaussian_quotient(fe(3, 1), fe(1, 1)) == fe(2, -1)
    assert gaussian_quotient(fe(3), fe(1, 1)) is None


@given(st.randoms(use_true_random=False), st.integers(-3, 3), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_strip_power_at_polynomial_places(rnd, a, k):
    universe = ("t", "u")
    t = MultiPoly.var(universe, "t")
    for place in (t - MultiPoly.const(universe, fe(a)), t * t + MultiPoly.one(universe)):
        x = random_poly(rnd, universe) * place**k
        y, e = strip_power(x, place, MultiPoly.divide_exact)
        assert (y, e) == _strip_one_at_a_time(x, place, MultiPoly.divide_exact)
        assert x == place**e * y and e >= k


@pytest.mark.parametrize("pi", [fe(1, 1), fe(2, 1)])
def test_strip_power_of_a_large_gaussian_power(pi):
    assert strip_power(fe(3, -8) * pi**100_000, pi, gaussian_quotient) == (fe(3, -8), 100_000)


def test_strip_power_refuses_units():
    poly = MultiPoly.var(("t",), "t") + MultiPoly.one(("t",))
    for x, unit, quotient in (
        (12, 1, int_quotient),
        (12, -1, int_quotient),
        (fe(2, 3), I, gaussian_quotient),
        (poly, MultiPoly.const(("t",), fe(3)), MultiPoly.divide_exact),
    ):
        with pytest.raises(ValueError, match="unit"):
            strip_power(x, unit, quotient)


def test_large_gaussian_power_factors_at_once():
    assert factor_constant(fe(1, 1) ** 200_000 * fe(2, 1) ** 50_000, True) == (
        0, ((fe(1, 1), 200_000), (fe(2, 1), 50_000))
    )
