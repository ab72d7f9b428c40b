"""Exact field elements of Q and Q(i)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilogeq.scalars import FieldElement, I, MINUS_ONE, ONE, ZERO, fe

from helpers import is_gaussian_integer, is_integer


small_fracs = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
elements = st.builds(FieldElement, small_fracs, small_fracs)
rational_elements = st.builds(FieldElement, small_fracs)


def test_constructors_and_predicates():
    assert fe(0) == ZERO and ZERO.is_zero()
    assert fe(1) == ONE and ONE.is_one()
    assert fe(-1) == MINUS_ONE
    assert fe(0, 1) == I
    assert fe(3).is_rational() and is_integer(fe(3))
    assert not fe(3, 1).is_rational()
    assert fe(Fraction(1, 2)).is_rational() and not is_integer(fe(Fraction(1, 2)))
    assert is_gaussian_integer(fe(2, 3))
    assert not is_gaussian_integer(fe(Fraction(1, 2), 3))
    assert fe("3/4") == fe(Fraction(3, 4))


@given(elements, elements, elements)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(elements)
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == ONE


@given(elements, elements)
def test_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(elements)
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    assert (a * a.conjugate()).re == a.norm()


@given(elements, st.integers(-4, 4))
def test_pow(a, n):
    if a.is_zero() and n < 0:
        with pytest.raises(ZeroDivisionError):
            a**n
        return
    expected = ONE
    base = a if n >= 0 else a.inverse()
    for _ in range(abs(n)):
        expected = expected * base
    assert a**n == expected


def test_i_arithmetic():
    assert I * I == MINUS_ONE
    assert I**4 == ONE
    assert I.inverse() == -I
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(fe(0, Fraction(1, 2))) == "1/2*i"


@given(elements, elements)
def test_sort_key_consistent_with_eq(a, b):
    assert (a == b) == (a.sort_key() == b.sort_key())


@given(elements)
def test_to_complex(a):
    z = a.to_complex()
    assert z.real == float(a.re) and z.imag == float(a.im)
