"""Exact field elements of Q and Q(i)."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq.scalars import FieldElement, I, MINUS_ONE, ONE, ZERO, _decimal, _make, fe

from helpers import imag, is_gaussian_integer, is_integer, norm


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


@given(st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**30))
def test_inverse_of_a_rational_is_the_normalized_quotient(n, m):
    # the shortcut d / a matches what _make builds from the general formula
    a = FieldElement(Fraction(n, m))
    inv, made = a.inverse(), _make(a.d * a.a, 0, a.a * a.a)
    assert (inv.a, inv.b, inv.d) == (made.a, made.b, made.d)


@given(st.integers(-10**2000, 10**2000))
@settings(max_examples=40)
def test_decimal_matches_str(n):
    assert _decimal(n) == str(n)


def test_decimal_of_numbers_beyond_the_int_to_str_limit():
    assert _decimal(10**10000) == "1" + "0" * 10000
    assert _decimal(-(10**9000 + 7)) == "-1" + "0" * 8999 + "7"
    digits = _decimal(3**300000)
    assert len(digits) == 143137 and int(digits[:4300]) == 3**300000 // 10 ** (143137 - 4300)
    assert str(fe(Fraction(7, 3**300000), -1)) == f"7/{digits} - i"


@given(elements, elements)
def test_norm_multiplicative(a, b):
    assert norm(a * b) == norm(a) * norm(b)


@given(elements)
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a
    assert imag(a * a.conjugate()) == 0
    assert (a * a.conjugate()).re == norm(a)


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
    assert z.real == float(a.re) and z.imag == float(imag(a))


# -- a reference model: the value as a pair of Fractions ----------------------


class Pair:
    """(re, im) as two Fractions, with the textbook formulas; the reference
    the three-int FieldElement is checked against."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.norm()
        return Pair(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = Pair(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def conjugate(self):
        return Pair(self.re, -self.im)

    def scale(self, q):
        return Pair(self.re * q, self.im * q)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def sort_key(self):
        return (self.re.numerator, self.re.denominator, self.im.numerator, self.im.denominator)

    def to_complex(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
        mag = abs(im)
        istr = "i" if mag == 1 else f"{mag}*i"
        return f"{re} {'+' if im > 0 else '-'} {istr}"


BIG = 10**40
parts = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    small_fracs,
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
pairs = st.one_of(
    st.tuples(parts, st.just(Fraction(0))),  # Q
    st.tuples(parts, parts),  # Q(i)
)


def agrees(x: FieldElement, m: Pair, floats: bool = True):
    assert type(x.re) is Fraction and type(imag(x)) is Fraction
    assert (x.re, imag(x)) == (m.re, m.im)
    assert str(x) == str(m)
    assert x.sort_key() == m.sort_key()
    assert x.is_zero() == (not m.re and not m.im) and x.is_rational() == (not m.im)
    if floats:
        z, w = x.to_complex(), m.to_complex()
        assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())


@given(pairs, pairs)
def test_model_arithmetic(p, q):
    x, y, m, n = FieldElement(*p), FieldElement(*q), Pair(*p), Pair(*q)
    agrees(x, m)
    agrees(x + y, m + n)
    agrees(x - y, m - n)
    agrees(-x, Pair(-m.re, -m.im))
    agrees(x * y, m * n)
    agrees(x.conjugate(), m.conjugate())
    agrees(x.scale(q[0]), m.scale(q[0]))
    assert norm(x) == m.norm()
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    else:
        agrees(x / y, m / n)
        agrees(y.inverse(), n.inverse())


@given(pairs, st.integers(-20, 20))
def test_model_pow(p, k):
    x, m = FieldElement(*p), Pair(*p)
    if x.is_zero() and k < 0:
        with pytest.raises(ZeroDivisionError):
            x**k
        return
    agrees(x**k, m**k, floats=False)  # 40-digit parts to the 20th overflow a float


@given(pairs, pairs)
def test_equal_values_from_different_paths(p, q):
    x, y = FieldElement(*p), FieldElement(*q)
    for other in (x + y - y, FieldElement(x.re, imag(x)), fe(str(x.re), str(imag(x)))):
        assert other == x and hash(other) == hash(x)
    if not y.is_zero():
        assert (x * y) / y == x and hash((x * y) / y) == hash(x)


def test_canonical_form_of_equal_values():
    half = FieldElement(Fraction(2, 4))
    for other in (
        fe("1/2"),
        fe(1) / fe(2),
        FieldElement(Fraction(3, 6)),
        fe(1, 2) - fe("1/2", 2),
    ):
        assert other == half and hash(other) == hash(half)
    assert (half.a, half.b, half.d) == (1, 0, 2)
    # the denominator is shared, the lcm of the parts' denominators
    z = fe(Fraction(1, 6), Fraction(3, 4))
    assert (z.a, z.b, z.d) == (2, 9, 12)
    assert ZERO == fe(Fraction(0, 5), 0) and (ZERO.a, ZERO.b, ZERO.d) == (0, 0, 1)
    assert pickle.loads(pickle.dumps(z)) == z
