"""Formal sums of dilogarithm arguments and the relation generators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq.formal import (
    ExtendedFormalSum,
    FormalSum,
    c_element,
    conj_sum,
    five_term,
    inversion,
)
from dilogeq.ratfunc import RationalFunction
from dilogeq.scalars import fe

from helpers import random_formal_sum, to_mode


T = ("t",)


def t():
    return RationalFunction.var(T, "t")


def const(q):
    return RationalFunction.const(T, fe(q))


def test_five_term_numeric():
    # x = 2, y = 3: [2] - [3] + [3/2] + [1/2] - [3/4]
    alpha = five_term(const(2), const(3))
    want = {
        const(2): 1,
        const(3): -1,
        const(Fraction(3, 2)): 1,
        const(Fraction(1, 2)): 1,
        const(Fraction(3, 4)): -1,
    }
    assert {f: int(c) for f, c in alpha.items()} == want


def test_five_term_merges_repeats():
    # x = t, y = t^2: the third argument y/x = t repeats x
    alpha = five_term(t(), t() ** 2)
    assert alpha.terms.get(t(), 0) == 2
    assert len(alpha) == 4


def test_five_term_degenerate():
    with pytest.raises(ValueError, match="^x = y degenerates the relation$"):
        five_term(t(), t())
    with pytest.raises(ValueError, match=r"^x = 0 lies in \{0, 1\}$"):
        five_term(const(0), t())
    with pytest.raises(ValueError, match=r"^y = 1 lies in \{0, 1\}$"):
        five_term(t(), const(1))
    # y/x = 1 cannot happen (x = y is caught), and x = 1 is refused before
    # (1-x)/(1-y) is formed
    with pytest.raises(ValueError, match=r"^x = 1 lies in \{0, 1\}$"):
        five_term(const(1), const(2))


def test_inversion_and_c_element():
    alpha = inversion(t() + const(1))
    assert alpha.terms.get(t() + const(1), 0) == 1
    assert alpha.terms.get((t() + const(1)).inverse(), 0) == 1
    assert inversion(const(-1)).terms.get(const(-1), 0) == 2
    beta = c_element(const(2))
    assert beta.terms.get(const(2), 0) == 1
    assert beta.terms.get(const(-1), 0) == 1
    assert c_element(const(Fraction(1, 2))).terms.get(const(Fraction(1, 2)), 0) == 2
    with pytest.raises(ValueError, match=r"^x = 0 lies in \{0, 1\}$"):
        inversion(const(0))
    with pytest.raises(ValueError, match=r"^c = 1 lies in \{0, 1\}$"):
        c_element(const(1))


def test_zero_and_single():
    z = FormalSum.zero(T)
    assert not z.terms and len(z) == 0
    s = FormalSum.single(t(), 3)
    assert s.terms.get(t(), 0) == 3
    assert s.terms.get(t() + const(1), 0) == 0


def test_admissibility_enforced():
    with pytest.raises(ValueError, match="^argument 0 outside the admissible set$"):
        FormalSum.single(const(0))
    with pytest.raises(ValueError, match="^argument 1 outside the admissible set$"):
        FormalSum.single(const(1))
    with pytest.raises(ValueError, match="^argument 1 outside the admissible set$"):
        FormalSum(T, {const(1): Fraction(1)})


def test_coeff_mode_z_rejects_fractions():
    # the one wording of the check, which a document error reports too
    with pytest.raises(ValueError, match=r"^coefficient 1/2 is not an integer \(coefficients: Z\)$"):
        FormalSum.single(t(), Fraction(1, 2), coeff_mode="Z")
    # fine in Q mode
    s = FormalSum.single(t(), Fraction(1, 2), coeff_mode="Q")
    assert s.terms.get(t(), 0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        to_mode(s.scale(Fraction(1, 3)), "Z")
    assert to_mode(s.scale(2), "Z").terms.get(t(), 0) == 1


def test_mode_compatibility_enforced():
    a = FormalSum.single(t(), 1, coeff_mode="Z")
    b = FormalSum.single(t(), 1, coeff_mode="Q")
    with pytest.raises(ValueError):
        a + b
    c = FormalSum.single(t(), 1, field_mode="Qi")
    with pytest.raises(ValueError):
        a + c


def test_zero_coefficients_dropped():
    a = FormalSum.single(t(), 1)
    assert not (a - a).terms
    assert len(a - a) == 0
    assert not a.scale(0).terms


def test_pairs_sum_a_repeated_argument():
    alpha = FormalSum(T, [(t(), 2), (const(3), -1), (t(), Fraction(1)), (const(3), -1)])
    assert alpha == FormalSum(T, {t(): Fraction(3), const(3): Fraction(-2)})
    assert list(alpha.terms) == [t(), const(3)]


def test_pairs_that_cancel_drop_their_argument():
    alpha = FormalSum(T, [(t(), 1), (const(3), 2), (t(), -1)])
    assert alpha.terms == {const(3): 2}
    assert alpha.terms.get(t(), 0) == 0
    # a degenerate argument whose total is 0 is never checked, as for a 0 coefficient
    assert not FormalSum(T, [(const(1), 1), (const(1), -1)]).terms
    assert FormalSum(T, [(const(1), 1), (const(1), -1), (t(), 1)]) == FormalSum.single(t())


def test_z_mode_checks_the_summed_coefficient():
    half = Fraction(1, 2)
    assert FormalSum(T, [(t(), half), (t(), half)], coeff_mode="Z") == FormalSum.single(t())
    with pytest.raises(ValueError, match="integer"):
        FormalSum(T, [(t(), half), (t(), 1)], coeff_mode="Z")
    with pytest.raises(ValueError, match="integer"):
        FormalSum(T, [(t(), half), (const(3), half)], coeff_mode="Z")
    q = FormalSum(T, [(t(), half), (t(), 1)], coeff_mode="Q")
    assert q.terms.get(t(), 0) == Fraction(3, 2)


formal_sums = st.builds(
    lambda seed: random_formal_sum(random.Random(seed), T, n_terms=3),
    st.integers(0, 10_000),
)


@given(formal_sums, formal_sums, formal_sums)
@settings(max_examples=40, deadline=None)
def test_module_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - a == FormalSum.zero(T, a.field_mode, a.coeff_mode)
    assert a.scale(2) == a + a
    assert (-a) + a == FormalSum.zero(T, a.field_mode, a.coeff_mode)
    assert a.scale(-3) == -(a + a + a)


@given(formal_sums)
@settings(max_examples=30, deadline=None)
def test_conj_sum_involution(a):
    assert conj_sum(conj_sum(a)) == a


def test_conj_sum_gaussian():
    from dilogeq.scalars import I

    i_const = RationalFunction.const(T, I)
    a = FormalSum.single(t() + i_const, 1, field_mode="Qi")
    b = conj_sum(a)
    assert b.terms.get(t() - i_const, 0) == 1
    assert conj_sum(b) == a


def test_str_round_trips_through_parser():
    from dilogeq.exprparse import parse_expression

    rnd = random.Random(7)
    for _ in range(60):
        alpha = random_formal_sum(rnd, T, n_terms=3, field_mode="Q", coeff_mode="Q")
        for f, _c in alpha.items():
            text = str(f)
            back = parse_expression(text, T, field_mode="Q")
            assert back == f, text


def test_str_examples():
    a = FormalSum.single(t(), 2) + FormalSum.single(const(Fraction(1, 2)), -1)
    s = str(a)
    assert "[t]" in s and "[1/2]" in s
    assert str(FormalSum.zero(T)) == "0"


def test_str_signs_and_coefficients():
    a = FormalSum(T, [(t(), 1), (const(2), -1), (const(3), Fraction(-3, 2))], coeff_mode="Q")
    assert str(a) == "-[2] - 3/2*[3] + [t]"
    assert str(FormalSum.single(t(), 2) - FormalSum.single(const(3))) == "-[3] + 2*[t]"
    assert str(FormalSum.single(t(), -1) + FormalSum.single(const(3), 2)) == "2*[3] - [t]"


def test_extended_sum_str():
    ordinary = FormalSum.single(t(), -2)
    assert str(ExtendedFormalSum(ordinary, 1, -1, 3)) == "-2*[t] + [0] - [1] + 3*[inf]"
    # an ordinary part of 0 prints nothing, and the first symbol keeps its sign
    zero = FormalSum.zero(T)
    assert str(ExtendedFormalSum(zero, c1=-1, cinf=2)) == "-[1] + 2*[inf]"
    assert str(ExtendedFormalSum(zero, 2)) == "2*[0]"
    assert str(ExtendedFormalSum(zero)) == "0"


def test_five_term_random_never_degenerate_args():
    rnd = random.Random(3)
    from helpers import random_five_term

    for _ in range(25):
        alpha = random_five_term(rnd, T)
        for f, _ in alpha.items():
            assert not f.is_zero() and not f.is_one()
