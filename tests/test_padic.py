"""p-adic arithmetic, logarithm branches, and the branch-difference pairing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilogeq.formal import FormalSum
from dilogeq.padic import (
    PadicNumber,
    branch_diff,
    dp_disc,
    li2p,
    plog,
)
from dilogeq.ratfunc import RationalFunction
from dilogeq.scalars import fe
from dilogeq.specialize import PointNotAdmissible, evaluate_at_point

from helpers import agree_to, is_exact_zero, is_zeroish, teichmuller

T = ("t",)


def t():
    return RationalFunction.var(T, "t")


def const(q):
    return RationalFunction.const(T, fe(q))


def pad(q, p=5, prec=32):
    return PadicNumber.from_rational(q, p, prec)


def value(*terms, field_mode="Q"):
    """The constant formal sum of the (coefficient, rational or Gaussian
    value) terms: a sum's value at a point, as evaluate_at_point gives it."""
    pairs = [
        (RationalFunction.const((), fe(*z) if isinstance(z, tuple) else fe(z)), a)
        for a, z in terms
    ]
    return FormalSum((), pairs, field_mode, "Z")


# -- valuations and representation ------------------------------------------------


def test_padic_valuation():
    # the valuation is exact whatever the precision of the unit
    for q, p, v in [
        (Fraction(50), 5, 2),
        (Fraction(1, 25), 5, -2),
        (Fraction(3), 5, 0),
        (Fraction(12), 2, 2),
        (Fraction(-9, 10), 3, 2),
        (Fraction(5**100000 * 3, 7), 5, 100000),
    ]:
        for prec in (1, 32):
            assert PadicNumber.from_rational(q, p, prec).val == v
    assert is_exact_zero(PadicNumber.from_rational(0, 5, 8))


@pytest.mark.parametrize("p", [1, 0, -5])
def test_bases_below_two_are_refused(p):
    # with p = 1 the valuation loop divided by 1 forever
    calls = [
        lambda: PadicNumber.from_rational(Fraction(3), p, 8),
        lambda: PadicNumber.from_rational(Fraction(0), p, 8),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="at least 2"):
            call()


def test_from_rational_normal_form():
    x = pad(Fraction(50, 3))
    assert x.val == 2 and x.unit % 5 != 0
    # 2/3 = 2 * inverse(3) mod 5^32
    assert (x.unit * 3) % 5**32 == 2 % 5**32
    y = pad(Fraction(7, 5**100000 * 3))
    assert y.val == -100000 and (y.unit * 3) % 5**32 == 7
    assert is_exact_zero(pad(0))


def test_zero_bookkeeping():
    z = PadicNumber.zero(5, 4)
    assert is_zeroish(z) and not is_exact_zero(z)
    assert z.abs_precision() == 4
    assert str(z) == "O(5^4)"
    assert str(PadicNumber.zero(5)) == "0"


@pytest.mark.parametrize("q", [Fraction(3, 5), Fraction(0)])
def test_from_rational_needs_a_precision(q):
    for prec in (0, -2):
        with pytest.raises(ValueError, match="precision must be at least 1"):
            PadicNumber.from_rational(q, 5, prec)


def test_cancellation_keeps_a_precision_floor():
    a = pad(Fraction(7, 2), prec=8)
    d = a - a
    assert is_zeroish(d)
    assert d.abs_precision() == 8
    # values congruent mod 5^6 but not mod 5^7
    b = pad(Fraction(7, 2) + 5**6, prec=8)
    assert agree_to(a, b, 6)
    assert not agree_to(a, b, 7)


def test_multiplication_tracks_valuation_and_precision():
    a = PadicNumber(5, 2, 3, 8)
    b = PadicNumber(5, -1, 2, 4)
    c = a * b
    assert c.val == 1 and c.prec == 4 and c.unit == 6
    assert c.abs_precision() == 5
    # adding something known only to O(5^3) caps the result there
    capped = a + PadicNumber.zero(5, 3)
    assert capped.abs_precision() == 3


small_fracs = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=29
)
val_shifts = st.integers(min_value=-3, max_value=3)


@given(small_fracs, small_fracs, val_shifts, val_shifts)
def test_arithmetic_agrees_with_exact_rationals(qa, qb, ka, kb):
    p = 5
    a = qa * Fraction(p) ** ka
    b = qb * Fraction(p) ** kb
    xa, xb = pad(a), pad(b)
    assert agree_to(xa + xb, pad(a + b), 20)
    assert agree_to(xa - xb, pad(a - b), 20)
    assert agree_to(xa * xb, pad(a * b), 20)
    if b != 0:
        assert agree_to(xa * xb**-1, pad(a / b), 20)
    if a != 0:
        for n in (-3, -1, 0, 2, 5):
            assert agree_to(xa**n, pad(a**n), 20)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError, match=r"^inverse of zero \(at this precision\)$"):
        pad(0) ** -1
    with pytest.raises(ZeroDivisionError, match=r"^inverse of zero \(at this precision\)$"):
        PadicNumber.zero(5, 4) ** -1


@pytest.mark.parametrize("p", [2, 5])
def test_power_is_the_repeated_product(p):
    for q in (Fraction(3), Fraction(-7, 3), Fraction(p * p, 11), Fraction(1, p)):
        for prec in (1, 6, 32):
            x = PadicNumber.from_rational(q, p, prec)
            product = x
            for n in range(1, 8):
                assert x**n == product, (q, prec, n)
                product = product * x
            for n in range(-3, 0):
                assert x**n == PadicNumber.from_rational(q**n, p, prec), (q, prec, n)


def test_powers_of_a_zero():
    z = PadicNumber.zero(5, 4)
    with pytest.raises(ZeroDivisionError, match=r"^inverse of zero \(at this precision\)$"):
        z**-1
    assert z**0 == PadicNumber.from_rational(1, 5, 1)
    assert z**3 == PadicNumber.zero(5, 12)


# -- Teichmueller lifts -------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_teichmuller_is_torsion(p):
    one = PadicNumber.from_rational(1, p, 20)
    e = 2 if p == 2 else p - 1
    for a in range(1, min(p, 6)):
        w = teichmuller(a, p, 20)
        assert w.unit % p == a % p
        d = w**e - one
        assert is_zeroish(d) and d.abs_precision() >= 20


def test_teichmuller_rejects_non_units():
    with pytest.raises(ValueError):
        teichmuller(10, 5, 8)


# -- the logarithm ------------------------------------------------------------------


def _log_series_oracle(t_frac, p, terms, prec):
    # log(1 + t) as an exact rational partial sum of the defining series
    acc = Fraction(0)
    tp = Fraction(1)
    for k in range(1, terms + 1):
        tp *= t_frac
        acc += Fraction((-1) ** (k + 1), k) * tp
    return PadicNumber.from_rational(acc, p, prec)


def test_plog_golden_series_p5():
    got = plog(pad(6), pad(0))
    want = _log_series_oracle(Fraction(5), 5, 40, 32)
    assert agree_to(got, want, 30)


def test_plog_golden_series_p2():
    got = plog(PadicNumber.from_rational(5, 2, 32), pad(0, 2))
    want = _log_series_oracle(Fraction(4), 2, 60, 32)
    assert agree_to(got, want, 28)


def test_plog_of_p_is_the_branch_value():
    std = plog(pad(5), pad(0))
    assert is_zeroish(std) and std.abs_precision() >= 30
    other = plog(pad(5), pad(10))
    assert agree_to(other, pad(10), 30)


def test_plog_kills_torsion():
    # log of a Teichmueller representative is 0
    w = teichmuller(2, 5, 24)
    lw = plog(w, pad(0))
    assert is_zeroish(lw) and lw.abs_precision() >= 22


def test_plog_is_a_homomorphism():
    rnd = random.Random(19)
    for p in (2, 3, 5, 7):
        branches = [pad(0, p), pad(3 * p, p)]
        for branch in branches:
            for _ in range(10):
                a = Fraction(rnd.randint(1, 60), rnd.randint(1, 60))
                b = Fraction(rnd.randint(1, 60), rnd.randint(1, 60)) * Fraction(p) ** rnd.randint(-2, 2)
                x = PadicNumber.from_rational(a, p, 32)
                y = PadicNumber.from_rational(b, p, 32)
                xy = PadicNumber.from_rational(a * b, p, 32)
                lhs = plog(xy, branch)
                rhs = plog(x, branch) + plog(y, branch)
                assert agree_to(lhs, rhs, 26), (p, a, b)


def test_plog_rejects_zero():
    with pytest.raises(ZeroDivisionError, match="^log of zero$"):
        plog(pad(0), pad(0))


# -- the dilogarithm on the disc ----------------------------------------------------


def _li2_series_oracle(z_frac, p, terms, prec):
    acc = Fraction(0)
    zp = Fraction(1)
    for n in range(1, terms + 1):
        zp *= z_frac
        acc += zp / Fraction(n * n)
    return PadicNumber.from_rational(acc, p, prec)


def test_li2p_golden_series():
    got = li2p(pad(5))
    want = _li2_series_oracle(Fraction(5), 5, 40, 32)
    assert agree_to(got, want, 30)
    got10 = li2p(pad(10))
    want10 = _li2_series_oracle(Fraction(10), 5, 40, 32)
    assert agree_to(got10, want10, 28)


def test_li2p_golden_series_p2():
    got = li2p(PadicNumber.from_rational(2, 2, 30))
    want = _li2_series_oracle(Fraction(2), 2, 80, 30)
    assert agree_to(got, want, 25)


# str() of the series sums at p = 3: a series that stops one term early
# or late changes the digits or the precision shown
@pytest.mark.parametrize(
    "prec, li2p_3, li2p_18_7, plog_7_2, plog_45_4",
    [
        (6, "3^1 * 644 + O(3^7)", "3^2 * 413 + O(3^8)",
         "3^2 * 76 + O(3^6)", "3^0 * 508 + O(3^6)"),
        (20, "3^1 * 300291053 + O(3^21)", "3^2 * 3142285658 + O(3^22)",
         "3^2 * 204761515 + O(3^20)", "3^0 * 485973778 + O(3^20)"),
        (45, "3^1 * 1214378229941687034023 + O(3^46)",
         "3^2 * 1810131419667243356783 + O(3^47)",
         "3^2 * 56128571525901666928 + O(3^45)", "3^0 * 1100046096645268 + O(3^32)"),
    ],
)
def test_series_golden_strings_p3(prec, li2p_3, li2p_18_7, plog_7_2, plog_45_4):
    def at(q):
        return PadicNumber.from_rational(q, 3, prec)

    assert str(li2p(at(3))) == li2p_3
    assert str(li2p(at(Fraction(18, 7)))) == li2p_18_7
    assert str(plog(at(Fraction(7, 2)), pad(0, 3))) == plog_7_2
    # the branch value is known to O(3^32), which caps the last one
    assert str(plog(at(Fraction(45, 4)), pad(2, 3))) == plog_45_4


def test_li2p_needs_the_disc():
    with pytest.raises(ValueError, match=r"^need v_p\(z\) >= 1, got valuation 0$"):
        li2p(pad(3))
    with pytest.raises(ValueError, match=r"^need v_p\(z\) >= 1, got valuation -1$"):
        li2p(pad(Fraction(1, 5)))
    with pytest.raises(ValueError, match=r"^need v_p\(z\) >= 1, got valuation 0$"):
        dp_disc(pad(3), pad(0))


def test_dp_disc_zeroish_input():
    assert is_zeroish(li2p(PadicNumber.zero(5, 4)))
    assert is_zeroish(dp_disc(PadicNumber.zero(5, 4), pad(0)))


# -- branch differences --------------------------------------------------------------


BRANCHES = [
    pad(0),
    pad(10),
    pad(-5),
    pad(35),
]


def test_single_term_branch_difference():
    # D_p difference for one disc point equals Delta/2 * v(z) log(1-z)
    z = Fraction(5)
    A, B = BRANCHES[0], BRANCHES[1]
    direct = dp_disc(pad(z), A) - dp_disc(pad(z), B)
    formula = branch_diff(value((1, z)), A, B)
    assert agree_to(direct, formula, 30)


def test_branch_difference_matches_dp_disc_on_sums():
    rnd = random.Random(23)
    for trial in range(12):
        total = FormalSum.zero(T, "Q", "Z")
        for _ in range(rnd.randint(1, 3)):
            while True:
                a = rnd.randint(1, 40)
                b = rnd.randint(1, 40)
                if a % 5 and b % 5:
                    break
            z = Fraction(5 * a, b)
            total = total + FormalSum.single(const(z), rnd.choice([-2, -1, 1, 2]))
        if not total.terms:
            continue
        A, B = rnd.sample(BRANCHES, 2)
        direct = PadicNumber.zero(5)
        for f, coeff in total.items():
            z = f.evaluate({"t": fe(3)}).re
            diff = dp_disc(pad(z), A) - dp_disc(pad(z), B)
            direct = direct + diff.scale_rational(coeff)
        formula = branch_diff(evaluate_at_point(total, {"t": fe(3)}), A, B)
        assert agree_to(direct, formula, 30), trial


def test_bracket_is_branch_independent():
    # v(f)log(g) - v(g)log(f) with both valuations nonzero: the log(p)
    # contributions cancel exactly
    f, g = pad(10), pad(15)
    for A in BRANCHES[:2]:
        for B in BRANCHES[2:]:
            ba = plog(g, A).scale_rational(1) - plog(f, A).scale_rational(1)
            bb = plog(g, B).scale_rational(1) - plog(f, B).scale_rational(1)
            assert agree_to(ba, bb, 30)
    # a sum whose terms carry valuations on both sides of the bracket
    alpha = value((1, 10), (-2, Fraction(1, 15)), (3, Fraction(5, 6)))
    d_ab = branch_diff(alpha, BRANCHES[0], BRANCHES[3])
    d_ba = branch_diff(alpha, BRANCHES[3], BRANCHES[0])
    assert not is_zeroish(d_ab)
    assert agree_to(d_ab, -d_ba, 30)


def test_branch_diff_same_branch_is_zero():
    d = branch_diff(value((1, Fraction(5, 3)), (2, 10)), BRANCHES[1], BRANCHES[1])
    assert is_zeroish(d)


def test_branch_diff_argument_guards():
    # a point where an argument vanishes, hits 1 or has a pole has no value
    for alpha, point in [
        (FormalSum.single(t()), 0),
        (FormalSum.single(t()), 1),
        (FormalSum.single(t().inverse() + const(1)), 0),
    ]:
        with pytest.raises(PointNotAdmissible):
            evaluate_at_point(alpha, {"t": fe(point)})
    with pytest.raises(ValueError, match="cannot combine 5-adic and 7-adic"):
        branch_diff(value((1, 5)), pad(0), pad(0, 7))
    gaussian = value((1, (2, 1)), field_mode="Qi")
    with pytest.raises(ValueError, match="rational values"):
        branch_diff(gaussian, BRANCHES[0], BRANCHES[1])

