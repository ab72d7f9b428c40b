"""Floating-point dilogarithms checked against independent oracles."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from dilogeq.formal import FormalSum, five_term, inversion
from dilogeq.numerics import (
    LI2_ONE,
    MOD_HALF_PISQ,
    DegenerateArgument,
    ModPiSqHalf,
    NonFinite,
    SamplingExhausted,
    bloch_wigner,
    li2,
    numeric_probe,
    rl_bar,
    rogers,
)
from dilogeq.ratfunc import INF, RationalFunction
from dilogeq.scalars import fe

T = ("t",)
T12 = ("t1", "t2")

# Catalan's constant, computed independently as Im(sum i^n/n^2) with mpmath
# at 30 digits and frozen here
CATALAN = 0.915965594177219015054603514932


def t(name="t", universe=T):
    return RationalFunction.var(universe, name)


# -- li2 ------------------------------------------------------------------------


def test_li2_special_values():
    assert li2(0) == 0
    assert li2(1) == complex(LI2_ONE)
    # Li2(1/2) = pi^2/12 - log(2)^2/2
    want = math.pi**2 / 12 - math.log(2) ** 2 / 2
    assert abs(li2(0.5) - want) < 1e-14
    # Li2(-1) = -pi^2/12
    assert abs(li2(-1) + math.pi**2 / 12) < 1e-13


def test_li2_matches_mpmath_on_all_branches():
    # one point per internal evaluation region, then a random sweep
    fixed = [
        0.3 + 0.2j,        # defining series
        -0.7 + 0.9j,       # middle annulus, log-series
        0.2 + 1.2j,
        0.9 + 0.1j,        # reflection into the left half
        1.2 + 0.4j,
        3 + 4j,            # inversion
        -2.5 + 0.1j,
        10j,
        -3.7 - 2.2j,
        0.49 + 0.01j,
    ]
    rng = random.Random(7)
    pts = list(fixed)
    while len(pts) < 60:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            continue
        if abs(z.imag) < 1e-3 and z.real > 1:
            continue  # principal-branch boundary
        pts.append(z)
    for z in pts:
        want = complex(mpmath.polylog(2, z))
        got = li2(z)
        assert abs(got - want) <= 1e-12 * (1 + abs(want)), z


def test_li2_rejects_nonfinite():
    with pytest.raises(NonFinite):
        li2(float("inf"))
    with pytest.raises(NonFinite):
        li2(complex(float("nan"), 0))


# -- Bloch-Wigner D --------------------------------------------------------------


def test_bloch_wigner_vanishes_on_reals():
    rng = random.Random(3)
    for _ in range(50):
        x = rng.uniform(-8, 8)
        if abs(x) < 1e-6 or abs(x - 1) < 1e-6:
            continue
        assert bloch_wigner(x) == 0.0


def test_bloch_wigner_degenerate_points():
    with pytest.raises(DegenerateArgument):
        bloch_wigner(0)
    with pytest.raises(DegenerateArgument):
        bloch_wigner(1)
    with pytest.raises(NonFinite):
        bloch_wigner(complex(float("inf"), 1))


def test_bloch_wigner_at_i_is_catalan():
    # D(i) = Im Li2(i) + arg(1-i) log|i| = Im Li2(i) since |i| = 1
    assert abs(bloch_wigner(1j) - CATALAN) <= 1e-10


def test_bloch_wigner_integral_oracle():
    # dD = 2 Re(w(z) dz) with w = (1/2i)(-log|z|/(1-z) - log|1-z|/z),
    # integrated along a segment from the basepoint 1/2 (D(1/2) = 0)
    def w(z):
        return (-math.log(abs(z)) / (1 - z) - math.log(abs(1 - z)) / z) / 2j

    base = 0.5
    points = [1j, 0.5 + 1j, -1 + 1j, 2j, -0.5 + 0.5j,
              1 + 1j, 2 + 1j, 0.3 + 0.8j, -2 + 0.5j, 1.5 - 0.5j]
    for z1 in points:
        dz = z1 - base

        def integrand(s):
            return 2 * (w(base + s * dz) * dz).real

        val, err = quad(integrand, 0, 1, limit=200)
        assert err < 1e-8
        assert abs(val - bloch_wigner(z1)) <= 1e-6, z1


def _admissible_complex(rng):
    while True:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if 1e-2 < abs(z) < 1e2 and 1e-2 < abs(1 - z) < 1e2:
            return z


def test_d_functional_equations():
    rng = random.Random(11)
    for _ in range(300):
        z = _admissible_complex(rng)
        assert abs(bloch_wigner(z) + bloch_wigner(1 / z)) <= 1e-9
        assert abs(bloch_wigner(z) + bloch_wigner(1 - z)) <= 1e-9
        assert abs(bloch_wigner(z) + bloch_wigner(z.conjugate())) <= 1e-12
    for _ in range(300):
        x = _admissible_complex(rng)
        y = _admissible_complex(rng)
        args = [x, y, y / x, (1 - x) / (1 - y), (1 - 1 / x) / (1 - 1 / y)]
        if any(abs(a) < 1e-2 or abs(a - 1) < 1e-2 or abs(a) > 1e2 for a in args):
            continue
        total = (bloch_wigner(args[0]) - bloch_wigner(args[1])
                 + bloch_wigner(args[2]) + bloch_wigner(args[3])
                 - bloch_wigner(args[4]))
        assert abs(total) <= 1e-9, (x, y)


# -- Rogers L and RL-bar ----------------------------------------------------------


def test_rogers_special_values():
    assert abs(rogers(1) - math.pi**2 / 6) <= 1e-12
    assert rogers(0) == 0.0
    # logs cancel: L(1/2) = Li2(1/2) + log(1/2)^2/2 = pi^2/12
    assert abs(rogers(0.5) - math.pi**2 / 12) <= 1e-13
    with pytest.raises(NonFinite):
        rogers(float("nan"))


def test_rogers_extension_branches():
    # the two extensions are glued by construction; spot-check both
    assert abs(rogers(2) + rogers(0.5) - math.pi**2 / 3) <= 1e-13
    assert abs(rogers(-1) + rogers(0.5)) <= 1e-13  # L(-1) = -L(1/2)


def test_rl_bar_special_values():
    assert rl_bar(1).distance_to_zero() <= 1e-15
    want_inf = ModPiSqHalf.of(-2 * LI2_ONE)
    assert rl_bar(INF).distance(want_inf) <= 1e-15
    assert rl_bar(float("inf")).distance(want_inf) <= 1e-15
    # L(0) = 0 so RL-bar(0) is the class of -pi^2/6
    assert rl_bar(0).distance(ModPiSqHalf.of(-LI2_ONE)) <= 1e-15


def _admissible_real(rng):
    while True:
        x = rng.uniform(-5, 5)
        if abs(x) > 1e-2 and abs(x - 1) > 1e-2:
            return x


def test_rl_bar_functional_equations():
    lbar = ModPiSqHalf.of(LI2_ONE)
    rng = random.Random(13)
    for _ in range(300):
        x = _admissible_real(rng)
        assert (rl_bar(x) + rl_bar(1 - x) + lbar).distance_to_zero() <= 1e-9
        assert (rl_bar(x) + rl_bar(1 / x)).distance_to_zero() <= 1e-9
    for _ in range(300):
        x = _admissible_real(rng)
        y = _admissible_real(rng)
        args = [x, y, y / x, (1 - x) / (1 - y), (1 - 1 / x) / (1 - 1 / y)]
        if any(abs(a) < 1e-2 or abs(a - 1) < 1e-2 or abs(a) > 1e3 for a in args):
            continue
        total = (rl_bar(args[0]) - rl_bar(args[1]) + rl_bar(args[2])
                 + rl_bar(args[3]) - rl_bar(args[4]))
        assert total.distance_to_zero() <= 1e-9, (x, y)


# -- the quotient R/(pi^2/2)Z ------------------------------------------------------


reals = st.floats(min_value=-100, max_value=100, allow_nan=False)


@given(reals)
def test_mod_class_representative_range(x):
    m = ModPiSqHalf.of(x)
    assert 0 <= m.rep < MOD_HALF_PISQ


@given(reals, reals)
def test_mod_class_add_sub(x, y):
    a, b = ModPiSqHalf.of(x), ModPiSqHalf.of(y)
    assert ((a + b) - b).distance(a) <= 1e-9
    assert (a + (-a)).distance_to_zero() <= 1e-9
    assert abs(a.distance(b) - b.distance(a)) <= 1e-9
    assert a.distance_to_zero() <= MOD_HALF_PISQ / 2


@given(reals, st.integers(min_value=-5, max_value=5))
def test_mod_class_integer_scaling(x, n):
    a = ModPiSqHalf.of(x)
    total = ModPiSqHalf.of(0.0)
    step = a if n >= 0 else -a
    for _ in range(abs(n)):
        total = total + step
    assert a.scale(n).distance(total) <= 1e-9


def test_mod_class_rejects_fractional_scaling():
    with pytest.raises(ValueError):
        ModPiSqHalf.of(1.0).scale(Fraction(1, 2))


def test_mod_class_periodicity():
    assert ModPiSqHalf.of(0.25 + 3 * MOD_HALF_PISQ).distance(
        ModPiSqHalf.of(0.25)
    ) <= 1e-12


# -- sampling probes ---------------------------------------------------------------


def test_probe_five_term_is_flat():
    x = t("t1", T12)
    y = t("t2", T12)
    rep = numeric_probe(five_term(x, y), "complex", samples=100, seed=2)
    assert rep.points_used == 100
    assert rep.max_deviation <= 1e-9
    assert abs(rep.mean_value) <= 1e-9


def test_probe_reflection_is_flat():
    alpha = FormalSum.single(t()) + FormalSum.single(t().one_minus())
    rep = numeric_probe(alpha, "complex", samples=100, seed=2)
    assert rep.max_deviation <= 1e-9


def test_probe_single_term_varies():
    rep = numeric_probe(FormalSum.single(t()), "complex", samples=100, seed=2)
    assert rep.max_deviation >= 1e-3


def test_probe_real_domain_inversion():
    rep = numeric_probe(inversion(t()), "real", samples=100, seed=5)
    assert rep.max_deviation <= 1e-9


def test_probe_real_domain_needs_integer_coefficients():
    alpha = FormalSum.single(t(), Fraction(1, 2), "Q", "Q")
    with pytest.raises(ValueError):
        numeric_probe(alpha, "real", samples=10, seed=0)


def test_probe_real_bw_lies_on_vanishing_locus():
    rep = numeric_probe(FormalSum.single(t()), "real-bw", samples=50, seed=0)
    assert rep.max_deviation == 0.0
    assert rep.mean_value == 0.0


def test_probe_unknown_domain():
    with pytest.raises(ValueError):
        numeric_probe(FormalSum.single(t()), "p-adic", samples=10)


def test_probe_exhaustion():
    # impossible margins: nothing is admissible
    with pytest.raises(SamplingExhausted):
        numeric_probe(
            FormalSum.single(t()), "complex",
            samples=10, seed=0, margin_lo=2.0, margin_hi=1.0, max_tries=50,
        )


def test_probe_margin_skips_constant_arguments():
    # a constant argument far outside the margin has the same value at
    # every draw, so it must not reject the draw
    c = RationalFunction.const(T, fe(999983))
    alpha = FormalSum.single(t()) + FormalSum.single(c) + FormalSum.single(c.one_minus())
    rep = numeric_probe(alpha, "complex", samples=20, seed=0, max_tries=200)
    assert rep.points_used == 20


@pytest.mark.parametrize("samples", [0, -1])
def test_probe_needs_a_sample(samples):
    with pytest.raises(ValueError, match=f"at least one sample, got {samples}$"):
        numeric_probe(FormalSum.single(t()), "complex", samples=samples)


def test_probe_deterministic():
    alpha = five_term(t("t1", T12), t("t2", T12))
    a = numeric_probe(alpha, "complex", samples=40, seed=9)
    b = numeric_probe(alpha, "complex", samples=40, seed=9)
    assert a == b
