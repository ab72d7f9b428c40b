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

from dilogeq import numerics
from dilogeq.formal import FormalSum, five_term, inversion
from dilogeq.numerics import (
    _BERNOULLI,
    LI2_ONE,
    MOD_HALF_PISQ,
    ModPiSqHalf,
    SamplingExhausted,
    bloch_wigner,
    dilog_value,
    li2,
    numeric_probe,
    rl_bar,
    rogers,
)
from dilogeq.ratfunc import RationalFunction
from dilogeq.scalars import fe

T = ("t",)
T12 = ("t1", "t2")

# Catalan's constant, computed independently as Im(sum i^n/n^2) with mpmath
# at 30 digits and frozen here
CATALAN = 0.915965594177219015054603514932


def exact_bernoulli(count: int) -> list[Fraction]:
    """B_0 .. B_{count-1} with B_1 = -1/2, from sum_k C(m+1, k) B_k = 0."""
    bs: list[Fraction] = []
    for m in range(count):
        acc = Fraction(0)
        binom = 1
        for k in range(m):
            acc += binom * bs[k]
            binom = binom * (m + 1 - k) // (k + 1)
        bs.append(Fraction(1) if m == 0 else -acc / (m + 1))
    return bs


def test_bernoulli_table_is_the_nearest_float_of_each_exact_number():
    exact = exact_bernoulli(64)
    assert len(_BERNOULLI) == len(exact)
    assert [b.hex() for b in _BERNOULLI] == [float(b).hex() for b in exact]
    assert exact[:5] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]


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
        0.3 + 0.2j,        # |z| <= 1/2
        -0.7 + 0.9j,       # middle annulus
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


def _oracle_points() -> list[tuple[str, complex]]:
    """Seeded points labelled by the reduction branch or seam they test."""
    rng = random.Random(2024)

    def polar(r_lo, r_hi):
        return cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(-math.pi, math.pi))

    def jitter():
        return rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -4)

    makers = {
        "disc |z| <= 1/2": lambda: polar(1e-6, 0.5),
        "annulus": lambda: polar(0.5, 1.8),
        "right half-plane": lambda: complex(rng.uniform(0.5, 1.8), rng.uniform(-1.7, 1.7)),
        "|z| >= 1.8": lambda: polar(1.8, 1e4),
        "seam |z| = 1": lambda: polar(1, 1) * (1 + jitter()),
        "seam |z| = 1.8": lambda: polar(1.8, 1.8) * (1 + jitter()),
        "seam Re z = 1/2": lambda: complex(0.5 + jitter(), rng.uniform(-2, 2)),
        "seam |1 - z| = 1": lambda: 1 - polar(1, 1) * (1 + jitter()),
        "above the cut": lambda: complex(rng.uniform(1, 50), 10 ** rng.uniform(-12, -2)),
        "below the cut": lambda: complex(rng.uniform(1, 50), -(10 ** rng.uniform(-12, -2))),
        "real axis below 1": lambda: complex(rng.uniform(-50, 1), 0.0),
        "near 1": lambda: 1 + polar(1e-6, 1e-2),
    }
    pts = []
    for label, make in makers.items():
        while sum(1 for lab, _ in pts if lab == label) < 200:
            z = make()
            if abs(z) > 1e-9 and abs(1 - z) > 1e-9:
                pts.append((label, z))
    return pts


def test_li2_and_d_match_mpmath_on_every_reduction_branch():
    pts = _oracle_points()
    assert len(pts) >= 2000
    with mpmath.workdps(30):
        for label, z in pts:
            zz = mpmath.mpc(z)
            exact = mpmath.polylog(2, zz)
            want = complex(exact)
            got = li2(z)
            assert abs(got - want) <= 1e-13 * (1 + abs(want)), (label, z)
            if z.imag == 0:
                assert bloch_wigner(z) == 0.0
                continue
            d = float(mpmath.im(exact) + mpmath.arg(1 - zz) * mpmath.log(abs(zz)))
            assert abs(bloch_wigner(z) - d) <= 1e-13, (label, z)


def test_li2_keeps_relative_accuracy_near_zero():
    # Li2(z) ~ z there, so an absolute tolerance would pass Li2 = 0
    rng = random.Random(11)
    pts = [10.0 ** -k for k in range(8, 21)] + [-(10.0 ** -k) for k in range(8, 21)]
    for _ in range(200):
        r = 10.0 ** rng.uniform(-20, -8)
        pts.append(cmath.rect(r, rng.uniform(-math.pi, math.pi)))
    with mpmath.workdps(30):
        for z in pts:
            z = complex(z)
            want = complex(mpmath.polylog(2, mpmath.mpc(z)))
            assert abs(li2(z) - want) <= 1e-13 * abs(want), z


def test_li2_rejects_nonfinite():
    with pytest.raises(ValueError, match=r"^li2 argument must be finite, got \(inf\+0j\)$"):
        li2(float("inf"))
    with pytest.raises(ValueError, match=r"^li2 argument must be finite, got \(nan\+0j\)$"):
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
    # D extends continuously to 0 and 1 with value 0
    assert bloch_wigner(0) == bloch_wigner(1) == 0.0
    with pytest.raises(ValueError, match=r"^D argument must be finite, got \(inf\+1j\)$"):
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
    with pytest.raises(ValueError, match="^rogers argument must be finite, got nan$"):
        rogers(float("nan"))


def test_rogers_extension_branches():
    # the two extensions are glued by construction; spot-check both
    assert abs(rogers(2) + rogers(0.5) - math.pi**2 / 3) <= 1e-13
    assert abs(rogers(-1) + rogers(0.5)) <= 1e-13  # L(-1) = -L(1/2)


def test_rl_bar_special_values():
    assert rl_bar(1).distance_to_zero() <= 1e-15
    # infinity has no real reading, as for rogers
    with pytest.raises(ValueError, match="^rogers argument must be finite, got inf$"):
        rl_bar(float("inf"))
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
    assert (a + ModPiSqHalf.of(-x)).distance_to_zero() <= 1e-9
    assert abs(a.distance(b) - b.distance(a)) <= 1e-9
    assert a.distance_to_zero() <= MOD_HALF_PISQ / 2


@given(reals, st.integers(min_value=-5, max_value=5))
def test_mod_class_integer_scaling(x, n):
    a = ModPiSqHalf.of(x)
    total = ModPiSqHalf.of(0.0)
    step = a if n >= 0 else ModPiSqHalf.of(-x)
    for _ in range(abs(n)):
        total = total + step
    assert a.scale(n).distance(total) <= 1e-9


@given(reals)
def test_mod_class_centered_representative(x):
    m = ModPiSqHalf.of(x)
    c = m.centered()
    assert -MOD_HALF_PISQ / 2 < c <= MOD_HALF_PISQ / 2
    assert ModPiSqHalf.of(c).distance(m) <= 1e-12


def test_mod_class_centered_reads_small_classes_as_small_numbers():
    assert ModPiSqHalf.of(-3.6e-15).centered() == pytest.approx(-3.6e-15, abs=1e-15)
    assert ModPiSqHalf.of(3.6e-15).centered() == 3.6e-15
    assert ModPiSqHalf.of(math.pi**2 / 3).centered() == pytest.approx(-math.pi**2 / 6, abs=1e-15)
    assert ModPiSqHalf.of(MOD_HALF_PISQ / 2).centered() == MOD_HALF_PISQ / 2


def test_mod_class_rejects_fractional_scaling():
    with pytest.raises(ValueError):
        ModPiSqHalf.of(1.0).scale(Fraction(1, 2))


def test_mod_class_scales_by_an_int_and_an_integral_fraction_alike():
    a = ModPiSqHalf.of(1.25)
    assert a.scale(3).rep == a.scale(Fraction(3)).rep == ModPiSqHalf.of(3.75).rep
    assert type(a.scale(Fraction(3)).rep) is float
    with pytest.raises(ValueError, match="^only integer multiples act on the quotient$"):
        a.scale(Fraction(1, 2))


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


def test_probe_real_mean_is_the_centered_representative():
    # 2*rl_bar(1/2) is the class of -pi^2/6, read as itself rather than as
    # pi^2/3 in [0, pi^2/2)
    half = RationalFunction.const(T, fe(Fraction(1, 2)))
    rep = numeric_probe(FormalSum.single(half, 2), "real", samples=10, seed=0)
    assert abs(rep.mean_value + math.pi**2 / 6) <= 1e-12


@pytest.mark.parametrize(
    "alpha, domain",
    [
        (five_term(t("t1", T12), t("t2", T12)) + FormalSum.single(t("t1", T12) ** 7), "complex"),
        (inversion(t()) + FormalSum.single(t() ** 7), "real"),
        (FormalSum.single(t()) + FormalSum.single(t() ** 7 + t().one_minus()), "real-bw"),
    ],
    ids=["five-complex", "inversion-real", "two-term-real-bw"],
)
def test_probe_evaluates_each_argument_once_per_draw(monkeypatch, alpha, domain):
    draws = []  # per draw: the arguments evaluated, and whether it was kept
    current = None
    stray = []
    checked = []  # the arguments asked is_constant, over the whole probe
    eval_numeric = RationalFunction.eval_numeric
    is_constant = RationalFunction.is_constant
    sample_point = numerics._sample_point

    def counted_eval(self, point):
        (stray if current is None else current).append(self)
        return eval_numeric(self, point)

    def counted_is_constant(self):
        checked.append(self)
        return is_constant(self)

    def counted_sample(*args, **kwargs):
        nonlocal current
        current = []
        values = sample_point(*args, **kwargs)
        draws.append((current, values is not None))
        current = None
        return values

    monkeypatch.setattr(RationalFunction, "eval_numeric", counted_eval)
    monkeypatch.setattr(RationalFunction, "is_constant", counted_is_constant)
    monkeypatch.setattr(numerics, "_sample_point", counted_sample)
    rep = numeric_probe(alpha, domain, samples=40, seed=3)
    args = [f for f, _ in alpha.items()]
    assert stray == []
    # constancy is read once per argument per probe, not at every draw
    assert checked == args
    assert sum(kept for _, kept in draws) == rep.points_used == 40
    # the last argument, a 7th power, leaves the margin [1e-3, 1e3] for
    # |t| > 2.7, so some draws are rejected part-way
    assert any(not kept and len(evaluated) > 1 for evaluated, kept in draws)
    for evaluated, kept in draws:
        if kept:
            assert evaluated == args
        else:
            assert evaluated == args[: len(evaluated)]


@pytest.mark.parametrize("domain", numerics.PROBE_DOMAINS)
def test_a_probe_reading_is_dilog_value_at_the_draw(monkeypatch, domain):
    # one sample: the mean is the reading itself, and a real reading is read
    # as its centered representative
    three = RationalFunction.const(T, fe(3))
    alpha = FormalSum.single(t()) - FormalSum.single(t() ** 2, 2) + FormalSum.single(t() + three)
    coeffs = [a for _, a in alpha.items()]
    draws = []
    sample_point = numerics._sample_point

    def recorded(*args, **kwargs):
        values = sample_point(*args, **kwargs)
        if values is not None:
            draws.append(values)
        return values

    monkeypatch.setattr(numerics, "_sample_point", recorded)
    for seed in range(8):
        rep = numeric_probe(alpha, domain, samples=1, seed=seed)
        value = dilog_value(zip(coeffs, draws[-1]), real=domain == "real")
        assert rep.mean_value == (value.centered() if domain == "real" else value)
        assert rep.max_deviation == 0.0
    assert len(draws) == 8


def test_probe_real_bw_lies_on_vanishing_locus():
    rep = numeric_probe(FormalSum.single(t()), "real-bw", samples=50, seed=0)
    assert rep.max_deviation == 0.0
    assert rep.mean_value == 0.0


def test_probe_unknown_domain():
    with pytest.raises(ValueError):
        numeric_probe(FormalSum.single(t()), "p-adic", samples=10)


def test_probe_exhaustion():
    # |t^2 + 10^4| > 10^3 at every draw (|t| < 6), so no point is admissible
    far = t() ** 2 + RationalFunction.const(T, fe(10**4))
    with pytest.raises(SamplingExhausted) as err:
        numeric_probe(FormalSum.single(far), "complex", samples=1, seed=0)
    assert str(err.value) == "found 0 admissible points in 400 draws (need 1)"
    # |t^300| and |1 - t^300| lie in [1e-3, 1e3] only on a thin annulus
    # about |t| = 1, so seed 3 finds one point in 800 draws
    with pytest.raises(SamplingExhausted) as err:
        numeric_probe(FormalSum.single(t() ** 300), "complex", samples=2, seed=3)
    assert str(err.value) == "found 1 admissible points in 800 draws (need 2)"


def test_probe_rejects_a_draw_that_overflows():
    # |t|^500 is above the float range for |t| > 10^(308/500), about 4.1,
    # which the corners of the sampling square reach: such a draw is
    # rejected as a pole is
    rep = numeric_probe(FormalSum.single(t() ** 500), "complex")
    assert rep.points_used == 100


# repr of (max_deviation, mean_value) at samples=30, seed=4: the probe's
# float operations run in a fixed order, so any reordering shows here
PROBE_READINGS = {
    ("five-term", "complex"): ("4.850431399120818e-16", "-4.095393006201912e-17"),
    ("five-term", "real"): ("1.0362081563168128e-15", "0.0"),
    ("five-term", "real-bw"): ("0.0", "0.0"),
    ("t and t^2", "complex"): ("1.7809803906089086", "-0.27222470100223956"),
    ("t and t^2", "real"): ("2.1860281095954788", "-2.0521135165076463"),
    ("t and t^2", "real-bw"): ("0.0", "0.0"),
}


@pytest.mark.parametrize("name, domain", sorted(PROBE_READINGS))
def test_probe_readings_are_pinned(name, domain):
    if name == "five-term":
        alpha = five_term(t("t1", T12), t("t2", T12))
    else:
        alpha = FormalSum.single(t()) + FormalSum.single(t() ** 2)
    rep = numeric_probe(alpha, domain, samples=30, seed=4)
    assert rep.points_used == 30
    assert (repr(rep.max_deviation), repr(rep.mean_value)) == PROBE_READINGS[name, domain]


def test_probe_margin_skips_constant_arguments():
    # a constant argument far outside the margin has the same value at
    # every draw, so it must not reject the draw
    c = RationalFunction.const(T, fe(999983))
    alpha = FormalSum.single(t()) + FormalSum.single(c) + FormalSum.single(c.one_minus())
    rep = numeric_probe(alpha, "complex", samples=20, seed=0)
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
