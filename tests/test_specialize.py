"""Specialization: the degenerate-argument correction and the cell table."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq.formal import ExtendedFormalSum, FormalSum, five_term, inversion
from dilogeq.ratfunc import INF, RationalFunction
from dilogeq.scalars import fe
from dilogeq.specialize import (
    PointNotAdmissible,
    SpecStep,
    default_aux,
    evaluate_at_point,
    iterate,
    naive_eval,
    sp,
)

from helpers import coefficients, in_one_form, random_formal_sum, wedge_difference
from oracles import constant_pairs, value_at_point_as_sum


T = ("t",)


def t():
    return RationalFunction.var(T, "t")


def const(q, universe=T):
    return RationalFunction.const(universe, fe(q))


def step_to(q, aux=2):
    target = INF if q is INF else const(q)
    return SpecStep("t", target, const(aux))


def ext(terms, c0=0, c1=0, cinf=0, universe=T):
    """Expected extended sum from {value: coeff} plus degenerate counts."""
    base = FormalSum(
        universe, {const(v, universe): Fraction(a) for v, a in terms.items()}
    )
    return ExtendedFormalSum(base, c0, c1, cinf)


def cell(f, target) -> str:
    """The degeneracy class f lands in at t -> target, read off the symbol
    naive_eval collects it into: '0', '1', 'inf' or 'other'."""
    e = naive_eval(FormalSum.single(f), "t", target)
    return {(1, 0, 0): "0", (0, 1, 0): "1", (0, 0, 1): "inf"}.get((e.c0, e.c1, e.cinf), "other")


# -- golden examples -----------------------------------------------------------


def duplication():
    return (
        FormalSum.single(t() ** 2)
        - FormalSum.single(t(), 2)
        - FormalSum.single(-t(), 2)
    )


def test_golden_at_one():
    got = sp(duplication(), step_to(1))
    want = FormalSum((), {const(-1, ()): Fraction(-2)})
    assert got == want


def test_golden_at_one_naive():
    ne = naive_eval(duplication(), "t", const(1))
    assert ne == ext({-1: -2}, c1=-1)


def test_golden_at_infinity():
    got = sp(duplication(), step_to(INF))
    # c_inf = -3, so the correction adds 3([c] + [1-c]); with c = 2
    want = FormalSum((), {const(2, ()): Fraction(3), const(-1, ()): Fraction(3)})
    assert got == want
    ne = naive_eval(duplication(), "t", INF)
    assert ne == ext({}, cinf=-3)


def test_golden_aux_choice_shows_up():
    got = sp(duplication(), step_to(INF, aux=3))
    want = FormalSum((), {const(3, ()): Fraction(3), const(-2, ()): Fraction(3)})
    assert got == want


def test_golden_three_variable_plan():
    U = ("t1", "t2", "t3")
    t1 = RationalFunction.var(U, "t1")
    t2 = RationalFunction.var(U, "t2")
    t3 = RationalFunction.var(U, "t3")
    alpha = FormalSum.single(t1 + t2 + t3)
    steps = (
        SpecStep("t2", -t1 - t3, t1 + t3**2),
        SpecStep("t1", -(t3**2), t3),
    )
    first = sp(alpha, steps[0])
    assert first == FormalSum(
        ("t1", "t3"),
        {
            RationalFunction.var(("t1", "t3"), "t1")
            + RationalFunction.var(("t1", "t3"), "t3") ** 2: Fraction(1),
            (
                RationalFunction.var(("t1", "t3"), "t1")
                + RationalFunction.var(("t1", "t3"), "t3") ** 2
            ).one_minus(): Fraction(1),
        },
    )
    final = iterate(alpha, steps)
    t3_only = RationalFunction.var(("t3",), "t3")
    want = FormalSum(
        ("t3",), {t3_only: Fraction(1), t3_only.one_minus(): Fraction(1)}
    )
    assert final == want


# -- the degeneracy table -----------------------------------------------------
#
# Witness pairs (x(t), y(t)) all specialized at t -> 0, aux c = 2.  Expected
# values are the pre-correction extended sums; each cell is labeled by
# (value of x at 0, value of y at 0).

TABLE = [
    # (x, y) -> 0: [1]
    ("0", "0", lambda: (t(), t() * const(2)), ext({}, c1=1)),
    # x -> 1, y -> 0: [1]
    ("1", "0", lambda: (const(1) + t(), t()), ext({}, c1=1)),
    # x -> inf, y -> 0: 2[inf] - [0]
    ("inf", "0", lambda: (t().inverse(), t()), ext({}, c0=-1, cinf=2)),
    # x -> other (c=2), y -> 0: [c] + [1-c] - [0]
    ("other", "0", lambda: (const(2), t()), ext({2: 1, -1: 1}, c0=-1)),
    # x -> 0, y -> 1: [0] - [1] + [inf]
    ("0", "1", lambda: (t(), const(1) + t()), ext({}, c0=1, c1=-1, cinf=1)),
    # (x, y) -> 1: [1]
    ("1", "1", lambda: (const(1) + t(), const(1) + t() * const(2)), ext({}, c1=1)),
    # x -> inf, y -> 1: [inf] - [1] + [0]
    ("inf", "1", lambda: (t().inverse(), const(1) + t()), ext({}, c0=1, c1=-1, cinf=1)),
    # x -> other, y -> 1: [c] - [1] + [1/c]
    ("other", "1", lambda: (const(2), const(1) + t()), ext({2: 1, Fraction(1, 2): 1}, c1=-1)),
    # x -> 0, y -> inf: 2[0] - [inf]
    ("0", "inf", lambda: (t(), t().inverse()), ext({}, c0=2, cinf=-1)),
    # x -> 1, y -> inf: [1]
    ("1", "inf", lambda: (const(1) + t(), t().inverse()), ext({}, c1=1)),
    # x -> other, y -> inf: [c] + [0] - [1 - 1/c]
    ("other", "inf", lambda: (const(2), t().inverse()), ext({2: 1, Fraction(1, 2): -1}, c0=1)),
    # x -> 0, y -> other: [0] - [c] + [1/(1-c)]
    ("0", "other", lambda: (t(), const(2)), ext({2: -1, -1: 1}, c0=1)),
    # x -> 1, y -> other: [1]
    ("1", "other", lambda: (const(1) + t(), const(2)), ext({}, c1=1)),
    # x -> inf, y -> other: 2[inf] + [0] - [c] - [1/(1 - 1/c)]
    ("inf", "other", lambda: (t().inverse(), const(2)), ext({2: -2}, c0=1, cinf=2)),
]

INF_INF_SUBCASES = [
    # same pole order, ratio -> 1: [1]
    (lambda: (t().inverse(), (const(1) + t()) / t()), ext({}, c1=1)),
    # different pole orders: [0] + [inf] - [1]
    (lambda: (t().inverse() ** 2, t().inverse()), ext({}, c0=1, c1=-1, cinf=1)),
    # same order, distinct leading coefficients: [c] + [1/c] - [1]
    (lambda: (const(2) / t(), t().inverse()), ext({Fraction(1, 2): 1, 2: 1}, c1=-1)),
]


@pytest.mark.parametrize(
    "xcase,ycase,mk,want",
    TABLE,
    ids=[f"x{x}-y{y}" for x, y, _, _ in TABLE],
)
def test_table_cell(xcase, ycase, mk, want):
    x, y = mk()
    stp = step_to(0)
    assert cell(x, stp.target) == xcase
    assert cell(y, stp.target) == ycase
    rel = five_term(x, y)
    naive, corrected = naive_eval(rel, "t", stp.target), sp(rel, stp)
    assert naive == want, f"naive {naive} != {want}"
    # the corrected sum merges the degenerate symbols away
    swing = want.c0 - want.cinf
    expected = want.ordinary
    if swing:
        expected = expected + FormalSum(
            T, {const(2): Fraction(swing), const(-1): Fraction(swing)}
        )
    assert corrected == expected.with_universe(())


@pytest.mark.parametrize("mk,want", INF_INF_SUBCASES, ids=["ratio1", "orders", "coeffs"])
def test_table_inf_inf_subcases(mk, want):
    x, y = mk()
    naive = naive_eval(five_term(x, y), "t", const(0))
    assert cell(x, const(0)) == "inf"
    assert cell(y, const(0)) == "inf"
    assert naive == want


def test_other_other_distinct_values():
    # generic cell: distinct non-degenerate values give a five-term sum
    x = const(2) + t()
    y = const(3)
    rel = five_term(x, y)
    naive, corrected = naive_eval(rel, "t", const(0)), sp(rel, step_to(0))
    want_plain = five_term(const(2), const(3))
    assert naive == ExtendedFormalSum(want_plain)
    assert corrected == want_plain.with_universe(())
    # equal values collapse to [1]
    x2 = const(2) + t()
    y2 = const(2) - t()
    naive2 = naive_eval(five_term(x2, y2), "t", const(0))
    assert naive2 == ext({}, c1=1)


def test_inversion_specializations():
    # [x] + [1/x] specializes to [c] + [1/c], 2[1], or [0] + [inf]
    inv1 = inversion(const(2) + t())
    got1 = naive_eval(inv1, "t", const(0))
    assert got1 == ext({2: 1, Fraction(1, 2): 1})
    inv2 = inversion(const(1) + t())
    got2 = naive_eval(inv2, "t", const(0))
    assert got2 == ext({}, c1=2)
    inv3 = inversion(t())
    got3 = naive_eval(inv3, "t", const(0))
    assert got3 == ext({}, c0=1, cinf=1)


# -- operator mechanics ---------------------------------------------------------


def test_spec_step_validation():
    with pytest.raises(ValueError):
        SpecStep("t", t(), const(2))  # target involves var
    with pytest.raises(ValueError):
        SpecStep("t", const(0), const(0))  # aux = 0
    with pytest.raises(ValueError):
        SpecStep("t", const(0), const(1))  # aux = 1
    with pytest.raises(TypeError):
        SpecStep("t", 0, const(2))  # raw int target


def test_default_aux():
    assert default_aux(T) == const(2)


def test_sp_without_degeneracies_is_substitution():
    alpha = FormalSum.single(t() + const(3)) + FormalSum.single(t() ** 2 + const(5), 2)
    got = sp(alpha, step_to(1))
    want = FormalSum(
        (), {const(4, ()): Fraction(1), const(6, ()): Fraction(2)}
    )
    assert got == want


def test_iterate_empty_plan():
    alpha = FormalSum.single(t() + const(3))
    assert iterate(alpha, ()) == alpha


def test_iterate_rejects_missing_variable():
    alpha = FormalSum.single(t() + const(3))
    steps = (SpecStep("s", const(0, ("s",)), const(2, ("s",))),)
    with pytest.raises(ValueError, match="variable s already eliminated"):
        iterate(alpha, steps)
    # a step that repeats a variable finds it eliminated by the one before
    with pytest.raises(ValueError, match="variable t already eliminated"):
        iterate(alpha, (step_to(0), step_to(1)))


def test_order_dependence_example():
    # [(t1 + c*t2)/(t1 + t2)] with c = 2: the two elimination orders
    # land on [2] and on 0
    U = ("t1", "t2")
    t1 = RationalFunction.var(U, "t1")
    t2 = RationalFunction.var(U, "t2")
    f = (t1 + t2 * RationalFunction.const(U, fe(2))) / (t1 + t2)
    alpha = FormalSum.single(f)
    zero1 = RationalFunction.const(U, fe(0))
    aux = RationalFunction.const(U, fe(5))
    first_t1 = iterate(
        alpha,
        (SpecStep("t1", zero1, aux), SpecStep("t2", zero1, aux)),
    )
    first_t2 = iterate(
        alpha,
        (SpecStep("t2", zero1, aux), SpecStep("t1", zero1, aux)),
    )
    assert first_t1 == FormalSum((), {const(2, ()): Fraction(1)})
    assert not first_t2.terms
    assert first_t1 != first_t2


def test_evaluate_at_point():
    alpha = FormalSum.single(t()) + FormalSum.single(t().one_minus())
    got = evaluate_at_point(alpha, {"t": fe(Fraction(1, 3))})
    assert got == [(fe(Fraction(1, 3)), Fraction(1)), (fe(Fraction(2, 3)), Fraction(1))]
    with pytest.raises(PointNotAdmissible):
        evaluate_at_point(FormalSum.single(t()), {"t": fe(1)})
    with pytest.raises(PointNotAdmissible):
        evaluate_at_point(FormalSum.single(t()), {"t": fe(0)})
    with pytest.raises(PointNotAdmissible):
        evaluate_at_point(FormalSum.single(t().inverse()), {"t": fe(0)})
    with pytest.raises(ValueError):
        evaluate_at_point(FormalSum.single(t()), {})


def test_evaluate_at_point_zero_over_zero():
    # coprime polynomials in two variables can share a zero
    xy = ("x", "y")
    x = RationalFunction.var(xy, "x")
    y = RationalFunction.var(xy, "y")
    f = (y - const(3, xy)) / (x - const(2, xy))
    with pytest.raises(PointNotAdmissible, match="0/0"):
        evaluate_at_point(FormalSum.single(f), {"x": fe(2), "y": fe(3)})


def test_full_plan_matches_point_evaluation():
    rnd = random.Random(31)
    U = ("t1", "t2")
    for _ in range(15):
        alpha = random_formal_sum(rnd, U, n_terms=3, max_deg=2)
        p1 = fe(rnd.randint(2, 7))
        p2 = fe(rnd.randint(2, 7) + 7)
        try:
            direct = evaluate_at_point(alpha, {"t1": p1, "t2": p2})
        except PointNotAdmissible:
            continue
        zero_u = RationalFunction.const(U, fe(0))
        aux = RationalFunction.const(U, fe(3))
        plan_a = (
            SpecStep("t1", RationalFunction.const(U, p1), aux),
            SpecStep("t2", RationalFunction.const(U, p2), aux),
        )
        plan_b = (
            SpecStep("t2", RationalFunction.const(U, p2), aux),
            SpecStep("t1", RationalFunction.const(U, p1), aux),
        )
        assert constant_pairs(iterate(alpha, plan_a)) == direct
        assert constant_pairs(iterate(alpha, plan_b)) == direct


def test_evaluate_at_point_merges_equal_values_and_drops_zero_totals():
    inv = FormalSum.single(t()) + FormalSum.single(t().inverse())
    assert evaluate_at_point(inv, {"t": fe(-1)}) == [(fe(-1), Fraction(2))]
    four_over_t = const(4, T) / t()
    cancel = FormalSum.single(t()) - FormalSum.single(four_over_t)
    assert evaluate_at_point(cancel, {"t": fe(2)}) == []


def test_evaluate_at_point_names_the_first_offender_in_the_sums_own_order():
    xy = ("x", "y")
    x = RationalFunction.var(xy, "x")
    y = RationalFunction.var(xy, "y")
    x2 = x - const(2, xy)
    alpha = FormalSum(xy, [(x, 1), (x.inverse(), 1), (y / x2, 1), (x2 / y, 1)])
    with pytest.raises(PointNotAdmissible, match=r"^argument \[x\] .*: the value is 1$"):
        evaluate_at_point(alpha, {"x": fe(1), "y": fe(0)})


# point coordinates where distinct arguments often share a value
GRID = [fe(q) for q in (-1, 2, Fraction(1, 2), -2, 3, Fraction(1, 3))]
GAUSSIAN_GRID = GRID + [fe(0, 1), fe(1, 1), fe(1, -1), fe(2, 1)]


@given(
    st.integers(0, 10_000),
    st.sampled_from(["Q", "Qi"]),
    st.sampled_from(["Z", "Q"]),
    st.integers(1, 2),
)
@settings(max_examples=120, deadline=None)
def test_evaluate_at_point_matches_the_formal_sum_of_constants(seed, field_mode, coeff_mode, k):
    rnd = random.Random(seed)
    universe = ("t1", "t2")[:k]
    alpha = random_formal_sum(rnd, universe, rnd.randint(1, 4), 2, field_mode, coeff_mode)
    grid = GAUSSIAN_GRID if field_mode == "Qi" else GRID
    for _ in range(6):
        point = {v: rnd.choice(grid) for v in universe}
        try:
            want = value_at_point_as_sum(alpha, point)
        except PointNotAdmissible:
            with pytest.raises(PointNotAdmissible):
                evaluate_at_point(alpha, point)
            continue
        assert evaluate_at_point(alpha, point) == want


# at t = 2 the first two share the value 2; t -> 0 sends them to [0] and
# [inf], t + 1 to [1]; t -> inf sends three of them to [inf]
SYMBOL_ARGUMENTS = (t(), const(4) / t(), t() + const(1), const(3) * t())


@given(st.data(), st.sampled_from(["Z", "Q"]))
@settings(max_examples=60, deadline=None)
def test_specialization_keeps_the_one_coefficient_form(data, mode):
    drawn = data.draw(
        st.lists(st.tuples(st.sampled_from(SYMBOL_ARGUMENTS), coefficients(mode)), max_size=5)
    )
    alpha = FormalSum(T, drawn, coeff_mode=mode)
    for q in (0, 1, 2, INF):
        e = naive_eval(alpha, "t", step_to(q).target)
        values = [e.c0, e.c1, e.cinf, *e.ordinary.terms.values()]
        assert all(in_one_form(c) for c in values), values
        assert all(in_one_form(c) for c in sp(alpha, step_to(q)).terms.values())
    pairs = evaluate_at_point(alpha, {"t": fe(2)})
    assert all(in_one_form(a) for _, a in pairs), pairs


def test_a_sum_of_halves_at_a_point_is_an_int():
    half = Fraction(1, 2)
    alpha = FormalSum(T, [(t(), half), (const(4) / t(), half)], coeff_mode="Q")
    assert [(z, type(a)) for z, a in evaluate_at_point(alpha, {"t": fe(2)})] == [(fe(2), int)]


def test_sp_preserves_relation_kernel():
    from dilogeq.wedge import boundary
    from helpers import random_five_term, random_inversion

    rnd = random.Random(17)
    for _ in range(8):
        rho = random_five_term(rnd, T)
        b = rnd.choice([0, 1, 2, -1, INF])
        stp = step_to(b) if b is not INF else step_to(INF)
        assert not boundary(sp(rho, stp)).pairs
        rho2 = random_inversion(rnd, T)
        assert not boundary(sp(rho2, stp)).pairs


def test_aux_choice_invisible_to_boundary():
    from dilogeq.wedge import boundary

    rnd = random.Random(41)
    for _ in range(6):
        alpha = random_formal_sum(rnd, T, n_terms=2)
        a = sp(alpha, step_to(0, aux=2))
        b = sp(alpha, step_to(0, aux=7))
        assert not wedge_difference(boundary(a), boundary(b)).pairs
