"""The reduced wedge square, the boundary map, and the constancy criterion."""

import functools
import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq import wedge
from dilogeq.document import load_document
from dilogeq.exprparse import parse_expression
from dilogeq.formal import FormalSum, c_element, five_term, inversion
from dilogeq.poly import MultiPoly
from dilogeq.ratfunc import INF, RationalFunction
from dilogeq.scalars import I, FieldElement, fe
from dilogeq.wedge import (
    WedgeElement,
    boundary,
    check_constant,
    check_constant_cc,
    check_constant_real,
)

from helpers import (
    benchmark_inputs,
    benchmark_relation_sums,
    beta1_by_element,
    coefficients,
    in_one_form,
    beta1_from_exponents,
    beta3_is_zero,
    expand_beta1_to_planted,
    planted_basis,
    product_of_planted,
    random_admissible,
    random_coeff,
    random_five_term,
    random_formal_sum,
    random_inversion,
    wedge_difference,
)
from oracles import (
    NotUnivariate,
    decompose_by_sorting,
    first_obstruction_by_sorting,
    sorted_entries,
    t_v,
    univar_rem,
    wedge_specialize,
)


T = ("t",)
ZW = ("z", "w")


def t():
    return RationalFunction.var(T, "t")


def const(q):
    return RationalFunction.const(T, fe(q))


def tp(name):
    return MultiPoly.var(T, name)


# -- decomposition basics ----------------------------------------------------


def test_boundary_of_single_variable():
    w = boundary(FormalSum.single(t()))
    b1, b2, b3 = w.decompose()
    # d[t] = t /\ (1 - t) = t /\ (t - 1) + t /\ (-1)
    assert b1 == {("t", "t - 1"): 1}
    assert b2 == {"t": {"-1": 1}}
    assert b3["pairs"] == {} and b3["units"] == {}
    assert w.pairs


def test_constant_sum_lands_in_beta3():
    alpha = FormalSum.single(const(2))
    w = boundary(alpha)
    assert w.first_obstruction() is None
    # d[2] = 2 /\ (-1), a pure unit contribution
    _, _, b3 = w.decompose()
    assert b3["units"] == {"2": 1}
    alpha2 = FormalSum.single(const(Fraction(1, 3)))
    _, _, b3 = boundary(alpha2).decompose()
    # d[1/3] = (1/3) /\ (2/3) = -(3 /\ 2) + (3 /\ 3) = (2 /\ 3) + 3 /\ (-1)
    assert b3["pairs"] == {("2", "3"): 1}
    assert b3["units"] == {"3": 1}


# -- defining relations of the reduced wedge ---------------------------------


def test_defining_relation_minus_x_wedge_x():
    for f in (t(), t() + const(2), (t() - const(3)) / (t() + const(1))):
        w = WedgeElement([(1, -f, f)])
        assert not w.pairs, str(w)


def test_antisymmetry():
    f = t() + const(1)
    g = t() - const(2)
    w = WedgeElement([(1, f, g), (1, g, f)])
    assert not w.pairs


def test_bilinearity_across_bases():
    # (fg) /\ h = f /\ h + g /\ h even though the two sides see
    # different coprime bases before subtraction merges them
    f = t()
    g = t() + const(1)
    h = t() - const(3)
    lhs = WedgeElement([(1, f * g, h)])
    rhs = WedgeElement([(1, f, h), (1, g, h)])
    assert not wedge_difference(lhs, rhs).pairs


def test_diagonal_law_rational():
    # x /\ x = x /\ (-1)
    f = t() + const(2)
    lhs = WedgeElement([(1, f, f)])
    rhs = WedgeElement([(1, f, const(-1))])
    assert not wedge_difference(lhs, rhs).pairs
    assert lhs.pairs


def test_diagonal_law_gaussian():
    # over Q(i): x /\ x = 2 (x /\ i)
    i_const = RationalFunction.const(T, I)
    f = t() + const(3)
    lhs = WedgeElement([(1, f, f)], field_mode="Qi")
    rhs = WedgeElement([(2, f, i_const)], field_mode="Qi")
    assert not wedge_difference(lhs, rhs).pairs


# -- unit torsion -------------------------------------------------------------


def test_unit_torsion_mod_2_rational():
    w1 = WedgeElement([(1, t(), const(-1))])
    assert w1.pairs
    w2 = WedgeElement([(2, t(), const(-1))])
    assert not w2.pairs


def test_unit_torsion_mod_4_gaussian():
    i_const = RationalFunction.const(T, I)
    for k in range(1, 4):
        wk = WedgeElement([(k, t(), i_const)], field_mode="Qi")
        assert wk.pairs, k
    w4 = WedgeElement([(4, t(), i_const)], field_mode="Qi")
    assert not w4.pairs
    # -1 = i^2: x /\ (-1) = 2 (x /\ i), killed by coefficient 2
    w_half = WedgeElement([(2, t(), const(-1))], field_mode="Qi")
    assert not w_half.pairs


def test_q_coefficients_kill_unit_torsion():
    w = WedgeElement([(1, t(), const(-1))], coeff_mode="Q")
    assert not w.pairs
    # but honest prime content survives
    w2 = WedgeElement([(Fraction(1, 2), t(), const(2))], coeff_mode="Q")
    assert w2.pairs


def test_unit_with_itself():
    # (-1) /\ (-1) is kept over Q, mod 2; i /\ i = 0 over Q(i)
    minus = WedgeElement([(1, const(-1), const(-1))])
    assert minus.decompose()[2]["unit_unit"] == 1
    assert minus.first_obstruction() is None and not beta3_is_zero(minus)
    assert not WedgeElement([(2, const(-1), const(-1))]).pairs
    i_const = RationalFunction.const(T, I)
    assert not WedgeElement([(1, i_const, i_const)], field_mode="Qi").pairs


def test_z_mode_torsion_must_be_integral():
    with pytest.raises(ValueError):
        WedgeElement([(Fraction(1, 2), t(), const(-1))])
    assert not WedgeElement([(Fraction(1, 2), t(), const(-1))], coeff_mode="Q").pairs


# arguments with prime and unit content, so all three layers show up
FORM_ARGUMENTS = ("t", "t + 1", "-t", "2*t", "2", "-2", "3", "1/2", "-1")


@given(st.data(), st.sampled_from(["Z", "Q"]))
@settings(max_examples=60, deadline=None)
def test_boundary_values_keep_the_one_coefficient_form(data, mode):
    drawn = data.draw(
        st.lists(st.tuples(st.sampled_from(FORM_ARGUMENTS), coefficients(mode)), max_size=5)
    )
    pairs = [(parse_expression(src, T, "Q"), c) for src, c in drawn]
    alpha = FormalSum(T, pairs, coeff_mode=mode)
    w = boundary(alpha)
    b3 = check_constant(alpha).residual_beta3
    values = [*w.pairs.values(), *b3["pairs"].values(), *b3["units"].values(), b3["unit_unit"]]
    if mode == "Z":
        assert all(type(v) is int for v in values), values
    assert all(in_one_form(v) for v in values), values
    # raw tensors read as a sum's coefficients: 3 and Fraction(3) alike
    raw = WedgeElement([(Fraction(c), f, f.one_minus()) for f, c in alpha.items()], "Q", mode)
    assert raw.pairs == w.pairs
    assert [type(v) for v in raw.pairs.values()] == [type(v) for v in w.pairs.values()]


def test_halves_meeting_on_a_pair_sum_to_an_int():
    half = Fraction(1, 2)
    w = WedgeElement([(half, t(), const(2)), (half, t(), const(2))], coeff_mode="Q")
    assert [type(v) for v in w.pairs.values()] == [int]
    # Z-mode reads each raw coefficient as a Z-mode sum does: a half is
    # refused on a torsion pair, two of them alike, and on any other pair
    refused = r"^coefficient 1/2 is not an integer \(coefficients: Z\)$"
    for tensors in (
        [(half, t(), const(-1)), (half, t(), const(-1))],
        [(half, t(), const(-1))],
        [(half, t(), const(2))],
    ):
        with pytest.raises(ValueError, match=refused):
            WedgeElement(tensors)


# -- relation generators die under the boundary ------------------------------


def test_five_term_boundary_vanishes():
    assert not boundary(five_term(const(2), const(3))).pairs
    assert not boundary(five_term(t(), t() ** 2)).pairs


def test_inversion_boundary_vanishes():
    assert not boundary(inversion(t() + const(1))).pairs


def test_c_element_boundary_vanishes():
    assert not boundary(c_element(t() ** 2 + const(1))).pairs


def test_relation_kernel_random_sample():
    rnd = random.Random(11)
    for _ in range(12):
        assert not boundary(random_five_term(rnd, T)).pairs
        assert not boundary(random_inversion(rnd, T)).pairs
    T2 = ("t1", "t2")
    for _ in range(6):
        assert not boundary(random_five_term(rnd, T2)).pairs


# -- verdicts -----------------------------------------------------------------


def test_check_constant_on_relations():
    cert = check_constant(five_term(t(), t() ** 2))
    assert cert.is_constant() and cert.verdict == "Constant"
    assert cert.witness is None


def test_check_constant_witness():
    cert = check_constant(FormalSum.single(t()))
    assert cert.verdict == "NotConstant"
    kind, b, bprime, val = cert.witness
    assert kind == "pair"
    assert str(b) == "t" and str(bprime) == "t - 1" and val == 1


def test_check_constant_with_a_coefficient_beyond_the_int_to_str_limit():
    # the certificate formats beta3 labels only, never a basis polynomial
    cert = check_constant(FormalSum.single(parse_expression("t*3^300000", T)))
    assert cert.verdict == "NotConstant"
    kind, b, bprime, val = cert.witness
    assert (kind, b, val) == ("pair", MultiPoly.var(T, "t"), 1)
    assert bprime == MultiPoly.var(T, "t") - MultiPoly.const(T, fe(Fraction(1, 3**300000)))


def test_column_obstruction_direct():
    # beta1 = 0 with a surviving beta2 column, reported as the witness
    w = WedgeElement([(1, t(), const(2))])
    obs = w.first_obstruction()
    assert obs == ("column", MultiPoly.var(T, "t"), "2", 1)
    w2 = WedgeElement([(1, t(), const(-1))])
    obs2 = w2.first_obstruction()
    assert obs2 == ("column", MultiPoly.var(T, "t"), "-1", 1)
    assert boundary(five_term(const(2), const(3))).first_obstruction() is None


def test_pair_witness_before_an_earlier_column():
    # beta2 sits on t, the first basis element, and beta1 only on later ones;
    # every beta1 entry still comes before every beta2 entry.  No boundary has
    # this shape (its tame symbol at t would be the constant 2), so the
    # element is built directly.
    w = WedgeElement([(1, t(), const(2)), (1, t() - const(1), t() - const(2))])
    assert [str(b) for b in w.sorted_basis()] == ["t", "t - 2", "t - 1"]
    kind, b, bprime, val = w.first_obstruction()
    assert (kind, str(b), str(bprime), val) == ("pair", "t - 2", "t - 1", -1)


def _ordered(value):
    """value with each dict read as the list of its items, so that == also
    compares the order the views fill them in."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    if isinstance(value, tuple):
        return tuple(_ordered(v) for v in value)
    return value


def _views_read_the_references(w: WedgeElement) -> str:
    """Check w's views against the references that sort its pairs; return
    the kind of its first obstruction, "none" for a nonzero beta3 alone."""
    assert list(w.pairs) == [(x, y) for x, y, _ in sorted_entries(w)]
    reference = decompose_by_sorting(w)
    assert _ordered(w.decompose()) == _ordered(reference)
    assert _ordered(w.beta3()) == _ordered(reference[2])
    obs = w.first_obstruction()
    assert obs == first_obstruction_by_sorting(w)
    if obs is not None:
        return obs[0]
    return "zero" if beta3_is_zero(w) else "none"


@pytest.mark.parametrize("field_mode", ["Q", "Qi"])
def test_views_read_the_pairs_in_atom_order(field_mode):
    rnd = random.Random(40)
    gaussian = field_mode == "Qi"
    kinds = set()
    for _ in range(25):
        alpha = random_formal_sum(rnd, ZW, n_terms=3, field_mode=field_mode)
        kinds.add(_views_read_the_references(boundary(alpha)))
    # sums of constants leave beta3 alone
    for _ in range(10):
        terms = []
        for _ in range(2):
            f = RationalFunction.const(ZW, random_coeff(rnd, gaussian, zero_ok=False))
            if not f.is_one():
                terms.append((f, rnd.choice([-2, -1, 1, 3])))
        kinds.add(_views_read_the_references(boundary(FormalSum(ZW, terms, field_mode))))
    # no boundary has a beta2 column as its first obstruction (its tame
    # symbol at the element would be a constant other than a unit), so the
    # elements with one are built from tensors with a constant side
    for _ in range(25):
        f, g = (random_admissible(rnd, ZW, gaussian=gaussian) for _ in "fg")
        c = RationalFunction.const(ZW, random_coeff(rnd, gaussian, zero_ok=False))
        tensors = [(rnd.choice([-2, -1, 1, 3]), f, c), (rnd.choice([0, 1]), f, g)]
        kinds.add(_views_read_the_references(WedgeElement(tensors, field_mode)))
    assert {"pair", "column", "none"} <= kinds


def test_duplication_combo_is_constant():
    # [t^2] - 2[t] - 2[-t] passes the symbolic criterion
    alpha = (
        FormalSum.single(t() ** 2)
        - FormalSum.single(t(), 2)
        - FormalSum.single(-t(), 2)
    )
    cert = check_constant(alpha)
    assert cert.is_constant()
    # its residual beta3 records the constant's prime content
    assert cert.residual_beta3 is not None


def test_check_constant_real():
    # D vanishes identically on real arguments: any rational-coefficient
    # sum is constant (zero) on the real locus
    cert = check_constant_real(FormalSum.single(t()))
    assert cert.is_constant()
    # a Gaussian sum that is not conjugation-symmetric fails
    i_const = RationalFunction.const(T, I)
    alpha = FormalSum.single(t() + i_const, 1, field_mode="Qi")
    cert2 = check_constant_real(alpha)
    assert cert2.verdict == "NotConstant"


def test_check_constant_cc():
    z = RationalFunction.var(ZW, "z")
    w = RationalFunction.var(ZW, "w")
    # [z*w] restricted to w = conj(z) is D(|z|^2) = 0: constant
    alpha = FormalSum.single(z * w, 1)
    cert = check_constant_cc(alpha, {"z": "w"})
    assert cert.is_constant()
    # [z] alone is not
    beta = FormalSum.single(z, 1)
    cert2 = check_constant_cc(beta, {"z": "w"})
    assert cert2.verdict == "NotConstant"


def test_check_constant_cc_pairing_validation():
    # a variable the pairing does not move is real: a self-pair and an
    # unpaired variable read D on the real locus
    z = RationalFunction.var(ZW, "z")
    alpha = FormalSum.single(z, 1)
    assert check_constant_cc(alpha, {"z": "z"}) == check_constant_real(alpha)
    assert check_constant_cc(alpha, {"z": "z"}).is_constant()
    U3 = ("z", "w", "u")
    z3, w3, u3 = (RationalFunction.var(U3, v) for v in U3)
    assert check_constant_cc(FormalSum.single(u3 * z3 * w3, 1), {"z": "w"}).is_constant()
    assert not check_constant_cc(FormalSum.single(u3 * z3, 1), {"z": "w"}).is_constant()
    # a variable with two partners, or a name outside the universe, is no
    # involution of the universe
    beta = FormalSum.single(z3, 1)
    for bad in ({"z": "w", "u": "w"}, {"z": "w", "w": "u"}, {"z": "q"}, {"q": "q"}):
        message = f"variable pairing {bad} is not an involution of {U3}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_constant_cc(beta, bad)


# Six certificates of the conjugation criterion, recorded before the real
# locus became its no-pair case: (variables, field, coefficients, pairing
# or None for the real locus, terms) -> (verdict, witness, beta3).
CONJUGATION_CERTIFICATES = [
    (
        ("z", "w"), "Qi", "Z", {"z": "w"},
        [(1, "z*w"), (1, "(1 + i)*z"), (1, "(1 - i)*w"), (1, "1 + i")],
        ("Constant", None, {}, {"1 + i": "2"}),
    ),
    (
        ("z", "w"), "Q", "Z", {"z": "w"},
        [(1, "z"), (-1, "w"), (2, "z*w - 1")],
        ("NotConstant", ("pair", "w", "w - 1", "-2"), {}, {}),
    ),
    (
        ("z", "w", "u", "v"), "Qi", "Z", {"z": "w", "u": "v"},
        [(1, "z*u"), (1, "w*v"), (3, "2*z"), (1, "3*i")],
        (
            "NotConstant",
            ("pair", "w", "w - 1/2", "-3"),
            {"1 + 2*i ^ 3": "-1", "2 + i ^ 3": "1"},
            {"1 + i": "2", "1 + 2*i": "3", "2 + i": "3", "3": "2"},
        ),
    ),
    (
        ("z", "w"), "Qi", "Q", {"z": "w"},
        [(Fraction(1, 2), "(1 + 2*i)*z"), (Fraction(1, 2), "(1 - 2*i)*w"), (-1, "z + w"), (2, "2 - i")],
        ("Constant", None, {"1 + i ^ 1 + 2*i": "-2", "1 + i ^ 2 + i": "2"}, {}),
    ),
    (
        ("t",), "Qi", "Z", None,
        [(1, "i*t"), (1, "-i*t"), (1, "2 + i"), (1, "-3*t")],
        (
            "Constant",
            None,
            {"1 + i ^ 1 + 2*i": "1", "1 + i ^ 2 + i": "-1"},
            {"1 + i": "3", "1 + 2*i": "3", "2 + i": "2"},
        ),
    ),
    (
        ("t1", "t2"), "Qi", "Q", None,
        [(1, "(1 + i)*t1/t2"), (Fraction(1, 2), "t1 + i")],
        ("NotConstant", ("pair", "t2", "t1 + (-1/2 - 1/2*i)*t2", "1"), {}, {}),
    ),
]


@pytest.mark.parametrize("case", CONJUGATION_CERTIFICATES)
def test_conjugation_certificates_recorded(case):
    universe, field, coeff, swap, terms, expected = case
    alpha = FormalSum.zero(universe, field, coeff)
    for a, src in terms:
        alpha = alpha + FormalSum.single(parse_expression(src, universe, field), a, field, coeff)
    cert = check_constant_real(alpha) if swap is None else check_constant_cc(alpha, swap)
    b3 = cert.residual_beta3
    got = (
        cert.verdict,
        None if cert.witness is None else tuple(str(x) for x in cert.witness),
        {f"{p} ^ {q}": str(v) for (p, q), v in b3["pairs"].items()},
        {str(p): str(v) for p, v in b3["units"].items()},
    )
    assert got == expected
    assert b3["unit_unit"] == 0
    if swap is None:
        assert check_constant_cc(alpha) == cert


def test_a_boundary_factors_each_distinct_unit_once(monkeypatch):
    calls, factor = [], wedge.factor_constant

    def counted(unit, gaussian):
        calls.append(unit)
        return factor(unit, gaussian)

    monkeypatch.setattr(wedge, "factor_constant", counted)
    x, y = RationalFunction.var(ZW, "z"), RationalFunction.var(ZW, "w")
    six = RationalFunction.const(ZW, fe(6))
    alpha = five_term(x, y) + c_element(six) + FormalSum.single(x / six)
    w = boundary(alpha)
    units = {w.basis.factor_rf(h)[0] for _, f, g in w.tensors for h in (f, g)}
    assert len(calls) == len(set(calls)) == len(units) < 2 * len(w.tensors)
    assert set(calls) == units


def test_oversized_constant_refused():
    # a product of two primes above 10^6 that trial division cannot split
    big = const(1_000_003 * 1_000_033)
    with pytest.raises(
        ValueError, match="^constant has a prime factor above the bound 1000000: residual 1000036000099$"
    ):
        boundary(FormalSum.single(big))


# -- valuation pairings -------------------------------------------------------


def test_beta1_pair_examples():
    # d[t] = t /\ (1 - t) pairs t with t - 1 by 1, and t sorts first
    w = boundary(FormalSum.single(t()))
    b, b1 = tp("t"), tp("t") - MultiPoly.one(T)
    assert w.sorted_basis() == [b, b1]
    assert beta1_by_element(w) == {(b, b1): 1}
    assert tp("t") + MultiPoly.one(T) not in w.basis.elements


def test_t_v_examples():
    # tame symbol of d[t] at the place t - 1 is the residue of t there: 1
    w = boundary(FormalSum.single(t()))
    res = t_v(w, tp("t") - MultiPoly.one(T))
    assert res == MultiPoly.one(T)
    # t /\ t at the place t: sign (-1)^{1*1} times t^1 t^{-1} = -1
    w2 = WedgeElement([(1, t(), t())])
    res2 = t_v(w2, tp("t"))
    assert res2 == MultiPoly.one(T).scale(fe(-1))


def test_t_v_trivial_on_boundaries_of_relations():
    rnd = random.Random(23)
    for _ in range(6):
        alpha = random_five_term(rnd, T)
        w = boundary(alpha)
        assert not w.pairs
        # every place: empty tensors still give 1 after cancellation
        place = tp("t") - MultiPoly.const(T, fe(rnd.randint(2, 9)))
        assert t_v(w, place) == MultiPoly.one(T)


def test_t_v_requires_univariate():
    T2 = ("t1", "t2")
    f = RationalFunction.var(T2, "t1") + RationalFunction.var(T2, "t2")
    w = WedgeElement([(1, f, RationalFunction.var(T2, "t1"))])
    with pytest.raises(NotUnivariate):
        t_v(w, MultiPoly.var(T2, "t1"))


def _seeded_wedges(mode: str, seed: int, count: int = 4):
    """One-variable wedge elements of one to three tensors a (f /\\ g)."""
    rnd = random.Random(seed)
    gaussian = mode == "Qi"
    for _ in range(count):
        tensors = [
            (
                rnd.choice((-2, -1, 1, 2, 3)),
                random_admissible(rnd, T, 2, gaussian),
                random_admissible(rnd, T, 2, gaussian),
            )
            for _ in range(rnd.randint(1, 3))
        ]
        yield WedgeElement(tensors, mode)


# The tame symbol of each seeded element at every element of its basis, as
# {place: reduced residue}, recorded from an earlier t_v that reduced one
# residue per tensor, so the pins do not rest on the code they test.
T_V_PINNED = {
    ("Q", 11): [
        {
            "t": "729/4096",
            "t - 4": "262144/50653",
            "t - 3": "9261/8",
            "t + 1/2": "-125/343",
            "t + 4/3": "729/1000",
            "t^2 + t - 3/2": "920/729*t + 797/729",
        },
        {"t": "-3/64", "t - 2": "64/9", "t - 1": "1", "t - 1/2": "9/4"},
        {"t": "16", "t - 1/2": "1/25", "t^2 + 1": "-t - 3/4"},
        {
            "t": "1",
            "t + 1/2": "1/2",
            "t + 2": "1/81",
            "t^2 - 1": "2",
            "t^2 - 3*t - 1": "-95/9*t + 314/9",
        },
    ],
    ("Qi", 12): [
        {
            "t": "(79/48 + 1/16*i)",
            "t + (-12/17 + 3/17*i)": "(-921/1796 - 255/1796*i)",
            "t + (-3 - i)": "(31/113 - 13/113*i)",
            "t + (-2 + i)": "(101567/125000 - 6611/31250*i)",
            "t^2 - 1/2": "(348080/704969 + 98400/704969*i)*t"
            " + (173696/704969 + 110024/704969*i)",
            "t^2 + (1 + 1/2*i)*t + 1/2": "6*t + (10 + 4*i)",
        },
        {
            "t": "(8/3 + 8*i)",
            "t + (-4/3 + 2/3*i)": "(32/5 + 6/5*i)",
            "t + 1": "(11/53 - 12/53*i)",
            "t + 1/4": "(4/5 + 8/5*i)",
            "t + (2 + 2*i)": "(-1/5 + 2/5*i)",
            "t + (4 - 2*i)": "(-7/2 + 1/2*i)",
        },
        {
            "t": "-1/3",
            "t + (-3/4 - 3/4*i)": "-3/2*i",
            "t + 1": "(-4 + 2*i)",
            "t^2 - 3/2": "-3/4*t - 3/4",
            "t^2 + (2/5 - 1/5*i)": "(14/15 + 2/15*i)*t + (-14/15 - 2/15*i)",
        },
        {
            "t": "-64",
            "t + (-3/4 - 1/4*i)": "(-15849/8 - 36477/4*i)",
            "t - 1": "-1/64",
            "t - 1/4": "(-4670149088/10837877597 - 1414399016/10837877597*i)",
            "t^2 + (-4/5 + 8/5*i)*t + (-2/5 + 4/5*i)": "(206376070/206425071"
            " - 12281630/22936119*i)*t + (-29137241/206425071 - 63591034/206425071*i)",
            "t^2 + 3/2*i*t - 3/2*i": "(-4812894/34328125 - 7639542/34328125*i)*t"
            " + (1256677/34328125 + 6912286/34328125*i)",
        },
    ],
}


@pytest.mark.parametrize("mode, seed", sorted(T_V_PINNED))
def test_t_v_pinned_at_every_basis_element(mode, seed):
    got = [
        {str(b): str(t_v(w, b)) for b in w.basis.elements}
        for w in _seeded_wedges(mode, seed)
    ]
    assert got == T_V_PINNED[mode, seed]


@pytest.mark.parametrize("mode", ["Q", "Qi"])
def test_t_v_is_multiplicative_and_antisymmetric(mode):
    one = MultiPoly.one(T)
    wedges = list(_seeded_wedges(mode, 31, count=6))
    for w1, w2 in zip(wedges[::2], wedges[1::2]):
        both = WedgeElement(w1.tensors + w2.tensors, mode)
        swapped = WedgeElement([(a, g, f) for a, f, g in both.tensors], mode)
        for b in both.basis.elements:
            whole = t_v(both, b)
            assert whole == univar_rem(t_v(w1, b) * t_v(w2, b), b, "t"), str(b)
            assert univar_rem(whole * t_v(swapped, b), b, "t") == one, str(b)


def _tame_symbol_at(w: WedgeElement, c: FieldElement) -> FieldElement:
    """The tame symbol at t = c from its definition: f = (t - c)^v(f) u
    with u(c) finite and nonzero, and f /\\ g maps to
    (-1)^{v(f) v(g)} u_f(c)^{v(g)} / u_g(c)^{v(f)}."""
    pi = t() - RationalFunction.const(T, c)

    def split(f: RationalFunction) -> tuple[int, FieldElement]:
        v = 0
        while True:
            value = f.evaluate({"t": c})
            if value is INF:
                f, v = f * pi, v - 1
            elif value.is_zero():
                f, v = f / pi, v + 1
            else:
                return v, value

    out = fe(1)
    for a, f, g in w.tensors:
        vf, uf = split(f)
        vg, ug = split(g)
        out = out * (fe(-1) ** (vf * vg) * uf**vg / ug**vf) ** int(a)
    return out


@pytest.mark.parametrize("mode, seed", [("Q", 41), ("Qi", 42)])
def test_t_v_at_linear_places_matches_the_definition(mode, seed):
    for w in _seeded_wedges(mode, seed, count=6):
        roots = {-b.evaluate({"t": fe(0)}) for b in w.basis.elements if b.total_degree() == 1}
        for c in sorted(roots | {fe(7), fe(-5, 1)}, key=FieldElement.sort_key):
            if mode == "Q" and not c.is_rational():
                continue
            place = tp("t") - MultiPoly.const(T, c)
            assert t_v(w, place) == MultiPoly.const(T, _tame_symbol_at(w, c)), str(c)


# -- the beta1 soundness oracle -----------------------------------------------


def test_beta1_matches_planted_level():
    rnd = random.Random(5)
    for _ in range(12):
        planted = planted_basis(rnd, T, count=4)
        tensors = []
        records = []
        for _ in range(rnd.randint(1, 3)):
            f, ef = product_of_planted(rnd, planted)
            g, eg = product_of_planted(rnd, planted)
            a = rnd.choice([-2, -1, 1, 2])
            tensors.append((a, f, g))
            records.append((a, ef, eg))
        w = WedgeElement(tensors)
        got = expand_beta1_to_planted(w, planted)
        want = beta1_from_exponents(records)
        assert got == want


# -- wedge-side specialization ------------------------------------------------


def test_wedge_specialize_commutes_with_boundary():
    from dilogeq.specialize import SpecStep, sp

    rnd = random.Random(9)
    for k in range(10):
        alpha = random_formal_sum(rnd, T, n_terms=2, max_deg=2)
        target = rnd.choice([0, 1, 2, -1, INF])
        if target is not INF:
            target = const(target)
        aux = const(rnd.choice([2, 3, 5, -2]))
        sped = sp(alpha, SpecStep("t", target, aux))
        lhs = boundary(sped)
        rhs = wedge_specialize(boundary(alpha), "t", target)
        assert not wedge_difference(lhs, rhs).pairs, (k, str(alpha), str(target))


# -- pinned bases and pairs ---------------------------------------------------

# Sums of five-term relations with fractional (and Gaussian) coefficients,
# each also with one stray term that leaves a nonzero boundary.  The expected
# bases and pairs were recorded before the scalars moved off `Fraction`; the
# benchmark's relation-sum digest sees only the verdict, so these pin the
# coprime basis and the pairing themselves.
PINNED = {
    "Q": (
        [
            (1, "(x + 1/2)/(y - 2/3)", "(3/4*x*y + 1)/(x - 5/2)"),
            (-1, "(2/3*x^2 - y)/(x + 7/5)", "(y + 1/3)/(1/2*x*y + 3)"),
            (2, "x - 3/4", "(x*y + 5/6)/(2*y + 1/7)"),
        ],
        "3/2*x*y - 1/5",
        [
            "y - 2/3", "y + 1/3", "y + 1/14", "x - 7/4", "x - 5/2", "x - 3/4",
            "x + 1/2", "x + 7/5", "x - y + 7/6", "x*y + 4/3", "x*y + 5/6",
            "x*y + 6", "x*y - 2*y + 16/3", "x*y - 2*y + 29/42",
            "x*y - 4/3*x + 14/3", "x*y + 1/7*x - 3/2*y - 79/84", "x^2 - 3/2*y",
            "x^2 - 3/2*x - 3/2*y - 21/10",
            "x*y^2 - 4/3*x^2 - 2/3*x*y + 8/3*x + 4/3*y + 7/9",
            "x^3*y - 3/2*x*y^2 + 6*x^2 - 3*x*y - x - 66/5*y - 7/5",
        ],
        (9, ["x*y - 4/5", "x*y - 2/15"]),  # the stray term's, and where they go
        [
            ("b10", "2", "-1"), ("b10", "3", "1"), ("b10", "unit", "1"),
            ("b9", "2", "1"), ("b9", "3", "-1"), ("b9", "b10", "-1"),
        ],
    ),
    "Qi": (
        [
            (1, "(x + 1/2*i)/(y - 2/3)", "((3/4 + i)*x + 1)/(y - 5/2*i)"),
            (-1, "(2/3*i*x*y - 1)/(x + 7/5)", "(y + 1/3 - 1/2*i)/(x - 3*i)"),
        ],
        "(1/2 + 3/4*i)*x - 2/7*i*y",
        [
            "y - 2/3", "y - 5/2*i", "y + (1/3 - 1/2*i)", "x - 3*i", "x + 1/2*i",
            "x + 7/5", "x + (12/25 - 16/25*i)",
            "x + (-12/25 + 16/25*i)*y + (52/25 + 14/25*i)",
            "x - y + (-1/3 - 5/2*i)", "x - y + (2/3 + 1/2*i)", "x*y + 3/2*i",
            "x*y + 3/2*i*x + 18/5*i",
            "x*y + (94/51 + 2/51*i)*x + (-12/17 - 14/17*i)*y + (23/51 + 92/51*i)",
            "x^2*y - 3/2*i*x*y + (3/4 + 2*i)*x + 21/10*i*y + (111/20 + 7/10*i)",
        ],
        (7, [
            "x + (-24/91 - 16/91*i)*y",
            "x + (-24/91 - 16/91*i)*y + (-8/13 + 12/13*i)",
        ]),
        [
            ("b7", "1 + i", "-4"), ("b7", "2 + 3*i", "1"), ("b7", "b8", "1"),
            ("b8", "1 + i", "4"), ("b8", "2 + 3*i", "-1"), ("b8", "unit", "2"),
        ],
    ),
}


def _atom_label(x, basis: list) -> str:
    """x's label in a pin: b<k> for the k-th element of the sorted basis."""
    from dilogeq.wedge import BASIS, UNIT

    if x == UNIT:
        return "unit"
    return f"b{basis.index(x[1])}" if x[0] == BASIS else str(x[1])


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_relation_sum_basis_and_pairs_pinned(mode):
    from dilogeq.exprparse import parse_expression

    gens, stray, basis, (at, stray_basis), pairs = PINNED[mode]
    XY = ("x", "y")

    def rf(src):
        return parse_expression(src, XY, mode)

    total = FormalSum.zero(XY, field_mode=mode)
    for c, x, y in gens:
        total = total + five_term(rf(x), rf(y), field_mode=mode).scale(c)
    w = boundary(total)
    assert [str(e) for e in w.sorted_basis()] == basis
    assert w.pairs == {}

    w = boundary(total + FormalSum.single(rf(stray), 1, field_mode=mode))
    ordered = w.sorted_basis()
    assert [str(e) for e in ordered] == basis[:at] + stray_basis + basis[at:]
    got = sorted(
        (_atom_label(x, ordered), _atom_label(y, ordered), str(v)) for (x, y), v in w.pairs.items()
    )
    assert got == pairs


# -- the order of terms, and the canonical order built on demand ---------------


def _with_stray_term(alpha: FormalSum) -> FormalSum:
    """alpha with its first argument's coefficient raised by one."""
    first = next(iter(alpha.terms))
    return alpha + FormalSum.single(first, 1, alpha.field_mode, alpha.coeff_mode)


@functools.cache
def _seeded_cases(relations: int, documents: int) -> tuple:
    """The first seed-1 relation sums of the benchmark, each also with a
    stray term, and the sums of its first seed-1 documents that load."""
    sums = benchmark_relation_sums(1, relations)
    cases = [*sums, *map(_with_stray_term, sums)]
    for case in benchmark_inputs().docs_cases(1, documents):
        try:
            cases.append(load_document(case.text).formal_sum())
        except ValueError:
            continue
    return tuple(cases)


def _read_everything(w: WedgeElement, basis_first: bool):
    """Every view of w, the printed basis read first or last, as lists so
    that == also compares the order the views fill their entries in."""
    basis = [str(b) for b in w.sorted_basis()] if basis_first else None
    views = (list(w.pairs.items()), _ordered(w.decompose()), w.first_obstruction())
    if not basis_first:
        basis = [str(b) for b in w.sorted_basis()]
    return (*views, basis)


@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_the_order_of_terms_does_not_matter(index, rnd):
    cases = _seeded_cases(6, 60)
    alpha = cases[index % len(cases)]
    items = list(alpha.terms.items())
    rnd.shuffle(items)
    shuffled = FormalSum(alpha.universe, dict(items), alpha.field_mode, alpha.coeff_mode)
    assert list(shuffled.terms.items()) == items
    assert check_constant(shuffled) == check_constant(alpha)
    w = boundary(alpha)
    basis_first = rnd.random() < 0.5
    expected = _read_everything(w, basis_first)
    assert _read_everything(boundary(shuffled), not basis_first) == expected
    tensors = list(w.tensors)
    rnd.shuffle(tensors)
    again = WedgeElement(tensors, w.field_mode, w.coeff_mode)
    assert _read_everything(again, basis_first) == expected


def _count_sort_keys(monkeypatch) -> dict:
    """Counts of `MultiPoly.sort_key` calls and of the keys they fill."""
    counts = {"calls": 0, "filled": 0}
    sort_key = MultiPoly.sort_key

    def counted(p):
        counts["calls"] += 1
        counts["filled"] += p._sort_key is None
        return sort_key(p)

    monkeypatch.setattr(MultiPoly, "sort_key", counted)
    return counts


def test_a_constant_boundary_builds_no_sort_key(monkeypatch):
    sums = benchmark_relation_sums(1, 10)
    counts = _count_sort_keys(monkeypatch)
    certificates = [check_constant(alpha) for alpha in sums]
    assert all(c.is_constant() for c in certificates)
    assert counts == {"calls": 0, "filled": 0}
    # printing the basis is what sorts it
    assert [str(b) for b in boundary(sums[0]).sorted_basis()]
    assert counts["calls"] > 0


def test_a_witness_is_read_in_the_canonical_order(monkeypatch):
    counts = _count_sort_keys(monkeypatch)
    kinds = set()
    for alpha in map(_with_stray_term, benchmark_relation_sums(1, 10)):
        w = boundary(alpha)
        calls = counts["calls"]
        # the lazy views first, then the references that sort the pairs
        obs, decomposed = w.first_obstruction(), w.decompose()
        assert obs is not None and counts["calls"] > calls
        kinds.add(obs[0])
        assert obs == first_obstruction_by_sorting(w)
        assert _ordered(decomposed) == _ordered(decompose_by_sorting(w))
    assert kinds == {"pair"}


# -- invariances of the verdict ---------------------------------------------------


def _verdict(alpha: FormalSum) -> bool:
    return check_constant(alpha).is_constant()


@given(st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_z_and_q_coefficients_give_one_verdict(index):
    # D(n alpha) = n D(alpha), so the torsion columns Z-mode keeps cannot
    # decide constancy alone: alpha over Q and n alpha over Z, n clearing
    # every denominator, are constant together
    cases = _seeded_cases(30, 240)
    alpha = cases[index % len(cases)]
    terms = alpha.terms
    n = lcm(*(Fraction(c).denominator for c in terms.values()))
    over_z = FormalSum(alpha.universe, {f: n * c for f, c in terms.items()}, alpha.field_mode, "Z")
    over_q = FormalSum(alpha.universe, terms, alpha.field_mode, "Q")
    assert _verdict(over_z) == _verdict(over_q), str(alpha)


@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_a_two_term_relation_keeps_the_verdict(index, rnd):
    # [f] + [1/f] and [f] + [1 - f] are constant, so a[f] may be replaced
    # by -a[1/f] or by -a[1 - f]
    cases = _seeded_cases(30, 240)
    alpha = cases[index % len(cases)]
    pairs = []
    for f, a in alpha.terms.items():
        if rnd.random() < 0.5:
            pairs.append((f, a))
        else:
            pairs.append((rnd.choice((f.inverse, f.one_minus))(), -a))
    variant = FormalSum(alpha.universe, pairs, alpha.field_mode, alpha.coeff_mode)
    assert _verdict(variant) == _verdict(alpha), (str(alpha), str(variant))
