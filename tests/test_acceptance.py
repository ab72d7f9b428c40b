"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
"ACCEPTANCE n: PASS/FAIL - description" line through the capture, so the
outcome is visible in the terminal run log.
"""

import contextlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

from dilogeq.blochfq import (
    bloch_groups,
    boundary_vector,
    kernel_lattice,
    relations_matrix,
)
from dilogeq.cli import main
from dilogeq.formal import DegenerateArguments, FormalSum, c_element, five_term, inversion
from dilogeq.intmat import solve_integer
from dilogeq.numerics import (
    LI2_ONE,
    ModPiSqHalf,
    bloch_wigner,
    numeric_probe,
    rl_bar,
    rogers,
)
from dilogeq.padic import (
    Branch,
    PadicNumber,
    branch_diff,
    dp_disc,
    padic_valuation,
    plog,
)
from dilogeq.ratfunc import INF, RationalFunction
from dilogeq.scalars import fe
from dilogeq.specialize import SpecPlan, SpecStep, iterate, sp, table_cell
from dilogeq.wedge import (
    WedgeElement,
    boundary,
    check_constant,
    check_constant_cc,
    wedge_specialize,
)

from helpers import (
    agree_to,
    beta1_from_exponents,
    expand_beta1_to_planted,
    planted_basis,
    product_of_planted,
    random_coeff,
    random_five_term,
    random_formal_sum,
    random_inversion,
)
from test_blochfq import _quotient_structure
from test_specialize import INF_INF_SUBCASES, TABLE, step_to

T = ("t",)
ZW = ("z", "w")

# series-oracle value of the Bloch-Wigner function at i (Catalan's constant)
CATALAN = 0.915965594177219015054603514932

FIVE_DOC = """\
dilog-identity v1
variables: x, y
term: 1 [x]
term: -1 [y]
term: 1 [y/x]
term: 1 [(1-x)/(1-y)]
term: -1 [(1 - x^-1)/(1 - y^-1)]
"""

SINGLE_DOC = "dilog-identity v1\nvariables: t\nterm: 1 [t]\n"


def t():
    return RationalFunction.var(T, "t")


def const(q, universe=T):
    return RationalFunction.const(universe, fe(q))


def duplication():
    return FormalSum(T, {t() ** 2: Fraction(1), t(): Fraction(-2), -t(): Fraction(-2)})


@contextlib.contextmanager
def criterion(capsys, n, desc, limit=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit is not None:
            assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds the {limit}s budget"
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: FAIL - {desc}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: PASS - {desc} ({elapsed:.2f}s)")


# -- 1: golden specializations -------------------------------------------------------


def test_acceptance_01_golden_specializations(capsys):
    with criterion(capsys, 1, "golden specializations match exactly", limit=1.0):
        dup = duplication()

        got = sp(dup, SpecStep("t", const(1), const(2)))
        assert got == FormalSum((), {const(-1, ()): Fraction(-2)})

        for c in (2, 3):
            got = sp(dup, SpecStep("t", INF, const(c)))
            want = FormalSum(
                (), {const(c, ()): Fraction(3), const(1 - c, ()): Fraction(3)}
            )
            assert got == want

        U = ("t1", "t2", "t3")
        t1 = RationalFunction.var(U, "t1")
        t3 = RationalFunction.var(U, "t3")
        t2 = RationalFunction.var(U, "t2")
        alpha = FormalSum.single(t1 + t2 + t3)
        plan = SpecPlan(
            (
                SpecStep("t2", -t1 - t3, t1 + t3**2),
                SpecStep("t1", -(t3**2), t3),
            )
        )
        final = iterate(alpha, plan)
        t3_only = RationalFunction.var(("t3",), "t3")
        assert final == FormalSum(
            ("t3",), {t3_only: Fraction(1), t3_only.one_minus(): Fraction(1)}
        )


# -- 2: the degeneracy table ----------------------------------------------------------


def test_acceptance_02_specialization_table(capsys):
    with criterion(capsys, 2, "all 16 degeneracy-table cells reproduce", limit=5.0):
        step = step_to(0)
        for xcase, ycase, mk, want in TABLE:
            x, y = mk()
            naive, corrected = table_cell(x, y, step)
            assert naive == want, (xcase, ycase)
            swing = want.c0 - want.cinf
            fixed = want.ordinary + c_element(const(2)).scale(swing)
            assert corrected == fixed.with_universe(()), (xcase, ycase)
        for mk, want in INF_INF_SUBCASES:
            x, y = mk()
            naive, _ = table_cell(x, y, step)
            assert naive == want


# -- 3: relations die under the boundary ----------------------------------------------


def test_acceptance_03_relation_kernel(capsys):
    with criterion(capsys, 3, "boundary vanishes on 200+200 relation generators", limit=30.0):
        rnd = random.Random(33)
        for universe in (("t",), ("t1", "t2")):
            for _ in range(100):
                assert boundary(random_five_term(rnd, universe)).is_zero()
            for _ in range(100):
                assert boundary(random_inversion(rnd, universe)).is_zero()


# -- 4: specialization commutes with the boundary -------------------------------------


def test_acceptance_04_specialization_diagram(capsys):
    with criterion(capsys, 4, "boundary and specialization commute", limit=30.0):
        rnd = random.Random(44)
        for k in range(100):
            alpha = random_formal_sum(rnd, T, n_terms=rnd.randint(1, 3), max_deg=2)
            b = rnd.choice([0, 1, 2, -1, 3, INF])
            target = b if b is INF else const(b)
            aux = const(rnd.choice([2, 3, 5, -2, 7]))
            lhs = boundary(sp(alpha, SpecStep("t", target, aux)))
            rhs = wedge_specialize(boundary(alpha), "t", target)
            assert (lhs - rhs).is_zero(), (k, str(alpha), str(b))


# -- 5: constancy criterion, both verdicts ---------------------------------------------


def _cc_locus_values(alpha, rnd, reals=(), pairs=(("z", "w"),), count=100):
    """Bloch-Wigner values of alpha on the locus where the `reals` are real
    and each pair (z, w) has w = conj(z)."""
    vals = []
    while len(vals) < count:
        point = {x: complex(rnd.uniform(-3.0, 3.0)) for x in reals}
        for z, w in pairs:
            zc = complex(rnd.uniform(-3.0, 3.0), rnd.uniform(0.2, 3.0))
            point[z], point[w] = zc, zc.conjugate()
        total = 0.0
        ok = True
        for f, a in alpha.items():
            v = f.eval_numeric(point)
            if not (1e-3 < abs(v) < 1e3) or abs(v - 1) < 1e-3:
                ok = False
                break
            total += float(a) * bloch_wigner(v)
        if ok:
            vals.append(total)
    return vals


def test_acceptance_05_constancy_criterion(capsys):
    with criterion(capsys, 5, "criterion verdicts backed by numerics", limit=120.0):
        rnd = random.Random(55)

        # soundness: 50 random relation combinations are Constant, and a
        # 100-point probe agrees to 1e-9
        for k in range(50):
            universe = ("t",) if k % 2 else ("t1", "t2")
            total = FormalSum.zero(universe)
            for _ in range(rnd.randint(1, 3)):
                roll = rnd.random()
                if roll < 0.45:
                    gen = random_five_term(rnd, universe)
                elif roll < 0.75:
                    gen = random_inversion(rnd, universe)
                else:
                    q = rnd.choice([2, 3, 5, -1, -2, Fraction(1, 3)])
                    gen = c_element(const(q, universe))
                total = total + gen.scale(rnd.choice([-3, -2, -1, 1, 2, 3]))
            if rnd.random() < 0.4:
                q = rnd.choice([2, 5, -3, Fraction(2, 3)])
                total = total + FormalSum.single(const(q, universe), rnd.choice([1, -1, 2]))
            cert = check_constant(total)
            assert cert.verdict == "Constant", (k, str(total))
            pr = numeric_probe(total, domain="complex", samples=100, seed=500 + k)
            assert pr.points_used >= 100
            assert pr.max_deviation <= 1e-9, (k, pr.max_deviation)

        # completeness smoke: obvious non-identities are rejected, with
        # visible numeric deviation
        for alpha in (FormalSum.single(t()), FormalSum.single(t()) + FormalSum.single(t() ** 2)):
            assert check_constant(alpha).verdict == "NotConstant"
            pr = numeric_probe(alpha, domain="complex", samples=100, seed=9)
            assert pr.max_deviation >= 1e-3

        # conjugation-locus criterion
        z = RationalFunction.var(ZW, "z")
        w = RationalFunction.var(ZW, "w")
        swap = {"z": "w"}

        paired = FormalSum.single(z) + FormalSum.single(w)
        assert check_constant_cc(paired, swap).verdict == "Constant"
        vals = _cc_locus_values(paired, rnd)
        assert max(vals) - min(vals) <= 1e-9

        for witness in (FormalSum.single(z), FormalSum.single(z - w)):
            assert check_constant_cc(witness, swap).verdict == "NotConstant"
            vals = _cc_locus_values(witness, rnd)
            assert max(vals) - min(vals) >= 1e-3


# (real variables, conjugate pairs) of the mixed loci
MIXED_LOCI = [
    (("x",), ()),
    (("x", "y"), ()),
    (("x",), (("z", "w"),)),
    (("x", "y"), (("z", "w"),)),
    (("x",), (("z", "w"), ("u", "v"))),
    (("x", "y"), (("z", "w"), ("u", "v"))),
]


def _in_all_variables(rnd, universe, gaussian):
    """A rational function whose numerator has a term in each variable."""
    num = RationalFunction.const(universe, random_coeff(rnd, gaussian))
    for v in universe:
        num = num + RationalFunction.var(universe, v).scale(random_coeff(rnd, gaussian, zero_ok=False))
    v = RationalFunction.var(universe, rnd.choice(universe))
    den = v.scale(random_coeff(rnd, gaussian, zero_ok=False))
    return num / (den + RationalFunction.const(universe, fe(rnd.choice([2, 3, -5]))))


def test_acceptance_05_mixed_conjugation_loci(capsys):
    with criterion(capsys, 5, "conjugation criterion on mixed loci, backed by numerics", limit=60.0):
        rnd = random.Random(5005)
        for (reals, pairs), field in itertools.product(MIXED_LOCI, ("Q", "Qi")):
            universe = reals + tuple(v for pair in pairs for v in pair)
            gaussian = field == "Qi"
            swap = dict(pairs)
            full = {**swap, **{w: z for z, w in pairs}}
            var = {v: RationalFunction.var(universe, v) for v in universe}

            def single(f, a=1):
                return FormalSum.single(f, a, field)

            def fn():
                return _in_all_variables(rnd, universe, gaussian)

            while True:
                try:
                    five = five_term(fn(), fn(), field)
                    break
                except DegenerateArguments:
                    continue
            f = fn()
            real_args = [var[reals[0]]]
            for z, w in pairs:
                real_args += [var[reals[-1]] * var[z] * var[w], var[z] + var[w]]
            invariant = FormalSum.zero(universe, field)
            for k, g in enumerate(real_args):
                invariant = invariant + single(g, k + 1)
            constant = [five, inversion(fn(), field), single(f) + single(f.conjugate(full)), invariant]
            varying = []
            if pairs:
                z = var[pairs[-1][0]]
                varying = [single(var[reals[0]] * z), single(z)]
            elif gaussian:
                varying = [single(var[reals[0]] + RationalFunction.const(universe, fe(0, 1)))]

            cases = [(a, "Constant") for a in constant] + [(a, "NotConstant") for a in varying]
            for alpha, verdict in cases:
                assert check_constant_cc(alpha, swap).verdict == verdict, (universe, str(alpha))
                vals = _cc_locus_values(alpha, rnd, reals, pairs, count=20)
                spread = max(vals) - min(vals)
                if verdict == "Constant":
                    assert spread <= 1e-9, (universe, field, str(alpha), spread)
                else:
                    assert spread >= 1e-3, (universe, field, str(alpha), spread)


# -- 6: basis-level beta1 equals planted-level beta1 -----------------------------------


def test_acceptance_06_gcd_free_basis_soundness(capsys):
    with criterion(capsys, 6, "basis-level pairing equals planted-level", limit=60.0):
        rnd = random.Random(66)
        for _ in range(100):
            planted = planted_basis(rnd, T, count=4)
            tensors = []
            records = []
            for _ in range(rnd.randint(1, 3)):
                f, ef = product_of_planted(rnd, planted)
                g, eg = product_of_planted(rnd, planted)
                a = rnd.choice([-2, -1, 1, 2])
                tensors.append((a, f, g))
                records.append((a, ef, eg))
            w = WedgeElement(T, tensors)
            assert expand_beta1_to_planted(w, planted) == beta1_from_exponents(records)


# -- 7: floating-point identities -------------------------------------------------------


def _ok(v, lo=1e-2, hi=1e2):
    return lo < abs(v) < hi and abs(v - 1) > lo


def test_acceptance_07_numeric_identities(capsys):
    with criterion(capsys, 7, "dilogarithm identities hold at 1000 points", limit=60.0):
        rnd = random.Random(77)

        count = 0
        while count < 1000:
            zc = complex(rnd.uniform(-4, 4), rnd.uniform(-4, 4))
            if not _ok(zc) or not _ok(1 - zc):
                continue
            count += 1
            assert abs(bloch_wigner(zc) + bloch_wigner(1 / zc)) <= 1e-9
            assert abs(bloch_wigner(zc) + bloch_wigner(1 - zc)) <= 1e-9
            assert abs(bloch_wigner(zc) + bloch_wigner(zc.conjugate())) <= 1e-12

        count = 0
        while count < 1000:
            x = complex(rnd.uniform(-4, 4), rnd.uniform(-4, 4))
            y = complex(rnd.uniform(-4, 4), rnd.uniform(-4, 4))
            if abs(x - y) < 1e-2 or not (_ok(x) and _ok(y)):
                continue
            args = (x, y, y / x, (1 - x) / (1 - y), (1 - 1 / x) / (1 - 1 / y))
            if not all(_ok(v) for v in args):
                continue
            count += 1
            total = (
                bloch_wigner(args[0])
                - bloch_wigner(args[1])
                + bloch_wigner(args[2])
                + bloch_wigner(args[3])
                - bloch_wigner(args[4])
            )
            assert abs(total) <= 1e-9

        lbar = ModPiSqHalf.of(LI2_ONE)
        count = 0
        while count < 1000:
            x = rnd.uniform(-6, 6)
            if not (_ok(x) and _ok(1 - x)):
                continue
            count += 1
            assert (rl_bar(x) + rl_bar(1 - x) + lbar).distance_to_zero() <= 1e-9
            assert (rl_bar(x) + rl_bar(1 / x)).distance_to_zero() <= 1e-9

        count = 0
        while count < 1000:
            x = rnd.uniform(-6, 6)
            y = rnd.uniform(-6, 6)
            if abs(x - y) < 1e-2 or not (_ok(x) and _ok(y)):
                continue
            args = (x, y, y / x, (1 - x) / (1 - y), (1 - 1 / x) / (1 - 1 / y))
            if not all(_ok(v) for v in args):
                continue
            count += 1
            total = (
                rl_bar(args[0])
                - rl_bar(args[1])
                + rl_bar(args[2])
                + rl_bar(args[3])
                - rl_bar(args[4])
            )
            assert total.distance_to_zero() <= 1e-9

        assert abs(bloch_wigner(1j) - CATALAN) <= 1e-10
        assert abs(rogers(1.0) - math.pi**2 / 6) <= 1e-12


# -- 8: p-adic branch differences --------------------------------------------------------


def test_acceptance_08_padic_branches(capsys):
    with criterion(capsys, 8, "branch differences match the valuation formula", limit=30.0):
        rnd = random.Random(88)
        p, prec = 5, 32

        pairs = []
        while len(pairs) < 5:
            qa = Fraction(rnd.randint(-9, 9), rnd.choice([1, 2, 3]))
            qb = Fraction(rnd.randint(-9, 9), rnd.choice([1, 2, 3]))
            if qa == qb:
                continue
            pairs.append((Branch.of(p, qa, prec), Branch.of(p, qb, prec)))

        points = []
        while len(points) < 50:
            a = rnd.randint(1, 400)
            b = rnd.randint(1, 400)
            if a % p == 0 or b % p == 0:
                continue
            points.append(Fraction(p ** rnd.randint(1, 3) * a, b))

        for zq in points:
            zp = PadicNumber.from_rational(zq, p, prec)
            w = boundary(FormalSum.single(const(zq)))
            for A, B in pairs:
                direct = dp_disc(zp, A) - dp_disc(zp, B)
                formula = branch_diff(w, {"t": Fraction(3)}, A, B, prec=prec)
                assert agree_to(direct, formula, 30), (zq, str(direct), str(formula))

        # the bracket itself never sees the branch: every tracked digit cancels
        for _ in range(20):
            fq = Fraction(p ** rnd.randint(0, 3) * rnd.randint(1, 50), rnd.randint(1, 50))
            gq = Fraction(p ** rnd.randint(0, 3) * rnd.randint(1, 50), rnd.randint(1, 50))
            if fq.numerator % p == 0 and fq == 1:
                continue
            fp = PadicNumber.from_rational(fq, p, prec)
            gp = PadicNumber.from_rational(gq, p, prec)
            for A, B in pairs:
                def bracket(branch):
                    return plog(gp, branch).scale_rational(
                        padic_valuation(fq, p)
                    ) - plog(fp, branch).scale_rational(padic_valuation(gq, p))

                diff = bracket(A) - bracket(B)
                assert diff.unit == 0, (fq, gq, str(diff))


# -- 9: finite prime fields ---------------------------------------------------------------


def test_acceptance_09_finite_fields(capsys):
    with criterion(capsys, 9, "finite-field Bloch data checks out", limit=60.0):
        for p in (5, 7, 11, 13):
            pres = relations_matrix(p)
            d, w = boundary_vector(p)
            for row in pres.relations:
                assert sum(a * b for a, b in zip(row, w)) % max(d, 1) == 0
            groups = bloch_groups(p)
            assert groups.c_class_independent
            assert groups.three_c_in_span

        for p in (5, 7):
            pres = relations_matrix(p)
            n = len(pres.generators)
            groups = bloch_groups(p)
            for rows, got in (
                (pres.five_rows, groups.pre_bloch_five_only),
                (pres.relations, groups.pre_bloch),
            ):
                chain = _quotient_structure([list(r) for r in rows], n)
                assert chain is not None and got.factors == tuple(chain)
            basis = kernel_lattice(p)
            coords = solve_integer(basis, [list(r) for r in pres.relations])
            assert all(x is not None for x in coords)
            chain = _quotient_structure(coords, n)
            assert groups.modified_bloch.factors == tuple(chain)


# -- 10: command line end to end ----------------------------------------------------------


def test_acceptance_10_cli(capsys, tmp_path):
    with criterion(capsys, 10, "CLI verdicts, witness, and determinism", limit=60.0):
        five = tmp_path / "five.doc"
        five.write_text(FIVE_DOC)
        single = tmp_path / "single.doc"
        single.write_text(SINGLE_DOC)

        code = main(["check", str(five), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "Constant"
        assert abs(report["constant"]) <= 1e-9

        code = main(["check", str(single)])
        out = capsys.readouterr().out
        assert code == 1
        assert "NotConstant" in out
        assert "(t) ^ (t - 1)" in out

        for argv in (
            ["check", str(five), "--json", "--probe", "100", "--seed", "7"],
            ["blochfq", "7", "--json"],
        ):
            main(list(argv))
            first = capsys.readouterr().out
            main(list(argv))
            second = capsys.readouterr().out
            assert first == second
