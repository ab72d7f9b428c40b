"""Finite-field Bloch groups: presentations, quotients, and c-element facts."""

import itertools
import math
from math import gcd

import pytest

from dilogeq import blochfq, intmat
from dilogeq.blochfq import (
    InvariantFactors,
    bloch_groups,
    boundary_vector,
    kernel_lattice,
    relations_matrix,
    wedge_square_order,
)
from dilogeq.intmat import minor_gcd_invariant_factors, smith_invariant_factors, solve_integer

PRIMES = [5, 7, 11, 13]


# -- a self-contained quotient oracle ---------------------------------------------
#
# Nothing below shares code with the package: echelon reduction, coset
# enumeration, and torsion counting are all written out directly.  Only
# viable for tiny inputs.


def _tiny_hnf(rows, n):
    work = [list(r) for r in rows if any(r)]
    basis = []
    for c in range(n):
        while True:
            live = [i for i, r in enumerate(work) if r[c]]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(work[i][c]))
            b = work[live[0]]
            for i in live[1:]:
                q = work[i][c] // b[c]
                work[i] = [a - q * t for a, t in zip(work[i], b)]
        live = [i for i, r in enumerate(work) if r[c]]
        if live:
            piv = work.pop(live[0])
            if piv[c] < 0:
                piv = [-x for x in piv]
            basis.append(piv)
        work = [r for r in work if any(r)]
    for i in range(len(basis) - 1, -1, -1):
        c = next(j for j in range(n) if basis[i][j])
        for k in range(i):
            q = basis[k][c] // basis[i][c]
            if q:
                basis[k] = [a - q * t for a, t in zip(basis[k], basis[i])]
    return basis


def _quotient_structure(rows, n):
    """Invariant factors of Z^n / row-span, by enumerating the cosets and
    counting q-power torsion.  Returns None if the quotient is infinite."""
    basis = _tiny_hnf(rows, n)
    if len(basis) < n:
        return None
    piv = {next(j for j in range(n) if r[j]): r for r in basis}

    def reduce(v):
        v = list(v)
        for c in range(n):
            q = v[c] // piv[c][c]
            if q:
                v = [a - q * b for a, b in zip(v, piv[c])]
        return tuple(v)

    diag = [piv[c][c] for c in range(n)]
    elems = [tuple(e) for e in itertools.product(*(range(d) for d in diag))]
    order = len(elems)
    if order == 1:
        return []

    def prime_divisors(m):
        out, k = [], 2
        while k * k <= m:
            if m % k == 0:
                out.append(k)
                while m % k == 0:
                    m //= k
            k += 1
        if m > 1:
            out.append(m)
        return out

    per_prime = {}
    zero = (0,) * n
    for q in prime_divisors(order):
        sizes = [0]  # log_q of the q^j-torsion counts, j = 0, 1, ...
        j = 1
        while True:
            qj = q**j
            cnt = sum(1 for e in elems if reduce([qj * x for x in e]) == zero)
            s = round(math.log(cnt, q))
            assert q**s == cnt, "torsion count must be a power of q"
            sizes.append(s)
            if s == sizes[-2]:
                break
            j += 1
        # number of cyclic factors with exponent >= j, then exact exponents
        geq = [sizes[j] - sizes[j - 1] for j in range(1, len(sizes))]
        exps = []
        for j, (a, b) in enumerate(zip(geq, geq[1:] + [0]), start=1):
            exps.extend([j] * (a - b))
        per_prime[q] = sorted(exps, reverse=True)

    width = max(len(v) for v in per_prime.values())
    chain = []
    for k in range(width):
        f = 1
        for q, exps in per_prime.items():
            if k < len(exps):
                f *= q ** exps[k]
        chain.append(f)
    chain.reverse()
    return chain


def _tiny_contains(basis, v, n):
    v = list(v)
    for c in range(n):
        if not v[c]:
            continue
        row = next((r for r in basis if next(j for j in range(n) if r[j]) == c), None)
        if row is None or v[c] % row[c]:
            return False
        q = v[c] // row[c]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


# -- presentations ------------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_row_counts(p):
    pres = relations_matrix(p)
    n = p - 2
    assert pres.generators == tuple(range(2, p))
    assert len(pres.five_rows) == n * (n - 1)
    assert len(pres.inversion_rows) == n
    assert len(pres.relations) == n * n


def test_small_primes_rejected():
    with pytest.raises(ValueError, match="^need p >= 5, got 3$"):
        relations_matrix(3)
    with pytest.raises(ValueError, match="^need p >= 5, got 2$"):
        bloch_groups(2)
    with pytest.raises(ValueError, match="^p 9 is not a prime$"):
        relations_matrix(9)
    with pytest.raises(ValueError, match="^p 1 is not a prime$"):
        relations_matrix(1)
    with pytest.raises(ValueError, match="^p 15 is not a prime$"):
        wedge_square_order(15)


def test_five_term_rows_for_p5():
    # x=2, y=3 in F_5: y/x = 3*3 = 4, (1-x)/(1-y) = (-1)/(-2) = 3,
    # (1-1/2)/(1-1/3) = (-2)/(-1) = 2; the row collapses to [4]
    pres = relations_matrix(5)
    assert pres.five_rows[0] == (0, 0, 1)
    # x=2, y=4: y/x = 2, (1-x)/(1-y) = (-1)/(-3) = 2, fifth arg = 3/2 = 4
    assert pres.five_rows[1] == (3, 0, -2)
    # inversions: 1/2 = 3, 1/3 = 2, 1/4 = 4
    assert pres.inversion_rows == ((1, 1, 0), (1, 1, 0), (0, 0, 2))


def test_wedge_square_order_small_cases():
    # p=5: m=4, h=2; a(a+2) mod 4 takes value 3 at a=1, so d = gcd(4,3) = 1
    assert wedge_square_order(5) == (4, 1)
    # p=7: m=6, h=3; a(a+3) mod 6 takes values {0, 4}, so d = gcd(6,4) = 2
    assert wedge_square_order(7) == (6, 2)
    assert wedge_square_order(13) == (12, 1)
    # the wedge square needs no presentation, so p = 2 and 3 have one:
    # trivial, and Z/2, as (-x) (x) x has a factor 1 for both x in F_3*
    # and kills nothing
    assert wedge_square_order(2) == (1, 1)
    assert wedge_square_order(3) == (2, 2)


def test_boundary_vector_parity_p7():
    # with d=2 only the parity of dlog matters, and that is quadratic
    # residuosity, independent of the primitive root: squares mod 7 = {1,2,4}
    d, w = boundary_vector(7)
    assert d == 2
    assert [x % 2 for x in w] == [0, 1, 0, 1, 0]


@pytest.mark.parametrize("p", PRIMES)
def test_relation_rows_die_under_the_boundary(p):
    pres = relations_matrix(p)
    d, w = boundary_vector(p)
    for row in pres.relations:
        assert sum(a * b for a, b in zip(row, w)) % max(d, 1) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_lattice_index(p):
    # the boundary maps onto gcd(w, d) * Z/d, so the kernel has index
    # d / gcd(d, all w_i) in the generator lattice
    d, w = boundary_vector(p)
    basis = kernel_lattice(p)
    n = p - 2
    got_index = 1
    for i in range(n):
        got_index *= basis[i][i]
    assert got_index == d // gcd(d, *w)


# -- group structure ----------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_orders_divide(p):
    groups = bloch_groups(p)
    five_only, full, mod = groups.pre_bloch_five_only, groups.pre_bloch, groups.modified_bloch
    five_order, full_order, mod_order = (
        math.prod(g.factors) for g in (five_only, full, mod)
    )
    assert five_order > 0 and full_order > 0 and mod_order > 0
    # more relations give a further quotient; the kernel gives a subgroup
    assert five_order % full_order == 0
    assert full_order % mod_order == 0


# the modified Bloch group as the Fraction-solver implementation computed it, in
# the survey of scripts/blochfq_survey.py --max-p 43; p = 47..61 as the
# row-by-row solve of every relation row computed it
MODIFIED_BLOCH = {
    5: 3, 7: 2, 11: 3, 13: 7, 17: 9, 19: 5, 23: 6, 29: 15, 31: 8, 37: 19, 41: 21, 43: 11,
    47: 12, 53: 27, 59: 15, 61: 31,
}


@pytest.mark.parametrize("p", sorted(MODIFIED_BLOCH))
def test_bloch_groups_pinned_past_the_oracle(p):
    groups = bloch_groups(p)
    assert groups.modified_bloch.factors == (MODIFIED_BLOCH[p],)
    assert groups.pre_bloch.factors == ((p + 1) // 2,)
    assert groups.pre_bloch_five_only.factors == (p + 1,)


@pytest.mark.parametrize("p", [7, 13])
def test_five_term_rows_eliminated_once(p, monkeypatch):
    # each distinct five-term row is inserted once, and the full lattice is
    # the five-term Hermite basis plus the distinct inversion rows, so no
    # relation row is reduced twice
    inserted = []
    base = blochfq.HermiteForm

    class Counted(base):
        def insert(self, row):
            inserted.append(tuple(row))
            return base.insert(self, row)

    monkeypatch.setattr(blochfq, "HermiteForm", Counted)
    groups = bloch_groups(p)
    pres = groups.presentation
    n = len(pres.generators)
    five = list(dict.fromkeys(pres.five_rows))
    inversion = list(dict.fromkeys(pres.inversion_rows))
    assert len(five) < len(pres.five_rows) and len(inversion) < n
    assert inserted[: len(five)] == five
    rest = inserted[len(five) :]
    assert len(rest) <= 2 * n
    assert rest[len(rest) - len(inversion) :] == inversion


def test_coordinate_solves_share_one_transform_form(monkeypatch):
    # every Hermite row of the relation lattice is solved against one form
    # of [kernel | I]; the only other form is kernel_lattice's own left kernel
    kernel = kernel_lattice(13)
    seen = []
    build = intmat._with_transform

    def counted(rows):
        seen.append([list(r) for r in rows])
        return build(rows)

    monkeypatch.setattr(intmat, "_with_transform", counted)
    bloch_groups(13)
    assert seen.count(kernel) == 1
    assert len(seen) == 2


def test_invariant_factors_reject_bad_chains():
    for bad in ((1,), (2, 3), (0, 2)):
        with pytest.raises(ValueError):
            InvariantFactors(bad)


def test_invariant_factor_display():
    assert str(InvariantFactors(())) == "0"
    assert str(InvariantFactors((3,))) == "Z/3"
    assert str(InvariantFactors((2, 4, 0))) == "Z/2 + Z/4 + Z"


@pytest.mark.parametrize("p", [5, 7])
def test_pre_bloch_matches_enumeration_oracle(p):
    pres = relations_matrix(p)
    n = len(pres.generators)
    groups = bloch_groups(p)
    for rows, got in (
        (pres.five_rows, groups.pre_bloch_five_only),
        (pres.relations, groups.pre_bloch),
    ):
        chain = _quotient_structure([list(r) for r in rows], n)
        assert chain is not None
        assert got.factors == tuple(chain)


@pytest.mark.parametrize("p", [5, 7])
def test_modified_bloch_matches_enumeration_oracle(p):
    pres = relations_matrix(p)
    n = len(pres.generators)
    basis = kernel_lattice(p)
    coords = solve_integer(basis, [list(r) for r in pres.relations])
    assert all(x is not None for x in coords)
    chain = _quotient_structure(coords, n)
    assert bloch_groups(p).modified_bloch.factors == tuple(chain)


def test_smith_matches_minor_gcd_oracle():
    # raw relation matrices, no preprocessing shared with the main path
    pres5 = relations_matrix(5)
    for rows in (pres5.five_rows, pres5.relations):
        raw = [list(r) for r in rows]
        assert smith_invariant_factors(raw, 3) == minor_gcd_invariant_factors(raw, 3)
    pres7 = relations_matrix(7)
    raw = [list(r) for r in pres7.five_rows]
    assert smith_invariant_factors(raw, 5) == minor_gcd_invariant_factors(raw, 5)


# -- c-element facts ------------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_c_element_facts(p):
    groups = bloch_groups(p)
    assert groups.c_class_independent
    assert groups.three_c_in_span
    assert len(groups.presentation.generators) == p - 2


@pytest.mark.parametrize("p", [5, 7])
def test_c_element_facts_against_tiny_reduction(p):
    pres = relations_matrix(p)
    n = len(pres.generators)
    five_basis = _tiny_hnf([list(r) for r in pres.five_rows], n)
    full_basis = _tiny_hnf([list(r) for r in pres.relations], n)

    def c_vec(c):
        row = [0] * n
        row[c - 2] += 1
        row[(1 - c) % p - 2] += 1
        return row

    base = c_vec(2)
    for c in pres.generators:
        vc = c_vec(c)
        assert _tiny_contains(five_basis, [a - b for a, b in zip(vc, base)], n)
        assert _tiny_contains(full_basis, [3 * a for a in vc], n)
