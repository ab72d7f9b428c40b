"""Integer matrix tools: Hermite form, Smith form, kernels, membership."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from dilogeq import intmat
from dilogeq.blochfq import relations_matrix
from dilogeq.intmat import (
    HermiteForm,
    hnf,
    left_kernel,
    minor_gcd_invariant_factors,
    smith_invariant_factors,
    solve_integer,
)

from helpers import (
    DenseHermiteForm,
    dense_hnf,
    dense_left_kernel,
    dense_smith,
    dense_solve_integer,
    in_row_span,
)


def _rand_matrix(rnd, m, n, lo=-6, hi=6):
    return [[rnd.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _mat_vec(rows, v):
    n = len(rows[0])
    return [sum(v[i] * rows[i][j] for i in range(len(rows))) for j in range(n)]


# -- Hermite form ------------------------------------------------------------


def test_hnf_simple():
    h = hnf([[2, 4], [6, 8]])
    # span of rows; pivots positive, entries above pivots reduced
    assert h == [[2, 0], [0, 4]]


def test_hnf_rank_deficient():
    h = hnf([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
    assert h == [[1, 2, 3]]


def test_hnf_entries_above_pivots_reduced():
    rnd = random.Random(13)
    for _ in range(300):
        n = rnd.randint(1, 5)
        h = hnf(_rand_matrix(rnd, rnd.randint(1, 5), n), n)
        pivots = [next(j for j, x in enumerate(r) if x) for r in h]
        for k, c in enumerate(pivots):
            assert h[k][c] > 0
            assert all(0 <= r[c] < h[k][c] for i, r in enumerate(h) if i != k), h


def test_insert_rejects_wrong_width():
    h = HermiteForm(3)
    for row in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            h.insert(row)
    assert h.basis() == []


def test_insert_reports_exactly_when_the_lattice_grows():
    h = HermiteForm(1)
    # 2Z, then Z: the second row adds no pivot but shrinks the one there
    assert h.insert([2]) is True
    assert h.insert([1]) is True
    assert h.insert([3]) is False
    assert h.basis() == [[1]]
    h = HermiteForm(2)
    assert h.insert([4, 6]) is True
    # no new pivot: the pivot 4 shrinks to gcd(4, 6) = 2
    assert h.insert([6, 9]) is True
    assert h.insert([-2, -3]) is False
    assert h.insert([0, 0]) is False


def _unit_pivot_columns_are_clear(h: HermiteForm) -> bool:
    """No stored row has a nonzero in another row's unit-pivot column."""
    units = [c for c, r in h.rows.items() if r[c] == 1]
    return all(not r[c] for c in units for c2, r in h.rows.items() if c2 != c)


def _sparse_matrix(rnd, m, n):
    """Entries mostly 0 and +-1, so unit pivots are common; one draw in
    four also puts a few entries up to +-50 in."""
    a = [[rnd.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
    if rnd.random() < 0.25:
        for _ in range(rnd.randint(1, 3)):
            a[rnd.randrange(m)][rnd.randrange(n)] = rnd.randint(-50, 50)
    if m > 1 and rnd.random() < 0.3:
        # a row scaled by a non-unit, so non-unit pivots appear too
        i = rnd.randrange(m)
        a[i] = [rnd.randint(2, 6) * x for x in a[i]]
    return a


def _combination(rnd, rows, n):
    v = [0] * n
    for r in rows:
        k = rnd.randint(-3, 3)
        v = [x + k * y for x, y in zip(v, r)]
    return v


def test_hermite_form_matches_the_dense_elimination():
    rnd = random.Random(22)
    mixed = 0
    for _ in range(2000):
        m, n = rnd.randint(1, 7), rnd.randint(1, 7)
        a = _sparse_matrix(rnd, m, n)
        h, ref = HermiteForm(n), DenseHermiteForm(n)
        for r in a:
            fresh = not h.contains(r)
            got = h.insert(r)
            assert got == ref.insert(r) == fresh, a
            assert _unit_pivot_columns_are_clear(h), a
        basis = h.basis()
        assert basis == ref.basis() == dense_hnf(a, n) == hnf(a, n), a
        pivots = {r[next(j for j, x in enumerate(r) if x)] for r in basis}
        mixed += 1 in pivots and len(pivots) > 1
        probes = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(3)]
        probes += [_combination(rnd, a, n) for _ in range(3)]
        for v in probes:
            assert h.contains(v) == ref.contains(v), (a, v)
        solved = solve_integer(a, probes)
        if len(basis) == m:
            # full row rank: x is unique
            assert solved == dense_solve_integer(a, probes), a
        for v, x in zip(probes, solved):
            assert (x is None) == (not in_row_span(a, v, n)), (a, v)
            if x is not None:
                assert _mat_vec(a, x) == v, (a, v, x)
        assert hnf(left_kernel(a), m) == dense_hnf(dense_left_kernel(a), m), a
        assert smith_invariant_factors(a, n) == dense_smith(a, n), a
    # both kinds of pivot in one form, often enough to test the block
    assert mixed > 200, mixed
    # the shape `bloch_groups` inserts: the distinct five-term rows, of full
    # rank, with a unit at every pivot but two or three
    for p in (7, 13, 17):
        a = list(dict.fromkeys(relations_matrix(p).five_rows))
        n = p - 2
        h = HermiteForm(n)
        for r in a:
            h.insert(r)
        basis = h.basis()
        assert _unit_pivot_columns_are_clear(h), p
        assert basis == dense_hnf(a, n), p
        assert len(basis) == n and 2 <= sum(r[c] != 1 for c, r in h.rows.items()) <= 3, p


def test_in_row_span_basic():
    rows = [[2, 0], [0, 3]]
    assert in_row_span(rows, [4, 3])
    assert in_row_span(rows, [0, 0])
    assert not in_row_span(rows, [1, 0])
    assert not in_row_span(rows, [2, 1])


def test_in_row_span_needs_divisibility_in_order():
    # (1, 1) is in the Q-span but not the Z-span of (2, 0), (0, 2)
    assert not in_row_span([[2, 0], [0, 2]], [1, 1])
    assert in_row_span([[2, 0], [0, 2]], [-2, 4])


def test_hnf_membership_matches_bruteforce():
    rnd = random.Random(5)
    for _ in range(40):
        rows = _rand_matrix(rnd, 3, 3, -3, 3)
        h = HermiteForm(3)
        for r in rows:
            h.insert(r)
        # brute force: all small integer combinations of the rows
        reachable = set()
        for a in range(-4, 5):
            for b in range(-4, 5):
                for c in range(-4, 5):
                    v = tuple(
                        a * rows[0][j] + b * rows[1][j] + c * rows[2][j] for j in range(3)
                    )
                    reachable.add(v)
        for v in list(reachable)[:200]:
            assert h.contains(list(v)), (rows, v)


def test_hnf_rejects_outsiders():
    rnd = random.Random(6)
    for _ in range(30):
        rows = _rand_matrix(rnd, 2, 3)
        target = [rnd.randint(-5, 5) for _ in range(3)]
        member = in_row_span(rows, target)
        if member:
            # verify by exact rational solve + integrality
            [sol] = solve_integer(hnf(rows, 3), [target])
            assert sol is not None
        else:
            assert solve_integer(hnf(rows, 3), [target]) == [None]


# -- kernels -----------------------------------------------------------------


def test_left_kernel_annihilates():
    rnd = random.Random(7)
    for _ in range(40):
        rows = _rand_matrix(rnd, rnd.randint(1, 4), rnd.randint(1, 4))
        ker = left_kernel(rows)
        for v in ker:
            assert all(x == 0 for x in _mat_vec(rows, v))


def test_left_kernel_rank():
    # rank-1 matrix with 3 rows: kernel rank 2
    rows = [[1, 2], [2, 4], [3, 6]]
    ker = left_kernel(rows)
    assert len(ker) == 2
    for v in ker:
        assert all(x == 0 for x in _mat_vec(rows, v))


def test_left_kernel_completeness():
    # every small vector that annihilates must lie in the kernel's row span
    rnd = random.Random(8)
    for _ in range(20):
        rows = _rand_matrix(rnd, 3, 2, -3, 3)
        ker = left_kernel(rows)
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    v = [a, b, c]
                    if all(x == 0 for x in _mat_vec(rows, v)):
                        assert in_row_span(ker, v, 3) if ker else v == [0, 0, 0]


# -- determinants and Smith form ----------------------------------------------


def _fraction_det(a):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    assert det.denominator == 1
    return det.numerator


def _reference_invariant_factors(rows, n):
    """The determinant divisor chain by brute force: every k x k minor of
    every row, zero and repeated rows included, by rational elimination."""
    factors, prev = [], 1
    for k in range(1, min(len(rows), n) + 1):
        g = 0
        for ri in combinations(range(len(rows)), k):
            for ci in combinations(range(n), k):
                g = gcd(g, _fraction_det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def test_minor_gcd_oracle_examples():
    # on a square matrix the factors multiply to |det|, and a singular one
    # has fewer factors than rows
    assert minor_gcd_invariant_factors([[2]]) == [2]
    assert minor_gcd_invariant_factors([[1, 2], [3, 4]]) == [1, 2]
    assert minor_gcd_invariant_factors([[0, 1], [1, 0]]) == [1, 1]
    assert minor_gcd_invariant_factors([[1, 2], [2, 4]]) == [1]


def test_minor_gcd_oracle_matches_fraction_determinant():
    rnd = random.Random(9)
    for _ in range(30):
        n = rnd.randint(1, 5)
        a = _rand_matrix(rnd, n, n)
        det = _fraction_det(a)
        factors = minor_gcd_invariant_factors(a)
        if det:
            assert len(factors) == n and prod(factors) == abs(det), a
        else:
            assert len(factors) < n, a


def test_minor_gcd_oracle_matches_brute_force_minors():
    rnd = random.Random(14)
    for t in range(60):
        if t % 4 == 3:
            m = rnd.randint(1, 4)
            n = rnd.randint(m + 1, 7)  # wide
        else:
            m, n = rnd.randint(1, 7), rnd.randint(1, 5)
        bound = (1, 6, 1000)[t % 3]
        a = _rand_matrix(rnd, m, n, -bound, bound)
        if m > 2 and t % 5 < 2:
            # rank-deficient: one row a combination of two others
            u, w = rnd.sample(a, 2)
            c1, c2 = rnd.randint(-3, 3), rnd.randint(-3, 3)
            a[rnd.randrange(m)] = [c1 * x + c2 * y for x, y in zip(u, w)]
        if t % 3 == 1:
            c = rnd.randrange(n)
            for row in a:
                row[c] = 0
        if m < 7 and t % 2:
            # a row repeated, up to sign
            a.insert(rnd.randrange(m + 1), [rnd.choice((1, -1)) * x for x in rnd.choice(a)])
        assert minor_gcd_invariant_factors(a, n) == _reference_invariant_factors(a, n), a


def test_smith_examples():
    # determinant divisors: d1 = gcd of entries = 2, d2 = |det| = 8
    assert smith_invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[0, 0]], 2) == []
    assert smith_invariant_factors([[6]]) == [6]
    # divisibility chain holds
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]


def test_smith_matches_minor_gcd_oracle():
    rnd = random.Random(10)
    for k in range(60):
        m, n = rnd.randint(1, 5), rnd.randint(1, 6)
        bound = (5, 100, 10**6)[k % 3]
        a = _rand_matrix(rnd, m, n, -bound, bound)
        if m > 1 and k % 2:
            # rank-deficient: one row a combination of two others, or a
            # multiple of one other when both picks agree
            i = rnd.randrange(m)
            others = [r for r in range(m) if r != i]
            u, w = a[rnd.choice(others)], a[rnd.choice(others)]
            c1, c2 = rnd.randint(-3, 3), rnd.randint(-3, 3)
            a[i] = [c1 * x + c2 * y for x, y in zip(u, w)]
        assert smith_invariant_factors(a, n) == minor_gcd_invariant_factors(a, n), a
    # Hermite forms with both unit and non-unit pivots, so the alternation
    # runs on a proper block of the form
    mixed = 0
    while mixed < 40:
        m, n = rnd.randint(2, 5), rnd.randint(2, 6)
        a = _sparse_matrix(rnd, m, n)
        pivots = {r[next(j for j, x in enumerate(r) if x)] for r in hnf(a, n)}
        if 1 in pivots and len(pivots) > 1:
            mixed += 1
            assert smith_invariant_factors(a, n) == minor_gcd_invariant_factors(a, n), a


def test_minor_gcd_oracle_ignores_repeated_sign_and_zero_rows():
    rnd = random.Random(13)
    for _ in range(40):
        m, n = rnd.randint(1, 4), rnd.randint(1, 5)
        a = _rand_matrix(rnd, m, n)
        want = minor_gcd_invariant_factors(a, n)
        assert want == smith_invariant_factors(a, n), a
        r = rnd.choice(a)
        variants = [
            a + [r],
            a + [[-x for x in r]],
            [[-x for x in row] for row in a],
            a[::-1],
            [[0] * n] + a + [[0] * n],
        ]
        shuffled = [list(row) for row in a + [rnd.choice(a)]]
        rnd.shuffle(shuffled)
        variants.append(shuffled)
        for b in variants:
            assert minor_gcd_invariant_factors(b, n) == want, b
        # a row with its double spans more than the double alone
        for b in (a + [[2 * x for x in r]], [[2 * x for x in r]] + a):
            assert minor_gcd_invariant_factors(b, n) == smith_invariant_factors(b, n), b
    # only +-1 multiples are dropped: the double keeps its own factor
    assert minor_gcd_invariant_factors([[2, 4, 0], [1, 2, 0]]) == [1]
    assert minor_gcd_invariant_factors([[1, 2, 0], [2, 4, 0]]) == [1]
    assert minor_gcd_invariant_factors([[2, 4, 0], [4, 8, 0]]) == [2]
    assert minor_gcd_invariant_factors([[0, 0, 0], [0, 0, 0]]) == []


@pytest.mark.parametrize("p, factors", [(5, [1, 1, 3]), (7, [1, 1, 1, 1, 4])])
def test_minor_gcd_oracle_on_relation_matrices(p, factors):
    rows = [list(r) for r in relations_matrix(p).relations]
    assert minor_gcd_invariant_factors(rows, p - 2) == factors
    assert smith_invariant_factors(rows, p - 2) == factors


def test_smith_divisibility_chain():
    rnd = random.Random(11)
    for _ in range(40):
        a = _rand_matrix(rnd, 4, 4, -9, 9)
        f = smith_invariant_factors(a)
        for u, v in zip(f, f[1:]):
            assert v % u == 0


# -- integer solve -------------------------------------------------------------


def test_solve_integer_roundtrip():
    rnd = random.Random(12)
    for _ in range(40):
        m, n = rnd.randint(1, 3), rnd.randint(1, 4)
        basis = _rand_matrix(rnd, m, n)
        # skip rank-deficient bases: solve_integer's contract needs full row rank
        if len(hnf(basis, n)) < m:
            continue
        x = [rnd.randint(-4, 4) for _ in range(m)]
        v = _mat_vec(basis, x)
        assert solve_integer(basis, [v]) == [x]


def test_solve_integer_rejects_a_wrong_transform(monkeypatch):
    # the Hermite form of [basis | I] with one transform entry off by one:
    # the check x @ basis == v rejects every target that uses that row
    basis = [[2, 1, 0], [0, 3, 0], [0, 0, 5]]
    build = intmat._with_transform

    def corrupted(rows):
        # the row at pivot 2 claims to be 2 * basis[2] in its transform part
        form = build(rows)
        form.rows[2][3 + 2] += 1
        return form

    monkeypatch.setattr(intmat, "_with_transform", corrupted)
    targets = [[2, 1, 0], [0, 0, 5], [4, 5, 0], [2, 4, 10], [0, -3, 0]]
    assert solve_integer(basis, targets) == [[1, 0, 0], None, [2, 1, 0], None, [0, -1, 0]]


def test_solve_integer_rejects_non_integral():
    # v = (1, 1) over basis {(2, 0), (0, 1)}: x would be (1/2, 1)
    assert solve_integer([[2, 0], [0, 1]], [[1, 1]]) == [None]
    # inconsistent system
    assert solve_integer([[1, 1]], [[1, 2]]) == [None]
