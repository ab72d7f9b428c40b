"""Integer matrix tools: Hermite form, Smith form, kernels, membership."""

import random

import pytest

from dilogeq.intmat import (
    HermiteForm,
    det_bareiss,
    hnf,
    left_kernel,
    minor_gcd_invariant_factors,
    smith_invariant_factors,
    solve_integer,
)

from helpers import in_row_span


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
            sol = solve_integer(hnf(rows, 3), target)
            assert sol is not None
        else:
            assert solve_integer(hnf(rows, 3), target) is None


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


def test_det_bareiss_examples():
    assert det_bareiss([[2]]) == 2
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 2], [2, 4]]) == 0


def test_det_bareiss_matches_fraction_elimination():
    from fractions import Fraction

    rnd = random.Random(9)
    for _ in range(30):
        n = rnd.randint(1, 5)
        a = _rand_matrix(rnd, n, n)
        # rational Gaussian elimination determinant
        m = [[Fraction(x) for x in row] for row in a]
        det = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if m[i][k]), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                det = -det
            det *= m[k][k]
            inv = 1 / m[k][k]
            for i in range(k + 1, n):
                f = m[i][k] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
        assert det_bareiss(a) == det


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
    for _ in range(40):
        m, n = rnd.randint(1, 4), rnd.randint(1, 4)
        a = _rand_matrix(rnd, m, n, -5, 5)
        assert smith_invariant_factors(a, n) == minor_gcd_invariant_factors(a, n)


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
        got = solve_integer(basis, v)
        assert got == x


def test_solve_integer_rejects_non_integral():
    # v = (1, 1) over basis {(2, 0), (0, 1)}: x would be (1/2, 1)
    assert solve_integer([[2, 0], [0, 1]], [1, 1]) is None
    # inconsistent system
    assert solve_integer([[1, 1]], [1, 2]) is None
