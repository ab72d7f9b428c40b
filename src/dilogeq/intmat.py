"""Exact integer matrix tools: Hermite normal form, Smith normal form,
integer kernels, integer solving, and row-span membership.

Everything here is plain list-of-lists over Python ints, sized for group
presentations with at most a few thousand relation rows over a hundred or
so generators; there is no rational arithmetic anywhere.

`HermiteForm` is the one row elimination.  It processes rows
incrementally, so large relation sets collapse into an at-most-n-row
accumulator as they stream in, and one reduction loop on it serves
membership and integer solving.  Kernels and solutions come from the
Hermite form of [rows | I], whose identity part records each row as a
combination of the input rows.  The Smith form alternates Hermite forms
of the matrix and of its transpose.

The minor-gcd Smith form (gcd of all k x k minors gives the determinant
divisor chain d_k, and d_k / d_{k-1} the invariant factors) is exponential
and exists as an independent cross-check for small matrices only.  It
enumerates minors over the distinct nonzero rows up to sign, and shares no
elimination with the Hermite and Smith forms above.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


Matrix = list[list[int]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b == g > 0 (a, b not both zero)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class HermiteForm:
    """Row-style HNF accumulator: positive pivots, entries above a pivot
    reduced into [0, pivot).  Insert rows one at a time."""

    def __init__(self, width: int):
        self.width = width
        # pivot column -> row; basis() completes the reduction above pivots
        self.rows: dict[int, list[int]] = {}

    def insert(self, row) -> bool:
        """Reduce a row in; returns True if it enlarged the span."""
        row = list(row)
        if len(row) != self.width:
            raise ValueError(f"row of width {len(row)} in a width-{self.width} form")
        for c in range(self.width):
            if not row[c]:
                continue
            if c not in self.rows:
                if row[c] < 0:
                    row = [-x for x in row]
                self.rows[c] = row
                self._normalize_above(c)
                return True
            piv = self.rows[c]
            a, b = piv[c], row[c]
            if b % a == 0:
                # the pivot already divides: clear the entry, the form stays
                q = b // a
                row = [y - q * x for x, y in zip(piv, row)]
                continue
            # one unimodular step: pivot becomes gcd, row entry becomes 0
            g, u, v = _xgcd(a, b)
            new_piv = [u * x + v * y for x, y in zip(piv, row)]
            row = [(a // g) * y - (b // g) * x for x, y in zip(piv, row)]
            piv[:] = new_piv
            # Reduce the earlier rows at this column now, not only in
            # basis(): later steps mix those rows into others, so entries
            # left unreduced above a pivot compound and the integers grow
            # (without this pass `bloch_groups(43)` runs about five times
            # slower).
            self._normalize_above(c)
        return False

    def _normalize_above(self, c: int):
        piv = self.rows[c]
        for c2, other in self.rows.items():
            if c2 == c:
                continue
            if other[c]:
                q = other[c] // piv[c]
                if q:
                    other[:] = [a - q * b for a, b in zip(other, piv)]

    def _reduce(self, v: list[int], stop: int) -> list[int] | None:
        """v minus the combination of pivot rows that clears its columns
        before `stop`; None when a pivot is missing or does not divide."""
        for c in range(stop):
            if not v[c]:
                continue
            piv = self.rows.get(c)
            if piv is None or v[c] % piv[c]:
                return None
            q = v[c] // piv[c]
            v = [a - q * b for a, b in zip(v, piv)]
        return v

    def basis(self) -> Matrix:
        # left to right, so a later step never disturbs a reduced column
        for c in sorted(self.rows):
            self._normalize_above(c)
        return [list(self.rows[c]) for c in sorted(self.rows)]

    def contains(self, v) -> bool:
        rest = self._reduce(list(v), self.width)
        return rest is not None and not any(rest)


def hnf(rows: Matrix, width: int | None = None) -> Matrix:
    if width is None:
        if not rows:
            raise ValueError("need explicit width for an empty matrix")
        width = len(rows[0])
    h = HermiteForm(width)
    for r in rows:
        h.insert(r)
    return h.basis()


def _with_transform(rows: Matrix) -> HermiteForm:
    """Hermite form of [rows | I]: each form row [h | t] has t @ rows == h."""
    m, n = len(rows), len(rows[0])
    h = HermiteForm(n + m)
    for i, r in enumerate(rows):
        h.insert(list(r) + [1 if j == i else 0 for j in range(m)])
    return h


def left_kernel(rows: Matrix) -> Matrix:
    """Basis of the lattice {v : v @ rows == 0}: the transform rows whose
    content part vanished, i.e. whose pivot lies past the content columns."""
    if not rows:
        return []
    n = len(rows[0])
    h = _with_transform(rows)
    return [h.rows[c][n:] for c in sorted(h.rows) if c >= n]


def solve_integer(basis: Matrix, targets: Matrix) -> list[list[int] | None]:
    """For each target v, the x with x @ basis == v when it exists and
    basis has full row rank, else None.

    One Hermite form of [basis | I] serves every target: reducing [v | 0]
    against it over the content columns leaves [0 | -x].
    """
    m = len(basis)
    if m == 0:
        return [None if any(v) else [] for v in targets]
    n = len(basis[0])
    form = _with_transform(basis)
    cols = list(zip(*basis))
    out = []
    for v in targets:
        rest = form._reduce(list(v) + [0] * m, n)
        x = None if rest is None else [-t for t in rest[n:]]
        # verify the transform bookkeeping
        if x is not None and any(
            sum(a * b for a, b in zip(x, col)) != vj for col, vj in zip(cols, v)
        ):
            x = None
        out.append(x)
    return out


def smith_invariant_factors(rows: Matrix, width: int | None = None) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of the row matrix.

    Kannan and Bachem's alternation: take the Hermite form of the matrix,
    then of its transpose, and so on until it is diagonal.  Row operations
    on the transpose are column operations on the matrix, so no step
    changes the invariant factors; gcd/lcm exchanges then sort the
    diagonal into a divisibility chain.
    """
    if width is None:
        if not rows:
            return []
        width = len(rows[0])
    a = hnf(rows, width)
    # This ends: the new leading entry is the gcd of the old leading row, so
    # each round either shrinks the leading entry or, when it already
    # divides its row, clears its row and column; the trailing block then
    # obeys the same argument, and positive integers cannot shrink forever.
    while any(x for i, r in enumerate(a) for j, x in enumerate(r) if i != j):
        a = hnf([list(col) for col in zip(*a)], len(a))
    d = [a[i][i] for i in range(len(a))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def det_bareiss(a: Matrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(a)
    if n == 0:
        return 1
    a = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def minor_gcd_invariant_factors(rows: Matrix, width: int | None = None) -> list[int]:
    """Invariant factors via determinant divisors: d_k = gcd of all k x k
    minors, f_k = d_k / d_{k-1}.  Exponential; cross-check use only.

    Minors are taken over one row per +-class of nonzero rows.  No d_k
    changes: a minor with a zero row, or with two equal rows, is 0, and
    negating a row negates every minor that contains it.
    """
    if width is None:
        if not rows:
            return []
        width = len(rows[0])
    distinct = {}
    for r in rows:
        lead = next((x for x in r if x), 0)
        if lead:
            distinct.setdefault(tuple(x if lead > 0 else -x for x in r), None)
    rows = list(distinct)
    m, n = len(rows), width
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, det_bareiss(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors
