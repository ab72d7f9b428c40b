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
takes minors over the distinct nonzero rows up to sign, each as a split
Laplace expansion: the dot product of the half-size minors of its first
ceil(k/2) rows with the signed, reordered minors of the rest, each built
once per call from smaller minors.  It does no row operation and shares
no elimination with the Hermite and Smith forms above.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import mul


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
    reduced into [0, pivot).  Insert rows one at a time.

    The row at pivot column c is zero before c, and so is a row being
    reduced once its columns before c are cleared, so every row operation
    at column c touches columns c onward only."""

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
                row[c:] = [y - q * x for x, y in zip(piv[c:], row[c:])]
                continue
            # one unimodular step: pivot becomes gcd, row entry becomes 0
            g, u, v = _xgcd(a, b)
            tail = list(zip(piv[c:], row[c:]))
            row[c:] = [(a // g) * y - (b // g) * x for x, y in tail]
            piv[c:] = [u * x + v * y for x, y in tail]
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
                    other[c:] = [a - q * b for a, b in zip(other[c:], piv[c:])]

    def _reduce(self, v: list[int], stop: int) -> list[int] | None:
        """v minus the combination of pivot rows that clears its columns
        before `stop`, computed in v itself; None when a pivot is missing
        or does not divide."""
        for c in range(stop):
            if not v[c]:
                continue
            piv = self.rows.get(c)
            if piv is None or v[c] % piv[c]:
                return None
            q = v[c] // piv[c]
            v[c:] = [a - q * b for a, b in zip(v[c:], piv[c:])]
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
        if x is not None and any(sum(map(mul, x, col)) != vj for col, vj in zip(cols, v)):
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
    factors = []
    prev = 1
    for k in range(1, min(len(rows), width) + 1):
        g = _minor_gcd(rows, width, k, prev)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def _minor_gcd(rows: Matrix, width: int, k: int, floor: int) -> int:
    """The gcd of all k x k minors of rows, or floor = d_{k-1} as soon as
    the gcd reaches it: expanding a k x k minor along one row writes it as
    an integer combination of (k-1) x (k-1) minors, so d_{k-1} divides d_k.

    Each minor is a generalized Laplace expansion along the first
    h = ceil(k/2) rows of its row subset, top + bottom:

        det(top + bottom; C) = sum over h-subsets S of C of
            (-1)^(sum of the positions of S in C - h(h-1)/2)
            * det(top; S) * det(bottom; C minus S).

    For a column set C, a row subset's minors on C are its row of a
    compound matrix, built from the row of the subset without its first
    row by expanding along that row.  Each bottom's row, reordered to the
    complements and signed, makes every minor one dot product.
    """
    h = (k + 1) // 2
    # the j-subsets of the k column positions, lexicographic, for j <= h
    subsets = [list(combinations(range(k), j)) for j in range(h + 1)]
    index = [{s: i for i, s in enumerate(sub)} for sub in subsets]
    # a j-subset's minor along its first row: (position, sign, the rest's index)
    expand = [
        [
            [(s[q], (-1) ** q, index[j - 1][s[:q] + s[q + 1 :]]) for q in range(j)]
            for s in subsets[j]
        ]
        for j in range(h + 1)
    ]
    laplace = [
        (
            (-1) ** (sum(s) - h * (h - 1) // 2),
            index[k - h][tuple(c for c in range(k) if c not in s)],
        )
        for s in subsets[h]
    ]

    def row_of(sub: Matrix, compound: dict, t: tuple[int, ...]) -> list[int]:
        v = compound.get(t)
        if v is None:
            rest, a = row_of(sub, compound, t[1:]), sub[t[0]]
            v = compound[t] = [
                sum(sign * a[c] * rest[i] for c, sign, i in terms) for terms in expand[len(t)]
            ]
        return v

    m = len(rows)
    # per column set: the rows cut to it, its compound rows by row subset,
    # and its bottoms' reordered and signed rows
    per_cols = [
        ([[r[c] for c in cols] for r in rows], {(): [1]}, {})
        for cols in combinations(range(width), k)
    ]
    g = 0
    # Tops leave room for a bottom after them.  Column sets vary inside the
    # loop over tops, so one column set whose minors share a factor the
    # others lack does not hold up the early exit.
    for top in combinations(range(m - (k - h)), h):
        for sub, compound, bottoms in per_cols:
            u = row_of(sub, compound, top)
            if not any(u):
                continue
            for bottom in combinations(range(top[-1] + 1, m), k - h):
                w = bottoms.get(bottom)
                if w is None:
                    v = row_of(sub, compound, bottom)
                    w = bottoms[bottom] = [sign * v[i] for sign, i in laplace]
                g = gcd(g, sum(map(mul, u, w)))
                if g == floor:
                    return g
    return g
