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
combination of the input rows.

The relation lattices met here are nearly the identity: most pivots are
1.  So the form keeps one invariant, that no stored row has a nonzero in
another row's unit-pivot column, and clears an incoming row at every
unit pivot in one sparse pass before the dense column loop runs on what
is left; `basis()` reduces above the non-unit pivots only.  Solutions
are as sparse, so `solve_integer` checks each one over the basis rows
its nonzero entries select.  The Smith form reads each unit pivot of the
reduced Hermite form as an invariant factor 1, which is exact because
that pivot's column is zero outside its own row, so column operations
clear the row without touching any other.  It alternates Hermite forms
of the block of non-unit pivot rows, on the columns that are not unit
pivots, and of its transpose.

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

from itertools import combinations, compress
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
    at column c touches columns c onward only.

    Invariant: no stored row has a nonzero entry in another row's
    unit-pivot column (a pivot equal to 1).  An incoming row is cleared at
    every unit pivot before anything else, and `_normalize_above` clears
    the other rows when a pivot becomes 1; the non-unit row operations
    then keep those columns zero, since every row they combine is zero
    there.  So the unit-pivot rows that a vector touches are subtracted
    in one pass whose order does not matter, each from a cached list of
    that row's off-pivot nonzeros (dropped whenever the row changes), and
    the column loop runs only on what is left.  A unit pivot's column is
    zero outside its own row, so `basis()` has nothing to reduce above it
    and passes over it, column operations clear that row alone, and
    `smith_invariant_factors` reads each unit pivot as an invariant factor
    1 and works on the rest."""

    def __init__(self, width: int):
        self.width = width
        # pivot column -> row; basis() completes the reduction above pivots
        self.rows: dict[int, list[int]] = {}
        # unit pivot column -> its row's (column, entry) nonzeros after the
        # pivot, or None when the row changed since they were last listed
        self._units: dict[int, list[tuple[int, int]] | None] = {}

    def insert(self, row) -> bool:
        """Reduce a row in; returns True exactly when the lattice grew: a
        new pivot, or a pivot that shrank to its gcd with the row's entry."""
        row = list(row)
        if len(row) != self.width:
            raise ValueError(f"row of width {len(row)} in a width-{self.width} form")
        grew = False
        for c in range(self._clear_units(row, self.width), self.width):
            if not row[c]:
                continue
            if c not in self.rows:
                if row[c] < 0:
                    row = [-x for x in row]
                self.rows[c] = row
                if row[c] == 1:
                    self._units[c] = None
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
            grew = True
            if g == 1:
                self._units[c] = None
            # Reduce the earlier rows at this column now, not only in
            # basis(): later steps mix those rows into others, so entries
            # left unreduced above a pivot compound and the integers grow
            # (without this pass `bloch_groups(43)` runs about five times
            # slower).
            self._normalize_above(c)
        return grew

    def _clear_units(self, v: list[int], stop: int) -> int:
        """Subtract from v the unit-pivot rows at its nonzero columns before
        `stop`, and return v's first nonzero column before the pass (or
        `stop`), before which v stays zero.  Each of those rows is zero at
        every other unit pivot, so the multipliers are v's own entries and
        the order does not matter."""
        units = self._units
        nonzero = list(compress(range(stop), v))
        for c in [c for c in nonzero if c in units]:
            q = v[c]
            tail = units[c]
            if tail is None:
                piv = self.rows[c]
                tail = units[c] = [(j, x) for j, x in enumerate(piv[c + 1 :], c + 1) if x]
            v[c] = 0
            for j, x in tail:
                v[j] -= q * x
        return nonzero[0] if nonzero else stop

    def _normalize_above(self, c: int):
        piv = self.rows[c]
        for c2, other in self.rows.items():
            if c2 == c:
                continue
            if other[c]:
                q = other[c] // piv[c]
                if q:
                    other[c:] = [a - q * b for a, b in zip(other[c:], piv[c:])]
                    if c2 in self._units:
                        self._units[c2] = None

    def _reduce(self, v: list[int], stop: int) -> list[int] | None:
        """v minus the combination of pivot rows that clears its columns
        before `stop`, computed in v itself; None when a pivot is missing
        or does not divide."""
        for c in range(self._clear_units(v, stop), stop):
            if not v[c]:
                continue
            piv = self.rows.get(c)
            if piv is None or v[c] % piv[c]:
                return None
            q = v[c] // piv[c]
            v[c:] = [a - q * b for a, b in zip(v[c:], piv[c:])]
        return v

    def basis(self) -> Matrix:
        # left to right, so a later step never disturbs a reduced column;
        # by the invariant a unit pivot's column is already zero in every
        # other row, so only the non-unit pivots need the pass
        for c in sorted(self.rows):
            if self.rows[c][c] != 1:
                self._normalize_above(c)
        return [list(self.rows[c]) for c in sorted(self.rows)]

    def contains(self, v) -> bool:
        rest = self._reduce(list(v), self.width)
        return rest is not None and not any(rest)


def hnf(rows: Matrix, width: int) -> Matrix:
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
    out = []
    for v in targets:
        rest = form._reduce(list(v) + [0] * m, n)
        x = None if rest is None else [-t for t in rest[n:]]
        if x is not None:
            # verify the transform bookkeeping: v - x @ basis, summed over
            # the rows with a nonzero x_i only, must vanish
            for xi, row in zip(x, basis):
                if xi:
                    v = [a - xi * b for a, b in zip(v, row)]
            if any(v):
                x = None
        out.append(x)
    return out


def smith_invariant_factors(rows: Matrix, width: int) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of the row matrix.

    Each unit pivot of the reduced Hermite form is an invariant factor 1:
    its column is zero outside its own row, so column operations clear
    that row without touching any other.  What is left is the block of
    the non-unit pivot rows on the columns that are not unit pivots, and
    on it Kannan and Bachem's alternation runs: take the Hermite form of
    the block's transpose, then of its transpose, and so on until it is
    diagonal.  Row operations on the transpose are column operations on
    the matrix, so no step changes the invariant factors; gcd/lcm
    exchanges then sort the diagonal into a divisibility chain.
    """
    a = hnf(rows, width)
    pivots = [next(j for j, x in enumerate(r) if x) for r in a]
    units = {c for r, c in zip(a, pivots) if r[c] == 1}
    keep = [j for j in range(width) if j not in units]
    a = [[r[j] for j in keep] for r, c in zip(a, pivots) if c not in units]
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
    return [1] * len(units) + d


def minor_gcd_invariant_factors(rows: Matrix, width: int) -> list[int]:
    """Invariant factors via determinant divisors: d_k = gcd of all k x k
    minors, f_k = d_k / d_{k-1}.  Exponential; cross-check use only.

    Minors are taken over one row per +-class of nonzero rows.  No d_k
    changes: a minor with a zero row, or with two equal rows, is 0, and
    negating a row negates every minor that contains it.
    """
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
