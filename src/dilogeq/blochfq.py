"""Pre-Bloch and modified Bloch groups of small prime fields.

Everything is finite and exact: the generators are the field elements
F_p \\ {0, 1}, the relations are the five-term rows and inversion rows
evaluated in F_p, and group structure falls out of integer Smith and
Hermite normal forms.

The wedge square of F_p* is presented mechanically: F_p* is cyclic of
order m = p-1, its tensor square is Z/m via g^a (x) g^b -> a*b, and the
subgroup generated by (-x) (x) x is computed by direct enumeration.  No
closed-form description of the quotient is assumed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .intmat import (
    HermiteForm,
    hnf,
    left_kernel,
    smith_invariant_factors,
    solve_integer,
)
from .primes import _factor_int, require_prime


@dataclass(frozen=True)
class AbelianGroupPresentation:
    """Generators F_p minus {0, 1} and integer relation rows over them."""

    generators: tuple[int, ...]
    five_rows: tuple[tuple[int, ...], ...]
    inversion_rows: tuple[tuple[int, ...], ...]

    @property
    def relations(self) -> tuple[tuple[int, ...], ...]:
        return self.five_rows + self.inversion_rows


@dataclass(frozen=True)
class InvariantFactors:
    """Divisibility chain d1 | d2 | ...; a trailing 0 is a free Z factor."""

    factors: tuple[int, ...]

    def __post_init__(self):
        nz = [f for f in self.factors if f != 0]
        if not all(f > 1 for f in nz):
            raise ValueError(f"trivial factors must be dropped: {self.factors}")
        if not all(b % a == 0 for a, b in zip(nz, nz[1:])):
            raise ValueError(f"factors do not form a divisibility chain: {self.factors}")
        if not all(f == 0 for f in self.factors[len(nz):]):
            raise ValueError(f"free factors must come last: {self.factors}")

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " + ".join("Z" if f == 0 else f"Z/{f}" for f in self.factors)


def _pack_factors(raw: list[int], ambient_rank: int) -> InvariantFactors:
    free = ambient_rank - len(raw)
    return InvariantFactors(tuple([f for f in raw if f > 1] + [0] * free))


def relations_matrix(p: int) -> AbelianGroupPresentation:
    """All five-term rows over ordered pairs x != y, plus all inversion rows.

    Over a prime field every ordered pair of distinct generators is
    admissible: each of the five arguments stays outside {0, 1} exactly
    because x, y are outside {0, 1} and distinct.
    """
    require_prime(p, "p")
    if p < 5:
        raise ValueError(f"need p >= 5, got {p}")
    gens = tuple(range(2, p))
    n = len(gens)

    # inv[a] is the inverse of a mod p for every a in (-p, p): a negative
    # index counts from the end, so inv[-a] is inv[p - a]
    inv = [0] + [pow(a, -1, p) for a in range(1, p)]

    five = []
    for x in gens:
        ix, jx = inv[x], 1 - inv[x]
        for y in gens:
            if x == y:
                continue
            # the arguments x, y, y/x, (1-x)/(1-y), (1-1/x)/(1-1/y) with
            # signs + - + + -; where two coincide their entries add
            row = [0] * n
            row[x - 2] += 1
            row[y - 2] -= 1
            row[y * ix % p - 2] += 1
            row[(1 - x) * inv[1 - y] % p - 2] += 1
            row[jx * inv[1 - inv[y]] % p - 2] -= 1
            five.append(tuple(row))

    inversion = []
    for x in gens:
        row = [0] * n
        row[x - 2] += 1
        row[inv[x] - 2] += 1
        inversion.append(tuple(row))

    return AbelianGroupPresentation(gens, tuple(five), tuple(inversion))


def wedge_square_order(p: int) -> tuple[int, int]:
    """(m, d) with F_p* of order m and the wedge square presented as Z/d,
    for any prime p; d >= 1, since the gcd starts at d = m >= 1.

    The tensor square of a cyclic group of order m is Z/m via
    g^a (x) g^b -> a*b; killing (-x) (x) x kills a*(a + m/2) for every a,
    since -1 = g^(m/2).
    """
    require_prime(p, "p")
    m = p - 1
    h = m // 2
    d = m
    for a in range(m):
        d = gcd(d, a * (a + h) % m)
    return m, d


def _primitive_root(p: int) -> int:
    m = p - 1
    primes = [q for q, _ in _factor_int(m)]
    for g in range(2, p):
        if all(pow(g, m // q, p) != 1 for q in primes):
            return g
    raise ValueError(f"no primitive root mod {p}; {p} is not an odd prime")


def boundary_vector(p: int) -> tuple[int, list[int]]:
    """(d, w) with w[i] the image of generator x_i under [x] -> x /\\ (1-x),
    as an element of the wedge square Z/d, d >= 1."""
    m, d = wedge_square_order(p)
    g = _primitive_root(p)
    dlog = {pow(g, k, p): k for k in range(m)}
    w = []
    for x in range(2, p):
        # 1-x mod p stays outside {0, 1} for x outside {0, 1}
        w.append(dlog[x] * dlog[(1 - x) % p] % d)
    return d, w


def kernel_lattice(p: int) -> list[list[int]]:
    """HNF basis of ker(boundary) inside Z^(p-2).

    The kernel is {v : sum v_i w_i = 0 mod d}, d >= 1, a full-rank
    sublattice; it is the projection of the integer kernel of the column
    (w_1..w_n, d).
    """
    d, w = boundary_vector(p)
    n = len(w)
    rows = [[wi] for wi in w] + [[d]]
    proj = [b[:n] for b in left_kernel(rows)]
    basis = hnf(proj, n)
    if len(basis) != n:
        raise ArithmeticError("kernel of a map to a finite group has full rank")
    return basis


@dataclass(frozen=True)
class BlochGroups:
    """Bloch-group data of F_p, all read from one presentation.

    `wedge_square` is d with the wedge square of F_p* presented as Z/d.
    The c-element facts: the class of [c] + [1-c] modulo the five-term
    rows does not depend on c, and three times it dies modulo the full
    relation set.
    """

    presentation: AbelianGroupPresentation
    wedge_square: int
    pre_bloch_five_only: InvariantFactors
    pre_bloch: InvariantFactors
    modified_bloch: InvariantFactors
    c_class_independent: bool
    three_c_in_span: bool


def bloch_groups(p: int) -> BlochGroups:
    """Pre-Bloch groups (five-term rows only, and all relations), the
    modified Bloch group, and the c-element facts of F_p.

    Each distinct relation row is eliminated once: about half the
    five-term rows repeat another, and x and 1/x give the same inversion
    row.  The full relation lattice is the Hermite basis of the five-term
    lattice (which spans it) plus the inversion rows, so the about p^2
    rows are never reduced twice.
    The modified Bloch group is ker(boundary) modulo the relation lattice,
    solved for in kernel coordinates through the full lattice's Hermite
    basis.  Every relation must land inside the kernel (the boundary kills
    five-term and inversion rows); a basis row that does not is a hard
    error.
    """
    pres = relations_matrix(p)
    n = len(pres.generators)
    five = HermiteForm(n)
    for row in dict.fromkeys(pres.five_rows):
        five.insert(row)
    five_basis = five.basis()
    full = HermiteForm(n)
    for row in [*five_basis, *dict.fromkeys(pres.inversion_rows)]:
        full.insert(row)
    full_basis = full.basis()

    coords = solve_integer(kernel_lattice(p), full_basis)
    for row, x in zip(full_basis, coords):
        if x is None:
            raise ArithmeticError(f"relation lattice row {row} falls outside ker(boundary)")

    def c_vec(c: int) -> list[int]:
        row = [0] * n
        row[c - 2] += 1
        row[(1 - c) % p - 2] += 1
        return row

    # equality with a fixed base point for every c gives all pairs
    base = c_vec(2)
    cs = [c_vec(c) for c in pres.generators]
    return BlochGroups(
        presentation=pres,
        wedge_square=wedge_square_order(p)[1],
        pre_bloch_five_only=_pack_factors(smith_invariant_factors(five_basis, n), n),
        pre_bloch=_pack_factors(smith_invariant_factors(full_basis, n), n),
        modified_bloch=_pack_factors(smith_invariant_factors(coords, n), n),
        c_class_independent=all(
            five.contains([a - b for a, b in zip(vc, base)]) for vc in cs
        ),
        three_c_in_span=all(full.contains([3 * a for a in vc]) for vc in cs),
    )
