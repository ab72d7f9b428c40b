"""GCD-free basis: pairwise-coprime squarefree factorizations without
irreducibility testing.

Every input polynomial is split as unit * prod basis_i^{e_i} where the basis
elements are monic, squarefree, non-constant, and pairwise coprime.  The
refinement is the classic one: insert each squarefree part, splitting any
basis element it meets a common factor with.  Squarefreeness first is what
keeps the refinement sound: when a squarefree b splits as d * (b/d), the two
pieces are automatically coprime, so the invariant is preserved without any
recursive fixups.

The basis plays the role of a full irreducible factorization in the boundary
pairing computations.  The refinement to squarefree parts also matters for
torsion: a perfect-square factor must not contribute to mod-2 sign columns,
and squarefree basis elements make every stored exponent faithful.
"""

from __future__ import annotations

from typing import Iterable

from .poly import MultiPoly, poly_gcd, squarefree_parts
from .ratfunc import RationalFunction
from .scalars import FieldElement, ONE


class CoprimeBasis:
    """A pairwise-coprime set of monic squarefree non-constant polynomials."""

    def __init__(self, universe: tuple[str, ...]):
        self.universe = tuple(universe)
        self.elements: list[MultiPoly] = []
        self._frozen = False

    # -- construction -----------------------------------------------------

    def _insert_squarefree(self, g: MultiPoly):
        i = 0
        while not g.is_constant() and i < len(self.elements):
            b = self.elements[i]
            d = poly_gcd(b, g)
            if d.is_constant():
                i += 1
                continue
            if d == b:
                g = _monic_quot(g, d)
                i += 1
                continue
            rest = _monic_quot(b, d)
            self.elements[i] = d
            self.elements.insert(i + 1, rest)
            g = _monic_quot(g, d)
            i += 2
        if not g.is_constant():
            self.elements.append(g)

    def add(self, p: MultiPoly):
        """Refine the basis so p factors over it; p nonzero."""
        if self._frozen:
            raise RuntimeError("basis is frozen after sorting")
        if p.is_zero():
            raise ValueError("cannot register zero")
        _, monic = p.primitive_monic()
        for g, _ in squarefree_parts(monic):
            self._insert_squarefree(g)

    def freeze(self):
        """Sort elements into the canonical order; no further refinement."""
        self.elements.sort(key=lambda b: b.sort_key())
        self._frozen = True

    # -- queries ---------------------------------------------------------------

    def factor(self, p: MultiPoly) -> tuple[FieldElement, dict[int, int]]:
        """p = unit * prod elements[i]^{e[i]}, exactly.

        p must be a product of basis elements (true for anything add()ed
        before freeze()); raises ValueError otherwise.
        """
        if p.is_zero():
            raise ValueError("cannot factor zero")
        unit, rem = p.primitive_monic()
        exps: dict[int, int] = {}
        for i, b in enumerate(self.elements):
            if rem.is_constant():
                break
            while True:
                q = rem.divide_exact(b)
                if q is None:
                    break
                exps[i] = exps.get(i, 0) + 1
                _, rem = q.primitive_monic()
        if not rem.is_constant():
            raise ValueError(f"{p} does not factor over the basis")
        if not rem.constant_value().is_one():
            unit = unit * rem.constant_value()
        return unit, exps

    def factor_rf(self, f: RationalFunction) -> tuple[FieldElement, dict[int, int]]:
        """Factor a nonzero rational function: numerator minus denominator."""
        un, en = self.factor(f.num)
        ud, ed = self.factor(f.den)
        out = dict(en)
        for i, e in ed.items():
            out[i] = out.get(i, 0) - e
        return un / ud, {i: e for i, e in out.items() if e}

    def index_of(self, b: MultiPoly) -> int | None:
        try:
            return self.elements.index(b)
        except ValueError:
            return None

    def __len__(self):
        return len(self.elements)


def _monic_quot(a: MultiPoly, d: MultiPoly) -> MultiPoly:
    q = a.divide_exact(d)
    if q is None:
        raise ArithmeticError("refinement divisions are exact by construction")
    return q.primitive_monic()[1]


def coprime_basis(inputs: Iterable[MultiPoly]) -> CoprimeBasis:
    """Build a frozen basis refining every nonzero input."""
    inputs = list(inputs)
    if not inputs:
        raise ValueError("need at least one input")
    basis = CoprimeBasis(inputs[0].universe)
    for p in inputs:
        basis.add(p)
    basis.freeze()
    return basis
