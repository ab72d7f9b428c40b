"""GCD-free basis: pairwise-coprime squarefree factorizations without
irreducibility testing.

Every input polynomial is split as unit * prod basis_i^{e_i} where the basis
elements are monic, squarefree, non-constant, and pairwise coprime.  The
refinement is the classic one: insert each squarefree part, splitting any
basis element it meets a common factor with.  Squarefreeness keeps it sound:
when a squarefree b splits as d * (b/d), the pieces are coprime, so no
recursive fixups are needed.  Every split updates each registered input's
record {element: exponent} (factor refinement, Bach, Driscoll and Shallit,
J. Algorithms 15, 1993).  Elements, their products and quotients are
graded-lex monic, so an input is its lead coefficient times the product
over its record.

The basis plays the role of a full irreducible factorization in the boundary
pairing computations.  The refinement to squarefree parts also matters for
torsion: a perfect-square factor must not contribute to mod-2 sign columns,
and squarefree basis elements make every stored exponent faithful.
"""

from __future__ import annotations

from typing import Iterable

from .poly import MultiPoly, _exact_quotient, poly_gcd, squarefree_parts
from .ratfunc import RationalFunction
from .scalars import FieldElement


class CoprimeBasis:
    """A pairwise-coprime set of monic squarefree non-constant polynomials."""

    def __init__(self, universe: tuple[str, ...]):
        self.universe = tuple(universe)
        self.elements: list[MultiPoly] = []
        self._records: dict[MultiPoly, dict[MultiPoly, int]] = {}
        self._index: dict[MultiPoly, int] | None = None

    # -- construction -----------------------------------------------------

    def _record(self, monic: MultiPoly) -> dict[MultiPoly, int]:
        """monic's record; a new one splits and appends elements as needed
        and updates every record, or raises ValueError once frozen.  The
        squarefree parts are coprime, so no split touches this record."""
        if monic in self._records:
            return self._records[monic]
        record: dict[MultiPoly, int] = {}
        for g, k in squarefree_parts(monic):
            i = 0
            while not g.is_constant() and i < len(self.elements):
                b = self.elements[i]
                d = poly_gcd(b, g)
                i += 1
                if d.is_constant():
                    continue
                if d != b:
                    self._refuse_once_frozen(monic)
                    rest = _exact_quotient(b, d)
                    self.elements[i - 1 : i] = [d, rest]
                    for r in self._records.values():
                        if b in r:
                            r[d] = r[rest] = r.pop(b)
                    i += 1
                record[d] = k
                g = _exact_quotient(g, d)
            if not g.is_constant():
                self._refuse_once_frozen(monic)
                self.elements.append(g)
                record[g] = k
        self._records[monic] = record
        return record

    def _refuse_once_frozen(self, p: MultiPoly):
        if self._index is not None:
            raise ValueError(f"{p} does not factor over the basis")

    def add(self, p: MultiPoly):
        """Refine the basis so p factors over it; p nonzero."""
        if self._index is not None:
            raise RuntimeError("basis is frozen after sorting")
        if p.is_zero():
            raise ValueError("cannot register zero")
        self._record(p.primitive_monic()[1])

    def freeze(self):
        """Sort elements into the canonical order; no further refinement."""
        self.elements.sort(key=lambda b: b.sort_key())
        self._index = {b: i for i, b in enumerate(self.elements)}

    # -- queries ---------------------------------------------------------------

    def factor(self, p: MultiPoly) -> tuple[FieldElement, dict[int, int]]:
        """p = unit * prod elements[i]^{e[i]}, exactly, on a frozen basis;
        p must be a product of basis elements (true for anything add()ed
        before freeze()), else ValueError."""
        if self._index is None:
            raise RuntimeError("freeze the basis before factoring")
        if p.is_zero():
            raise ValueError("cannot factor zero")
        unit, monic = p.primitive_monic()
        return unit, {self._index[b]: e for b, e in self._record(monic).items()}

    def factor_rf(self, f: RationalFunction) -> tuple[FieldElement, dict[int, int]]:
        """Factor a nonzero rational function: numerator minus denominator."""
        un, en = self.factor(f.num)
        ud, ed = self.factor(f.den)
        for i, e in ed.items():
            en[i] = en.get(i, 0) - e
        return un / ud, {i: e for i, e in en.items() if e}

    def index_of(self, b: MultiPoly) -> int | None:
        if self._index is None:
            raise RuntimeError("freeze the basis before indexing")
        return self._index.get(b)

    def __len__(self):
        return len(self.elements)


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
