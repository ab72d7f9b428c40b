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

Each element b is tested against each squarefree part g first by their
modular images (`poly._images_coprime`), which usually settle the pair
from one variable in which b or g is primitive.  The images certify most
pairs coprime; otherwise b usually divides g, and the exact quotient then
gives gcd(b, g) = b with no split; only when the division fails does the
exact gcd run and split b.

An input may come with factors, a map {monic factor: multiplicity} whose
product is the input up to a unit, as a rational function's factor maps
are (`ratfunc`).  The basis then refines the factors, each recorded like an
input of its own, and records the input as the sum of their records with
the multiplicities; a power or a product of known pieces is never split
again from scratch.  Refining factors can separate irreducibles that no
registered input tells apart: (x+1)(x+2) given as two factors leaves x+1
and x+2 as elements even when no input holds one without the other.
`freeze()` therefore merges the elements whose exponent is the same in
every registered input, which gives back exactly the basis of the inputs
registered whole.  Why: an irreducible factor's signature, its exponent in
each input, decides its element, since two irreducibles are separated
exactly when some input holds them to different exponents.  Every element
of a refinement is a product of irreducibles of one signature over the
polynomials it recorded, hence of one signature over the inputs, because an
input's exponents are sums of its factors' with positive weights.  So
grouping elements by signature over the inputs groups the irreducibles by
that signature, and every correct refinement ends at the same basis, the
products of the irreducibles grouped by signature.  When every input is
registered whole no two elements share a signature and the merge changes
nothing.
"""

from __future__ import annotations

from .poly import MultiPoly, _exact_quotient, _images_coprime, poly_gcd, squarefree_parts
from .ratfunc import RationalFunction
from .scalars import FieldElement


class CoprimeBasis:
    """A pairwise-coprime set of monic squarefree non-constant polynomials."""

    def __init__(self):
        self.elements: list[MultiPoly] = []
        # records of the inputs and of their factors, kept up to date by
        # every split; `_inputs` orders the inputs' keys for the merge
        self._records: dict[MultiPoly, dict[MultiPoly, int]] = {}
        self._inputs: dict[MultiPoly, None] = {}
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
                i += 1
                if _images_coprime(b, g):
                    continue
                quotient = g.divide_exact(b)
                if quotient is not None:
                    record[b] = k
                    g = quotient
                    continue
                d = poly_gcd(b, g)
                if d.is_constant():
                    continue
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

    def add(self, p: MultiPoly, factors: dict[MultiPoly, int] | None = None):
        """Refine the basis so p factors over it; p nonzero.

        `factors` maps monic non-constant polynomials to multiplicities
        whose product is p up to a unit; the basis refines them instead of
        p, and records p as the sum of their records."""
        if self._index is not None:
            raise RuntimeError("basis is frozen after sorting")
        if p.is_zero():
            raise ValueError("cannot register zero")
        if factors is not None and p.total_degree() != sum(
            k * f.total_degree() for f, k in factors.items()
        ):
            raise ValueError(f"the factors given do not multiply to {p}")
        if factors and len(factors) == 1 and 1 in factors.values():
            monic = next(iter(factors))  # a one-factor map holds p's monic part
        else:
            monic = p.primitive_monic()[1]
        self._inputs[monic] = None
        if factors is None or monic in self._records:
            self._record(monic)
            return
        for f in factors:
            self._record(f)
        if monic not in self._records:
            # read after every factor is in: a later factor may have split
            # elements of an earlier one's record
            record: dict[MultiPoly, int] = {}
            for f, k in factors.items():
                for b, e in self._records[f].items():
                    record[b] = record.get(b, 0) + k * e
            self._records[monic] = record

    def freeze(self):
        """Merge the elements of equal signature over the inputs, sort them
        into the canonical order, and keep only the inputs' records; no
        further refinement."""
        records = [self._records[p] for p in self._inputs]
        signatures: dict[MultiPoly, list] = {b: [] for b in self.elements}
        for j, record in enumerate(records):
            for b, e in record.items():
                signatures[b].append((j, e))
        groups: dict[tuple, MultiPoly] = {}
        for b in self.elements:
            key = tuple(signatures[b])
            groups[key] = groups[key] * b if key in groups else b
        if len(groups) < len(self.elements):
            merged = {b: groups[tuple(signatures[b])] for b in self.elements}
            records = [{merged[b]: e for b, e in r.items()} for r in records]
            self.elements = list(groups.values())
        self._records = dict(zip(self._inputs, records))
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

    def __len__(self):
        return len(self.elements)
