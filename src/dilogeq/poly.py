"""Sparse multivariate polynomials over Q / Q(i), with exact gcd.

Representation: a fixed, ordered tuple of variable names (the "universe")
plus a dict mapping exponent tuples to nonzero FieldElement coefficients.
The monomial order everywhere is graded lexicographic (total degree first,
then lexicographic on the exponent tuple), which is multiplicative, so
leading terms of products are products of leading terms.

Normal form for extracted factors: "primitive monic" means the graded-lex
leading coefficient is 1; over a field that also fixes the content.  Every
unit removed during normalization is handed back to the caller so nothing
is lost.

No gcd runs a remainder sequence.  `poly_gcd` tries four things in turn.
First a modular-image test, which can only certify coprimality (see
`_images_coprime`): each polynomial keeps, per variable it uses, one
univariate image over GF(P) for a fixed prime P = 1 (mod 4) below 2^30,
so that each residue is one CPython digit, with i sent to a square
root of -1 and the other variables to fixed residues.  Random inputs are
almost always coprime, so this test answers most calls; `squarefree_parts`
uses the same images to certify a squarefree input.  Each polynomial's
images also name its decisive variable, one x_k in which it is primitive
(one of its coefficients in x_k is a nonzero constant): Gauss's lemma lets
the image in x_k alone decide.  A pair of images of degree at most 2, or a
quadratic image's squarefree test, is one closed-form resultant; a linear
image against a longer one is tested by evaluating the other at its root,
and only the rest run Euclid over GF(P).  One pair test
(`_images_coprime`) serves every caller.  Then the monomial content:
gcd(p, q) = x^min(lp, lq) * gcd(p / x^lp, q / x^lq), lp and lq the least
exponents of each variable, since every variable is irreducible and
divides neither quotient; the common single-variable gcds (x of 3x^2y - xy
and xy^2 - 3x^2) end there.  Then exact division, since in a pair the
images leave open one side often divides the other (x - 1 and x^2 - 1).
What is still open goes to Brown's modular gcd over Z[i] (`modular`,
loaded on the first such pair), whose candidate is kept only when it
divides both inputs, so no verdict depends on P, on the primes or on the
points.

Images are reduced once per value.  They are a function of a polynomial's
terms and universe, the two things equality compares, so equal polynomials
share one `_Images` record: `_modular_images` looks an equal live
polynomial up in a weak table before it reduces.  The table holds no
polynomial alive, and the images only ever certify, so sharing them moves
no verdict.  Terms reuse a few factors many times, and a basis element, a
quotient or a squarefree part is often equal to a polynomial whose images
are already known.

`squarefree_parts` first takes out the monomial content x^low, read from
the least exponent of each variable: every variable is irreducible and
coprime to the quotient, so a repeated variable (t^10000, or the y^2 in
(3*x^2*y + 2*y)^2) costs no gcd, and Musser's loop sees only the quotient.
"""

from __future__ import annotations

import heapq
import weakref
from functools import cache
from math import lcm
from typing import Callable

from .scalars import FieldElement, MINUS_ONE, ONE, ZERO


Exponents = tuple[int, ...]


def _grlex(exp: Exponents):
    return (sum(exp), exp)


def _heap_key(exp: Exponents):
    """Orders a min-heap by descending graded-lex exponent."""
    return (-sum(exp), tuple(-k for k in exp)), exp


class MultiPoly:
    __slots__ = (
        "universe", "terms", "_lead", "_hash", "_sort_key", "_images", "_complex", "_monic",
        "__weakref__",
    )

    def __init__(self, universe: tuple[str, ...], terms: dict[Exponents, FieldElement]):
        self.universe = tuple(universe)
        # `terms` is assigned here only, so every cache below stays exact
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        self._lead = None
        self._hash = None
        self._sort_key = None
        self._images = None
        self._complex = None
        self._monic = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(universe) -> "MultiPoly":
        return MultiPoly(universe, {})

    @staticmethod
    def const(universe, c: FieldElement) -> "MultiPoly":
        return MultiPoly(universe, {(0,) * len(universe): c})

    @staticmethod
    def one(universe) -> "MultiPoly":
        """The polynomial 1, one shared object per universe, so that its
        hash, sort key and images are computed once."""
        return _one(tuple(universe))

    @staticmethod
    def var(universe, name: str) -> "MultiPoly":
        universe = tuple(universe)
        idx = universe.index(name)
        exp = tuple(1 if i == idx else 0 for i in range(len(universe)))
        return MultiPoly(universe, {exp: ONE})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        # terms holds no zero coefficient, so a constant has at most one
        # term, and its exponent is zero
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    def is_one(self) -> bool:
        # one term, the coefficient 1 at the zero exponent
        return len(self.terms) == 1 and self.terms.get((0,) * len(self.universe), ZERO).is_one()

    def constant_value(self) -> FieldElement:
        if not self.terms:
            return ZERO
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return sum(self.lead_term()[0])

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        idx = self.universe.index(var)
        return max(e[idx] for e in self.terms)

    def vars_used(self) -> tuple[str, ...]:
        used = [False] * len(self.universe)
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used[i] = True
        return tuple(v for v, u in zip(self.universe, used) if u)

    def lead_term(self) -> tuple[Exponents, FieldElement]:
        e = self._lead
        if e is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            e = self._lead = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def lead_coeff(self) -> FieldElement:
        return self.lead_term()[1]

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.universe != other.universe:
            raise ValueError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return MultiPoly(self.universe, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = -c if s is None else s - c
        return MultiPoly(self.universe, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.universe, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[Exponents, FieldElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
        return MultiPoly(self.universe, out)

    def mul_term(self, exp: Exponents, coeff: FieldElement) -> "MultiPoly":
        return MultiPoly(
            self.universe,
            {
                tuple(a + b for a, b in zip(e, exp)): c * coeff
                for e, c in self.terms.items()
            },
        )

    def scale(self, coeff: FieldElement) -> "MultiPoly":
        zero_exp = (0,) * len(self.universe)
        return self.mul_term(zero_exp, coeff)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 1:
            return self
        out = MultiPoly.one(self.universe)
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def map_coeffs(self, fn: Callable[[FieldElement], FieldElement]) -> "MultiPoly":
        return MultiPoly(self.universe, {e: fn(c) for e, c in self.terms.items()})

    def conjugate_coeffs(self) -> "MultiPoly":
        return self.map_coeffs(lambda c: c.conjugate())

    def derivative(self, var: str) -> "MultiPoly":
        idx = self.universe.index(var)
        out: dict[Exponents, FieldElement] = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k:
                ne = tuple(x - 1 if i == idx else x for i, x in enumerate(e))
                nc = c.scale(k)
                s = out.get(ne)
                out[ne] = nc if s is None else s + nc
        return MultiPoly(self.universe, out)

    # -- equality / hashing / ordering ---------------------------------

    def _modular_images(self) -> "_Images":
        """The images, shared by every equal live polynomial: they are a
        function of the terms and the universe, which equality compares, so
        one reduction serves every copy of a value."""
        if self._images is None:
            images = _SHARED_IMAGES.get(self)
            if images is None:
                images = _SHARED_IMAGES[self] = _reduce_mod_p(self)
            self._images = images
        return self._images

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            # the two things __eq__ compares, the terms as an unordered set
            self._hash = hash((self.universe, frozenset(self.terms.items())))
        return self._hash

    def _descending(self) -> list[Exponents]:
        """The exponents in descending graded-lex order, the order of
        `sort_key` and `__str__`."""
        return sorted(self.terms, key=_grlex, reverse=True)

    def sort_key(self):
        if self._sort_key is None:
            self._sort_key = (
                self.total_degree(),
                tuple((e, self.terms[e].sort_key()) for e in self._descending()),
            )
        return self._sort_key

    # -- views ----------------------------------------------------------

    def coeffs_in(self, var: str) -> dict[int, "MultiPoly"]:
        """View the polynomial in `var` with coefficients free of `var`."""
        idx = self.universe.index(var)
        out: dict[int, dict[Exponents, FieldElement]] = {}
        for e, c in self.terms.items():
            k = e[idx]
            ne = tuple(0 if i == idx else x for i, x in enumerate(e))
            out.setdefault(k, {})[ne] = c
        return {k: MultiPoly(self.universe, d) for k, d in out.items()}

    def lead_coeff_in(self, var: str) -> "MultiPoly":
        coeffs = self.coeffs_in(var)
        return coeffs[max(coeffs)] if coeffs else self

    # -- evaluation / substitution ---------------------------------------

    def evaluate(self, assignment: dict[str, FieldElement]) -> FieldElement:
        """The exact value at a point, which must assign every variable the
        polynomial uses (ValueError otherwise)."""
        values = [assignment.get(v) for v in self.universe]
        total = ZERO
        for e, c in self.terms.items():
            for name, val, k in zip(self.universe, values, e):
                if k:
                    if val is None:
                        raise ValueError(f"the point assigns no value to {name}")
                    c = c * val**k
            total = total + c
        return total

    def eval_numeric(self, point: dict[str, complex]) -> complex:
        # the coefficients as complex numbers, each with the (variable,
        # exponent) pairs of its monomial, converted once per polynomial
        if self._complex is None:
            self._complex = tuple(
                (c.to_complex(), tuple((name, k) for name, k in zip(self.universe, e) if k))
                for e, c in self.terms.items()
            )
        total = 0j
        for v, monomial in self._complex:
            for name, k in monomial:
                v *= point[name] ** k
            total += v
        return total

    def with_universe(self, new_universe: tuple[str, ...]) -> "MultiPoly":
        """Re-express over a different universe; dropped vars must be unused."""
        new_universe = tuple(new_universe)
        pos = {v: i for i, v in enumerate(new_universe)}
        n = len(new_universe)
        out: dict[Exponents, FieldElement] = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for name, k in zip(self.universe, e):
                if k:
                    if name not in pos:
                        raise ValueError(f"variable {name} still used")
                    ne[pos[name]] = k
            key = tuple(ne)
            s = out.get(key)
            out[key] = c if s is None else s + c
        return MultiPoly(new_universe, out)

    def rename_vars(self, mapping: dict[str, str]) -> "MultiPoly":
        """Permute variables within the same universe: each name v becomes
        mapping.get(v, v).  Raises ValueError unless that is a permutation
        of the universe, so no two variables are merged."""
        renamed = tuple(mapping.get(v, v) for v in self.universe)
        if not mapping.keys() <= set(self.universe) or set(renamed) != set(self.universe):
            raise ValueError(f"renaming {mapping} is not a permutation of {self.universe}")
        return MultiPoly(renamed, self.terms).with_universe(self.universe)

    # -- normal forms -----------------------------------------------------

    def primitive_monic(self) -> tuple[FieldElement, "MultiPoly"]:
        """Split into (unit, monic) with unit * monic == self.

        The unit is the graded-lex leading coefficient; the monic part has
        leading coefficient 1.  Zero splits as (1, 0).
        """
        if not self.terms:
            return ONE, self
        lc = self.lead_coeff()
        if lc.is_one():
            return ONE, self
        if self._monic is None:
            # kept, so every caller shares one monic object and its hash
            inv = lc.inverse()
            self._monic = self.map_coeffs(lambda c: c * inv)
        return lc, self._monic

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Exact quotient, or None when the division does not come out even."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if divisor.is_constant():
            return self.scale(divisor.constant_value().inverse())
        if self.is_zero():
            return self
        dexp, dc = divisor.lead_term()
        dcinv = dc.inverse()
        tail = [(e, c) for e, c in divisor.terms.items() if e != dexp]
        # The remainder's exponents sit in a heap, largest first.  Each step
        # cancels the lead and adds only smaller exponents (the order is
        # multiplicative), so a popped exponent never returns and every key
        # of `rem` has exactly one heap entry; cancelled keys stay as zeros.
        rem = dict(self.terms)
        heap = [_heap_key(e) for e in rem]
        heapq.heapify(heap)
        out: dict[Exponents, FieldElement] = {}
        while heap:
            nexp = heapq.heappop(heap)[1]
            nc = rem.pop(nexp)
            if nc.is_zero():
                continue
            qe = tuple(a - b for a, b in zip(nexp, dexp))
            if any(x < 0 for x in qe):
                return None
            qc = nc * dcinv
            out[qe] = qc
            for e, c in tail:
                ne = tuple(a + b for a, b in zip(e, qe))
                s = rem.get(ne)
                if s is None:
                    rem[ne] = -(c * qc)
                    heapq.heappush(heap, _heap_key(ne))
                else:
                    rem[ne] = s - c * qc
        return MultiPoly(self.universe, out)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        pieces = []
        for e in self._descending():
            mono = "*".join(
                (v if k == 1 else f"{v}^{k}")
                for v, k in zip(self.universe, e)
                if k
            )
            pieces.append(_format_term(self.terms[e], mono))
        return join_signed(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def join_signed(pieces) -> str:
    """The sum of the term texts `pieces`: " - " before a piece that starts
    with "-", " + " before any other, and "0" when there is none."""
    first, *rest = list(pieces) or ["0"]
    return first + "".join(" - " + p[1:] if p.startswith("-") else " + " + p for p in rest)


def _coeff_str(c: FieldElement) -> str:
    """Render a coefficient; mixed Gaussian values get parenthesized."""
    return f"({c})" if c.a and c.b else str(c)


def _format_term(c: FieldElement, mono: str) -> str:
    if not mono:
        return _coeff_str(c)
    if c.is_one():
        return mono
    if c == MINUS_ONE:
        return "-" + mono
    return _coeff_str(c) + "*" + mono


@cache
def _one(universe: tuple[str, ...]) -> MultiPoly:
    return MultiPoly.const(universe, ONE)


# ---------------------------------------------------------------------------
# modular images
# ---------------------------------------------------------------------------

# a prime = 1 (mod 12) below 2^30: a residue is one CPython digit and a
# product of two is two, so every `%` divides by a single digit
_P = 2**30 - 135
_I_IMAGE = pow(7, (_P - 1) // 4, _P)  # 7 is a non-residue mod P: this squares to -1


@cache
def _residue(k: int) -> int:
    """The value of the universe's k-th variable in every image."""
    return pow(k + 2, 61, _P)


def _coeff_mod_p(c: FieldElement) -> int | None:
    """c at the prime (P, i - _I_IMAGE) of Z[i]; None when P divides a denominator.

    c's shared denominator d is the lcm of its parts' reduced denominators,
    so P divides d exactly when P divides one of them.
    """
    out = c.a + c.b * _I_IMAGE
    d = c.d
    if d == 1:
        return out % _P
    if d % _P == 0:
        return None
    return out * pow(d, -1, _P) % _P


# p -> p's images, for every live polynomial whose images were reduced; the
# weak keys keep no polynomial alive
_SHARED_IMAGES: weakref.WeakKeyDictionary[MultiPoly, "_Images"] = weakref.WeakKeyDictionary()


class _Images:
    """One polynomial's images over GF(P), computed once (`_reduce_mod_p`).

    `images[k]` is the image in GF(P)[x_k] for every variable index k the
    polynomial uses, or None when unusable; `decisive` is the k with a
    usable image for which it is x_k-primitive (`_reduce_mod_p` gives the
    test), the one with the lowest-degree image and the lowest k on a tie,
    or None.
    """

    __slots__ = ("images", "decisive")

    def __init__(self, images, decisive=None):
        self.images: dict[int, list[int] | None] = images
        self.decisive: int | None = decisive


def _reduce_mod_p(p: MultiPoly) -> _Images:
    """p's images: for every variable index k that p uses, the image of p in
    GF(P)[x_k], with the fixed residues substituted for the other variables
    and coefficients listed from degree 0 up.  An image is None, unusable,
    when P divides a coefficient's denominator or when it has lower degree
    than p has in x_k.

    The same pass finds the decisive variable: p is x_k-primitive
    when, for some j, x_k^j itself is p's only term of degree j in x_k.
    Its coefficient in K[other variables][x_k] is then a nonzero constant,
    so no divisor of p free of x_k is more than a constant.  A lone x_k^j
    term or a constant term is not enough on its own: (y + 2)*(x + 1) has
    both, and y + 2 divides it.
    """
    terms = p.terms
    high = list(map(max, zip(*terms)))  # p's degree in each variable
    used = [k for k, d in enumerate(high) if d]
    reduced = []
    for e, c in terms.items():
        m = _coeff_mod_p(c)
        if m is None:
            return _Images(dict.fromkeys(used))
        reduced.append((e, m))
    # powers[k][j] is the residue of x_k^j
    powers = {}
    for k in used:
        r, table = _residue(k), [1]
        for _ in range(high[k]):
            table.append(table[-1] * r % _P)
        powers[k] = table
    totals = [sum(e) for e in terms]
    images: dict[int, list[int] | None] = {}
    decisive = None
    for k in used:
        others = [(j, powers[j]) for j in used if j != k]
        img = [0] * (high[k] + 1)
        for e, m in reduced:
            for j, table in others:
                m *= table[e[j]]
            img[e[k]] += m
        img = [c % _P for c in img]
        if not img[-1]:
            images[k] = None
            continue
        images[k] = img
        # alone[j]: x_k^j is p's only term of degree j in x_k; a term of
        # total degree j and degree j in x_k is x_k^j itself
        alone = {}
        for e, t in zip(terms, totals):
            j = e[k]
            alone[j] = j == t and j not in alone
        if any(alone.values()) and (decisive is None or len(img) < len(images[decisive])):
            decisive = k
    return _Images(images, decisive)


def gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd over GF(p), up to a unit, of two polynomials with nonzero
    leading coefficients (Euclid's algorithm).  Each step scales the
    dividend by the divisor's leading coefficient, a unit, instead of
    dividing by it: the gcd is the same and no inverse is taken."""
    a, b = list(a), list(b)
    while b:
        lb = b[-1]
        db = len(b) - 1
        while len(a) > db:
            f = a.pop()
            shift = len(a) - db
            a = [c * lb % p for c in a]
            for j in range(db):
                a[shift + j] = (a[shift + j] - f * b[j]) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return a


def _gf_coprime(a: list[int], b: list[int]) -> bool:
    """Whether two polynomials over GF(P) with nonzero leading coefficients
    have a constant gcd.  With those leaders the gcd is constant exactly
    when the resultant is nonzero; two quadratics take their resultant,
    (a2*b0 - a0*b2)^2 - (a2*b1 - a1*b2)*(a1*b0 - a0*b1), and any other
    pair takes Euclid."""
    if len(a) == len(b) == 3:
        a0, a1, a2 = a
        b0, b1, b2 = b
        return ((a2 * b0 - a0 * b2) ** 2 - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1)) % _P != 0
    return len(gf_gcd(a, b, _P)) == 1


def _images_coprime_in(ip: _Images, iq: _Images, k: int) -> bool:
    """Whether the usable images in x_k have a constant gcd.  A linear
    image a0 + a1*x divides the other, b, exactly when b vanishes at its
    root -a0/a1, that is when a1^deg(b) * b(-a0/a1) = 0: Horner's rule on
    b homogenized gives that with no inverse.  Unrolled, that is
    a0*b1 - a1*b0 for a linear b and b2*a0^2 - b1*a0*a1 + b0*a1^2 for a
    quadratic one."""
    a, b = ip.images[k], iq.images[k]
    if len(b) < len(a):
        a, b = b, a
    if len(a) != 2:
        return _gf_coprime(a, b)
    a0, a1 = a
    if len(b) == 2:
        return (a0 * b[1] - a1 * b[0]) % _P != 0
    if len(b) == 3:
        b0, b1, b2 = b
        return (b2 * a0 * a0 - b1 * a0 * a1 + b0 * a1 * a1) % _P != 0
    t, v, w = -a0, 0, 1
    for c in reversed(b):
        v = (v * t + c * w) % _P
        w = w * a1 % _P
    return v != 0


def _images_coprime(p: MultiPoly, q: MultiPoly) -> bool:
    """True only when the nonzero p and q are coprime; False means "unknown".

    Each side's decisive variable x_k is tried in turn.  Every non-constant
    divisor of an x_k-primitive polynomial uses x_k, so the pair passes at
    once when the other side is free of x_k.  When the other side's image
    in x_k is usable, that one variable decides: the images certify the
    pair when they are coprime over GF(P).  A candidate with a linear
    image, whose root test is one expression, is tested at once; otherwise
    the first candidate goes to `_gf_coprime`.  With no candidate the images
    certify the pair when, for every shared variable, both are usable and
    coprime; inputs with no common variable pass with no work.

    Soundness.  Let R be Z[i] localized at the prime (P, i - s), s =
    _I_IMAGE: a discrete valuation ring with residue field GF(P), i -> s.
    A usable image means p's coefficients lie in R.  Suppose d divides p
    and q, has positive degree in x_k, and is scaled to be primitive over
    R.  By Gauss's lemma p = d * a with a over R too, so the image of p in
    x_k is the image of d times the image of a.  Images never gain degree,
    and the image of p keeps deg_k p = deg_k d + deg_k a, so the image of d
    keeps its positive degree.  It divides both images, whose gcd is then
    not constant.
    - One variable: if p is x_k-primitive, every non-constant divisor of p
      has positive degree in x_k, so a common factor d would show in x_k.
    - Every shared variable: a non-constant d has positive degree in some
      variable, which p and q both use, and shows there.
    So an unlucky P or point can only answer False, which sends the pair
    to the exact gcd; the verdict never depends on them.  Every pair that
    the test of all shared variables certifies, the one-variable test
    certifies too.

    Nothing above uses the size of P.  Coprime p and q whose images still
    share a root need P to divide a fixed nonzero resultant, about
    deg*deg/P ~ 10^-8 of pairs at P below 2^30, and that costs time only.
    P is chosen that small so that every residue is one CPython digit.
    """
    ip, iq = p._modular_images(), q._modular_images()
    first = None
    for ia, ib in ((ip, iq), (iq, ip)):
        k = ia.decisive
        if k is None:
            continue
        if k not in ib.images:
            return True
        if ib.images[k] is not None:
            if len(ia.images[k]) == 2 or len(ib.images[k]) == 2:
                return _images_coprime_in(ip, iq, k)
            if first is None:
                first = k
    if first is not None:
        return _gf_coprime(ip.images[first], iq.images[first])
    for k in ip.images.keys() & iq.images.keys():
        if ip.images[k] is None or iq.images[k] is None:
            return False
        if not _images_coprime_in(ip, iq, k):
            return False
    return True


def _gf_squarefree(img: list[int]) -> bool:
    """Whether a polynomial over GF(P) is coprime to its derivative.  A
    linear one always is; a quadratic c0 + c1*x + c2*x^2 is when its
    discriminant c1^2 - 4*c0*c2 is nonzero, since its resultant with the
    derivative is -c2 times that and c2 is nonzero."""
    if len(img) == 2:
        return True
    if len(img) == 3:
        c0, c1, c2 = img
        return (c1 * c1 - 4 * c0 * c2) % _P != 0
    return _gf_coprime(img, [k * c % _P for k, c in enumerate(img)][1:])


def _images_squarefree(p: MultiPoly) -> bool:
    """True only when p is squarefree; False means "unknown".

    When p has a decisive variable x_k, its image in x_k decides: p is
    certified when the image is squarefree over GF(P), which a linear
    image always is.  Otherwise every image must be usable and squarefree.
    If p = d^2 * a with d of positive degree in x_k, the argument of
    `_images_coprime` makes the image of p in x_k the square of the image
    of d, which keeps its positive degree, times the image of a; the image
    is then not squarefree.  If p is x_k-primitive, every non-constant d
    has positive degree in x_k, so x_k alone suffices.
    """
    rec = p._modular_images()
    k = rec.decisive
    if k is not None:
        return _gf_squarefree(rec.images[k])
    return all(img is not None and _gf_squarefree(img) for img in rec.images.values())


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def _exact_quotient(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """p / d for a divisor d known to divide p."""
    q = p.divide_exact(d)
    if q is None:
        raise ArithmeticError(f"{d} does not divide {p}")
    return q


def _without_monomial(p: MultiPoly) -> tuple[Exponents, MultiPoly]:
    """(low, p / x^low), low_v the least exponent of v in any term of p.
    Shifting every exponent by low keeps the graded-lex leader, so the
    quotient of a monic p is monic."""
    low = tuple(map(min, zip(*p.terms)))
    if not any(low):
        return low, p
    shifted = {tuple(a - b for a, b in zip(e, low)): c for e, c in p.terms.items()}
    return low, MultiPoly(p.universe, shifted)


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Monic gcd; gcd(0, q) is the monic normal form of q."""
    if p.is_zero():
        return q.primitive_monic()[1]
    if q.is_zero():
        return p.primitive_monic()[1]
    if p.is_constant() or q.is_constant():
        return MultiPoly.one(p.universe)
    if p == q:
        return p.primitive_monic()[1]
    if _images_coprime(p, q):
        return MultiPoly.one(p.universe)
    (lp, p1), (lq, q1) = _without_monomial(p), _without_monomial(q)
    if any(lp) or any(lq):
        # each variable is irreducible and divides neither quotient
        low = tuple(map(min, lp, lq))
        g = poly_gcd(p1, q1)
        return g.mul_term(low, ONE) if any(low) else g
    # a pair the images leave open often has one side dividing the other
    small, large = sorted((p, q), key=MultiPoly.total_degree)
    if large.divide_exact(small) is not None:
        return small.primitive_monic()[1]
    return _modular_gcd(p, q)


def _modular_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """gcd of non-constant p and q: the first candidate of
    `modular.gcd_candidates` that divides both."""
    from .modular import gcd_candidates  # loaded by the first pair that gets this far

    ints = []
    for f in (p, q):
        m = lcm(*(c.d for c in f.terms.values()))  # clears every denominator
        ints.append({e: (c.a * (m // c.d), c.b * (m // c.d)) for e, c in f.terms.items()})
    for candidate in gcd_candidates(*ints):
        g = MultiPoly(p.universe, {e: FieldElement(*c) for e, c in candidate.items()})
        if g.is_one() or p.divide_exact(g) is not None and q.divide_exact(g) is not None:
            return g.primitive_monic()[1]


def squarefree_parts(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Decompose a nonconstant p as unit * prod g_k^k, in ascending k.

    The g_k are monic, squarefree, pairwise coprime, and there is one per
    multiplicity k.  The monomial content x^low (low_v the least exponent
    of v in any term) comes out first: each variable is irreducible and
    coprime to p / x^low, so x_v joins that quotient's part of multiplicity
    low_v, and a power of a variable needs no gcd at all.  When no
    variable is repeated in x^low and the quotient is squarefree, p itself
    is the one part, so its images and hash are not built again.
    """
    _, p = p.primitive_monic()
    if p.is_constant():
        return []
    low, rest = _without_monomial(p)
    if any(low):
        parts = {k: g for g, k in squarefree_parts(rest)}
        if max(low) == 1 and parts.keys() <= {1}:
            return [(p, 1)]  # p = x^low * rest is squarefree already
        for m in set(low) - {0}:
            mono = tuple(int(k == m) for k in low)
            parts[m] = parts.get(m, MultiPoly.one(p.universe)).mul_term(mono, ONE)
        return [(parts[k], k) for k in sorted(parts)]
    # Musser's loop in characteristic zero, using the gcd of p with all its
    # partial derivatives
    if _images_squarefree(p):
        return [(p, 1)]
    g = p
    for v in p.vars_used():
        if g.is_constant():
            break
        g = poly_gcd(g, p.derivative(v))
    if g.is_constant():
        return [(p, 1)]
    _, b = _exact_quotient(p, g).primitive_monic()
    a = g
    out: list[tuple[MultiPoly, int]] = []
    k = 1
    while not b.is_constant():
        c = poly_gcd(a, b)
        _, part = _exact_quotient(b, c).primitive_monic()
        if not part.is_constant():
            out.append((part, k))
        b = c
        _, a = _exact_quotient(a, c).primitive_monic()
        k += 1
    return out
