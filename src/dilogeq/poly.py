"""Sparse multivariate polynomials over Q / Q(i), with exact gcd.

Representation: a fixed, ordered tuple of variable names (the "universe")
plus a dict mapping exponent tuples to nonzero FieldElement coefficients.
The monomial order everywhere is graded lexicographic (total degree first,
then lexicographic on the exponent tuple), which is multiplicative, so
leading terms of products are products of leading terms.  On a polynomial
in one variable that order is the degree, so one-variable division and
inverses modulo a polynomial (`univar_divmod` and the names built on it)
run on the same representation.

Normal form for extracted factors: "primitive monic" means the graded-lex
leading coefficient is 1; over a field that also fixes the content.  Every
unit removed during normalization is handed back to the caller so nothing
is lost.

The gcd is computed by a primitive polynomial-remainder sequence with
content recursion.  In front of it sits a modular-image test that can only
certify coprimality (see `_images_coprime`): each polynomial keeps, per
variable it uses, one univariate image over GF(P) for a fixed prime
P = 1 (mod 4), with i sent to a square root of -1 and the other variables
to fixed residues.  Random inputs are almost always coprime, so this test
answers most calls; `squarefree_parts` uses the same images to certify a
squarefree input.  When a polynomial is primitive in a variable x_k (one
of its coefficients in x_k is a nonzero constant), Gauss's lemma lets the
image in x_k alone decide, and a linear image is tested by evaluating the
other image at its root.  A pair the images cannot certify takes the exact
path, so no verdict depends on P or on the point.  That path serves one
variable too: there every coefficient is a constant, and so is the
content of each remainder.

`squarefree_parts` first takes out the monomial content x^low, read from
the least exponent of each variable: every variable is irreducible and
coprime to the quotient, so a repeated variable (t^10000, or the y^2 in
(3*x^2*y + 2*y)^2) costs no gcd, and Musser's loop sees only the quotient.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .scalars import FieldElement, MINUS_ONE, ONE, ZERO


Exponents = tuple[int, ...]


def _grlex(exp: Exponents):
    return (sum(exp), exp)


def _heap_key(exp: Exponents):
    """Orders a min-heap by descending graded-lex exponent."""
    return (-sum(exp), tuple(-k for k in exp)), exp


class MultiPoly:
    __slots__ = ("universe", "terms", "_hash", "_canon", "_sort_key", "_images", "_complex")

    def __init__(self, universe: tuple[str, ...], terms: dict[Exponents, FieldElement]):
        self.universe = tuple(universe)
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        self._hash = None
        self._canon = None
        self._sort_key = None
        self._images = None
        self._complex = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(universe) -> "MultiPoly":
        return MultiPoly(universe, {})

    @staticmethod
    def const(universe, c: FieldElement) -> "MultiPoly":
        n = len(universe)
        if c.is_zero():
            return MultiPoly(universe, {})
        return MultiPoly(universe, {(0,) * n: c})

    @staticmethod
    def one(universe) -> "MultiPoly":
        return MultiPoly.const(universe, ONE)

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
        return self.is_constant() and self.constant_value().is_one()

    def constant_value(self) -> FieldElement:
        if not self.terms:
            return ZERO
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

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
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
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
        if coeff.is_zero():
            return MultiPoly.zero(self.universe)
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

    def _canonical(self):
        if self._canon is None:
            self._canon = tuple(sorted(self.terms.items(), key=lambda t: _grlex(t[0])))
        return self._canon

    def _modular_images(self) -> "_Images":
        if self._images is None:
            self._images = _reduce_mod_p(self)
        return self._images

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.universe, self._canonical()))
        return self._hash

    def sort_key(self):
        # graded-lex keys are distinct, so reversing the ascending canonical
        # order gives the descending one
        if self._sort_key is None:
            self._sort_key = (
                self.total_degree(),
                tuple((e, c.sort_key()) for e, c in reversed(self._canonical())),
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
        idx = self.universe.index(var)
        d = self.degree_in(var)
        out = {
            tuple(0 if i == idx else x for i, x in enumerate(e)): c
            for e, c in self.terms.items()
            if e[idx] == d
        }
        return MultiPoly(self.universe, out)

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
        pos = {v: i for i, v in enumerate(self.universe)}
        perm = [pos.get(mapping.get(v, v)) for v in self.universe]
        if not mapping.keys() <= pos.keys() or set(perm) != set(pos.values()):
            raise ValueError(f"renaming {mapping} is not a permutation of {self.universe}")
        out: dict[Exponents, FieldElement] = {}
        for e, c in self.terms.items():
            ne = [0] * len(e)
            for i, k in enumerate(e):
                ne[perm[i]] = k
            out[tuple(ne)] = c
        return MultiPoly(self.universe, out)

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
        inv = lc.inverse()
        return lc, self.map_coeffs(lambda c: c * inv)

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
        if not self.terms:
            return "0"
        pieces = []
        for e, c in sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True):
            mono = "*".join(
                (v if k == 1 else f"{v}^{k}")
                for v, k in zip(self.universe, e)
                if k
            )
            pieces.append(_format_term(c, mono))
        text = pieces[0]
        for p in pieces[1:]:
            if p.startswith("-"):
                text += " - " + p[1:]
            else:
                text += " + " + p
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


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


# ---------------------------------------------------------------------------
# univariate division (polynomials in one variable, on MultiPoly itself)
# ---------------------------------------------------------------------------


def univar_divmod(p: MultiPoly, d: MultiPoly, var: str) -> tuple[MultiPoly, MultiPoly]:
    """(q, r) with p = q*d + r and deg r < deg d, for p and a nonzero d
    in `var` alone.  Graded-lex order on one variable is the degree, so
    each step cancels the leading term of the remainder."""
    if not set(p.vars_used() + d.vars_used()) <= {var}:
        raise ValueError("polynomial is not univariate in " + var)
    dexp, dc = d.lead_term()
    dcinv = dc.inverse()
    quotient: dict[Exponents, FieldElement] = {}
    r = p
    while r.terms:
        exp, c = r.lead_term()
        shift = tuple(a - b for a, b in zip(exp, dexp))
        if min(shift) < 0:
            break
        quotient[shift] = c * dcinv
        r = r - d.mul_term(shift, quotient[shift])
    return MultiPoly(p.universe, quotient), r


def univar_rem(p: MultiPoly, m: MultiPoly, var: str) -> MultiPoly:
    return univar_divmod(p, m, var)[1]


def univar_inverse_mod(p: MultiPoly, m: MultiPoly, var: str) -> MultiPoly:
    """Inverse of p modulo m; raises ValueError when gcd(p, m) != 1.

    Extended Euclid keeps s_k with s_k * p = r_k (mod m) along the
    remainders r_k of m and p; the last nonzero r_k is the gcd."""
    r0, r1 = m, univar_rem(p, m, var)
    s0, s1 = MultiPoly.zero(p.universe), MultiPoly.one(p.universe)
    while not r1.is_zero():
        q, r = univar_divmod(r0, r1, var)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if not r0.is_constant():
        raise ValueError("element not invertible modulo " + str(m))
    return univar_rem(s0.scale(r0.constant_value().inverse()), m, var)


# ---------------------------------------------------------------------------
# modular images
# ---------------------------------------------------------------------------

_P = 2**61 - 31  # prime, = 1 (mod 4)
_I_IMAGE = pow(7, (_P - 1) // 4, _P)  # 7 is a non-residue mod P: this squares to -1


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


class _Images:
    """One polynomial's images over GF(P), computed once (`_reduce_mod_p`).

    `images[k]` is the image in GF(P)[x_k] for every variable index k the
    polynomial uses, or None when unusable; `primitive` holds the k with a
    usable image for which it is x_k-primitive (`_reduce_mod_p` gives the
    test); `roots[k]` is the root in GF(P) of each usable image of degree 1.
    """

    __slots__ = ("images", "primitive", "roots")

    def __init__(self, images, primitive=(), roots=None):
        self.images: dict[int, list[int] | None] = images
        self.primitive: tuple[int, ...] = primitive
        self.roots: dict[int, int] = roots or {}


def _reduce_mod_p(p: MultiPoly) -> _Images:
    """p's images: for every variable index k that p uses, the image of p in
    GF(P)[x_k], with the fixed residues substituted for the other variables
    and coefficients listed from degree 0 up.  An image is None, unusable,
    when P divides a coefficient's denominator or when it has lower degree
    than p has in x_k.

    The same pass finds the x_k-primitive variables: p is x_k-primitive
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
    point = {k: _residue(k) for k in used}
    totals = [sum(e) for e in terms]
    images: dict[int, list[int] | None] = {}
    primitive = []
    roots = {}
    for k in used:
        others = [j for j in used if j != k]
        img = [0] * (high[k] + 1)
        for e, m in reduced:
            for j in others:
                if e[j]:
                    m = m * pow(point[j], e[j], _P) % _P
            img[e[k]] = (img[e[k]] + m) % _P
        if not img[-1]:
            images[k] = None
            continue
        images[k] = img
        # a term of total degree d and degree d in x_k is x_k^d itself, and
        # every term is one when p uses x_k alone
        degrees = [e[k] for e in terms]
        if not others or any(t == d and degrees.count(d) == 1 for t, d in zip(totals, degrees)):
            primitive.append(k)
        if len(img) == 2:
            roots[k] = -img[0] * pow(img[1], -1, _P) % _P
    return _Images(images, tuple(primitive), roots)


def _gf_coprime(a: list[int], b: list[int]) -> bool:
    """Whether two polynomials over GF(P) with nonzero leading coefficients
    have a constant gcd (Euclid's algorithm).  Each step scales the
    dividend by the divisor's leading coefficient, a unit, instead of
    dividing by it: the gcd is the same and no inverse is taken."""
    a, b = list(a), list(b)
    while b:
        lb = b[-1]
        db = len(b) - 1
        while len(a) > db:
            f = a.pop()
            shift = len(a) - db
            a = [c * lb % _P for c in a]
            for j in range(db):
                a[shift + j] = (a[shift + j] - f * b[j]) % _P
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _gf_value(a: list[int], r: int) -> int:
    """a(r) over GF(P), by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = (v * r + c) % _P
    return v


def _images_coprime_in(ip: _Images, iq: _Images, k: int) -> bool:
    """Whether the usable images in x_k have a constant gcd.  A linear
    image divides the other exactly when the other vanishes at its root."""
    r = ip.roots.get(k)
    if r is not None:
        return _gf_value(iq.images[k], r) != 0
    r = iq.roots.get(k)
    if r is not None:
        return _gf_value(ip.images[k], r) != 0
    return _gf_coprime(ip.images[k], iq.images[k])


def _images_coprime(p: MultiPoly, q: MultiPoly) -> bool:
    """True only when p and q are coprime; False means "unknown".

    Inputs with no common variable pass with no work.  When p or q is
    x_k-primitive for a variable x_k they share and both images in x_k are
    usable, that one variable decides: the images certify the pair when
    they are coprime over GF(P).  Of several such variables the one with
    the lowest-degree image is taken, so a linear image, whose root test is
    one Horner pass, comes first.  Otherwise the images certify the pair
    when, for every shared variable, both are usable and coprime.

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
    """
    ip, iq = p._modular_images(), q._modular_images()
    decisive = [k for k in ip.primitive if iq.images.get(k) is not None]
    decisive += [k for k in iq.primitive if ip.images.get(k) is not None]
    if decisive:
        k = min(decisive, key=lambda k: min(len(ip.images[k]), len(iq.images[k])))
        return _images_coprime_in(ip, iq, k)
    for k in ip.images.keys() & iq.images.keys():
        if ip.images[k] is None or iq.images[k] is None:
            return False
        if not _images_coprime_in(ip, iq, k):
            return False
    return True


def _gf_squarefree(img: list[int]) -> bool:
    """Whether a polynomial over GF(P) is coprime to its derivative; a
    linear one always is."""
    if len(img) == 2:
        return True
    return _gf_coprime(img, [k * c % _P for k, c in enumerate(img)][1:])


def _images_squarefree(p: MultiPoly) -> bool:
    """True only when p is squarefree; False means "unknown".

    When p is x_k-primitive and its image in x_k is usable, that image
    decides: p is certified when the image is squarefree over GF(P), which
    a linear image always is.  Otherwise every image must be usable and
    squarefree.  If p = d^2 * a with d of positive degree in x_k, the
    argument of `_images_coprime` makes the image of p in x_k the square of
    the image of d, which keeps its positive degree, times the image of a;
    the image is then not squarefree.  If p is x_k-primitive, every
    non-constant d has positive degree in x_k, so x_k alone suffices.
    """
    rec = p._modular_images()
    if rec.primitive:
        k = min(rec.primitive, key=lambda k: len(rec.images[k]))
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


def _content_pp(p: MultiPoly, var: str) -> tuple[MultiPoly, MultiPoly]:
    """p = content * pp with content free of `var`, pp primitive in `var`."""
    coeffs = list(p.coeffs_in(var).values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        cont = poly_gcd(cont, c)
    if cont.is_constant():
        one = MultiPoly.one(p.universe)
        return one, p
    _, cont = cont.primitive_monic()
    return cont, _exact_quotient(p, cont)


def _prem(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly:
    db = b.degree_in(var)
    lb = b.lead_coeff_in(var)
    idx = a.universe.index(var)
    n = len(a.universe)
    while not a.is_zero() and a.degree_in(var) >= db:
        da = a.degree_in(var)
        la = a.lead_coeff_in(var)
        shift = tuple((da - db) if i == idx else 0 for i in range(n))
        a = lb * a - (la * b).mul_term(shift, ONE)
    return a


def _pp_gcd(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly:
    """gcd of two polynomials primitive in var, both of positive var-degree."""
    if _images_coprime(a, b):
        return MultiPoly.one(a.universe)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while not b.is_zero():
        r = _prem(a, b, var)
        if not r.is_zero():
            _, r = _content_pp(r, var)
            _, r = r.primitive_monic()
        a, b = b, r
    if a.degree_in(var) == 0:
        return MultiPoly.one(a.universe)
    _, a = _content_pp(a, var)
    _, a = a.primitive_monic()
    return a


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
    pv, qv = set(p.vars_used()), set(q.vars_used())
    var = next(v for v in p.universe if v in pv or v in qv)
    if var not in pv:
        cont, _ = _content_pp(q, var)
        return poly_gcd(p, cont)
    if var not in qv:
        cont, _ = _content_pp(p, var)
        return poly_gcd(cont, q)
    cp, ap = _content_pp(p, var)
    cq, aq = _content_pp(q, var)
    cg = poly_gcd(cp, cq)
    g = _pp_gcd(ap, aq, var)
    return (cg * g).primitive_monic()[1]


def squarefree_parts(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Decompose a nonconstant p as unit * prod g_k^k, in ascending k.

    The g_k are monic, squarefree, pairwise coprime, and there is one per
    multiplicity k.  The monomial content x^low (low_v the least exponent
    of v in any term) comes out first: each variable is irreducible and
    coprime to p / x^low, so x_v joins that quotient's part of multiplicity
    low_v, and a power of a variable needs no gcd at all.
    """
    _, p = p.primitive_monic()
    if p.is_constant():
        return []
    low = tuple(map(min, zip(*p.terms)))
    if any(low):
        # shifting every exponent by low keeps the graded-lex leader: the
        # quotient is monic and has no monomial content
        rest = MultiPoly(
            p.universe,
            {tuple(a - b for a, b in zip(e, low)): c for e, c in p.terms.items()},
        )
        parts = {k: g for g, k in squarefree_parts(rest)}
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
