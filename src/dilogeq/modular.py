"""Brown's modular gcd over Z[i]: what `poly.poly_gcd` runs when the images,
the monomial content and exact division leave a pair open; `poly` loads it
on the first such pair.

Over GF(p), a univariate polynomial is a list of residues from degree 0 up
with a nonzero last entry, as the images of `poly` are, and Euclid's
algorithm is `poly`'s; a multivariate one is a dict {exponents: residue}
with no zero residue.

`gcd_candidates` is Brown's algorithm (W. S. Brown, JACM 18, 1971) in the
number-field form of Monagan and Wittkopf (ISSAC 2000).  It takes two
polynomials with coefficients in Z[i] and yields candidates for their
lex-monic gcd over Q(i); the caller keeps the first one that divides both
inputs.  That exact division, not the choice of primes or points, makes
the result exact; `gcd_candidates` and `_gf_gcd_many` say why a right
candidate comes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt

from .poly import _I_IMAGE, _P, gf_gcd
from .primes import _sqrt_minus_one, is_prime

# the evaluation points of GF(p) are k * _STEP mod p, k = 1, 2, ...: distinct,
# since this prime is above every modulus, and different at every prime
_STEP = 2**64 - 59


def _gf_value(a: list[int], r: int, p: int) -> int:
    """a(r) over GF(p), by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = (v * r + c) % p
    return v


def _gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def _gf_quo(a: list[int], b: list[int], p: int) -> list[int]:
    """a / b over GF(p) for a divisor b."""
    a, db = list(a), len(b) - 1
    inv = pow(b[-1], -1, p)
    out = [0] * (len(a) - db)
    for i in reversed(range(len(out))):
        c = out[i] = a[i + db] * inv % p
        for j in range(db):
            a[i + j] -= c * b[j]
    return out


# -- Brown's dense gcd over GF(p) -------------------------------------------------


def _by_head(a: dict) -> dict:
    """a, in n variables, as {e[:-1]: coefficients in the last variable y}."""
    out = {}
    for e, c in a.items():
        f = out.setdefault(e[:-1], [])
        k = e[-1]
        if k >= len(f):
            f.extend([0] * (k + 1 - len(f)))
        f[k] = c
    return out


def _gf_primitive(a: dict, p: int) -> tuple[list[int], dict]:
    """(content, primitive part) of {head: coefficients in y}: the monic gcd
    of the coefficients, and a divided by it."""
    values = iter(a.values())
    c = next(values)
    for f in values:
        if len(c) == 1:
            break
        c = gf_gcd(c, f, p)
    if len(c) == 1:
        return [1], a
    c = _gf_mul(c, [pow(c[-1], -1, p)], p)
    return c, {h: _gf_quo(f, c, p) for h, f in a.items()}


def _interpolate(points: list, p: int) -> dict:
    """The {head: coefficients in y} that take the values {head: value} at
    each y = t of `points`, of degree below their number (Newton's form,
    one point at a time)."""
    out, q = {}, [1]  # q: the product of y - t over the points so far
    for t, values in points:
        w = pow(_gf_value(q, t, p), -1, p)
        for h in out.keys() | values.keys():
            f = out.get(h, [])
            d = (values.get(h, 0) - _gf_value(f, t, p)) * w % p
            if d:
                f = f + [0] * (len(q) - len(f))
                out[h] = [(x + d * y) % p for x, y in zip(f, q)]
        q = _gf_mul(q, [p - t, 1], p)
    for f in out.values():
        while not f[-1]:
            f.pop()
    return out


def _gf_gcd_many(a: dict, b: dict, p: int) -> dict:
    """The lex-monic gcd over GF(p) of a and b in the same n variables.

    In one variable this is Euclid's algorithm.  In n, a and b are read as
    polynomials in the first n - 1 variables over GF(p)[y], y the last,
    and split into content and primitive part; the gcd of the contents is
    the content of the gcd.  gamma, the gcd of the primitive parts' leading
    coefficients, is a multiple of the leading coefficient of their gcd G.
    At a point y = t with gamma(t) != 0, G(t) keeps G's leading monomial
    and divides both images, so the images' gcd leads with G's monomial or
    above; when it leads with G's, the gcd made monic and scaled by
    gamma(t) is the image of (gamma / lc(G)) * G.  A point that leads below
    the points kept so far replaces them.  deg_y gamma + min(deg_y a,
    deg_y b) + 1 points that lead with G's monomial fix (gamma / lc(G)) * G
    by interpolation, and its primitive part is G.  An image with a
    constant gcd proves G = 1.  When every point used leads above G's
    monomial, the result leads above G and fails the exact division that
    `gcd_candidates` leaves to its caller; the next prime brings other
    points.
    """
    n = len(next(iter(a)))
    if not any(max(a)) or not any(max(b)):
        return {(0,) * n: 1}
    (ca, a), (cb, b) = (_gf_primitive(_by_head(f), p) for f in (a, b))
    c, g = gf_gcd(ca, cb, p), {(0,) * (n - 1): [1]}
    if n > 1:
        gamma = gf_gcd(a[max(a)], b[max(b)], p)
        need = len(gamma) + min(max(map(len, f.values())) for f in (a, b)) - 1
        lead, seen = None, []
        for t in (k * _STEP % p for k in count(1)):
            v = _gf_value(gamma, t, p)
            if not v:
                continue
            at = ({h: x for h, f in F.items() if (x := _gf_value(f, t, p))} for F in (a, b))
            image = _gf_gcd_many(*at, p)
            m = max(image)
            if not any(m):
                break
            if lead is None or m < lead:
                lead, seen = m, []
            elif m > lead:
                continue
            seen.append((t, {h: x * v % p for h, x in image.items()}))
            if len(seen) == need:
                _, g = _gf_primitive(_interpolate(seen, p), p)
                break
    out = {h + (j,): x for h, f in g.items() for j, x in enumerate(_gf_mul(f, c, p)) if x}
    inv = pow(out[max(out)], -1, p)
    return {e: x * inv % p for e, x in out.items()}


# -- over Z[i] -----------------------------------------------------------------------


@cache
def _modulus(k: int) -> tuple[int, int]:
    """The k-th prime p = 1 (mod 4) with a square root of -1 mod p: the
    images' prime P, then the primes below 10^12 in descending order,
    whatever the size of P; cached, so a process searches for each once."""
    if not k:
        return _P, _I_IMAGE
    n = (10**12 + 1 if k == 1 else _modulus(k - 1)[0]) - 4  # 10^12 + 1 = 1 (mod 4)
    while not is_prime(n):
        n -= 4
    return n, _sqrt_minus_one(n)


def _rational(u: int, m: int) -> Fraction | None:
    """The n/d = u (mod m) with |n| and d at most sqrt(m/2), if any (Wang,
    Guy and Davenport, SIGSAM Bull. 16, 1982)."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def gcd_candidates(f: dict, g: dict):
    """Candidates for the lex-monic gcd G over Q(i) of f and g, given as
    {exponents: (a, b)} for the coefficients a + b*i in Z[i], each non-
    constant; each candidate is {exponents: [re, im]} with Fractions.

    Each prime p = 1 (mod 4) maps Z[i] onto GF(p) twice, i -> s and
    i -> -s with s^2 = -1 (only once when f and g are over Z), and
    `_gf_gcd_many` takes the gcd of each pair of images.  A prime that
    drops the lex-leading coefficient of f or g is skipped.  Otherwise G,
    scaled into Z[i][x] and primitive, divides both images with its leading
    coefficient kept, so an image gcd never leads below G: a constant one
    proves G = 1, which is the candidate then, and an image that leads
    above another is dropped.  The images of a prime give a + b*s and
    a - b*s for each coefficient a + b*i of G; the primes are combined by
    CRT and each part is recovered by rational reconstruction.  A candidate
    that divides f and g divides G and leads with G's monomial or above,
    so it is G, whatever primes and points gave it.  Unlucky primes are
    finitely many, and each prime evaluates at other points, so a right
    candidate comes.
    """
    top = [max(h) for h in (f, g)]
    one = (0,) * len(top[0])
    gaussian = any(b for h in (f, g) for _, b in h.values())
    lead, residues, modulus = None, {}, 1
    for k in count():
        prime, s = _modulus(k)
        images = []
        for r in (s, prime - s) if gaussian else (s,):
            a, b = ({e: v for e, (x, y) in h.items() if (v := (x + y * r) % prime)} for h in (f, g))
            if top[0] not in a or top[1] not in b:
                break  # the prime drops a leading coefficient
            images.append(_gf_gcd_many(a, b, prime))
        else:
            leads = {max(h) for h in images}
            if one in leads:
                yield {one: [Fraction(1), Fraction(0)]}
                return
            m = leads.pop()
            if leads or (lead is not None and m > lead):
                continue  # an unlucky image
            if m != lead:
                lead, residues, modulus = m, {}, 1
            u, w = images[0], images[-1]  # the same image over Z
            half, half_s, inv = pow(2, -1, prime), pow(2 * s, -1, prime), pow(modulus, -1, prime)
            for e in residues.keys() | u.keys() | w.keys():
                x, y = u.get(e, 0), w.get(e, 0)
                new = ((x + y) * half, (x - y) * half_s)
                old = residues.get(e, (0, 0))
                residues[e] = tuple(a + modulus * ((b - a) * inv % prime) for a, b in zip(old, new))
            modulus *= prime
            candidate = {e: [_rational(x, modulus) for x in xs] for e, xs in residues.items()}
            if all(None not in c for c in candidate.values()):
                yield candidate
