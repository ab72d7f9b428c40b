"""Brown's modular gcd behind `poly_gcd`, checked without sympy: planted
common factors, monomial content, coefficients that take several primes,
and an expanded input with a cubed factor."""

import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dilogeq import modular, poly
from dilogeq.exprparse import parse_expression
from dilogeq.poly import MultiPoly, poly_gcd
from dilogeq.scalars import fe

from helpers import ROOT, random_poly

XYZ = ("x", "y", "z")


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_planted_trivariate_factors(seed, gaussian):
    rnd = random.Random(seed)
    g, u, v = (random_poly(rnd, XYZ, max_deg=2, max_terms=4, gaussian=gaussian) for _ in "guv")
    gu, gv = g * u, g * v
    d = poly_gcd(gu, gv)
    assert d.lead_coeff().is_one()
    assert d.divide_exact(g.primitive_monic()[1]) is not None
    a, b = gu.divide_exact(d), gv.divide_exact(d)
    assert a is not None and b is not None
    assert poly_gcd(a, b).is_one()
    # the images certify u and v coprime without any gcd
    if poly._images_coprime(u, v):
        assert d == g.primitive_monic()[1]


def test_monomial_content_needs_no_modular_gcd(monkeypatch):
    u = ("x", "y")
    x, y = MultiPoly.var(u, "x"), MultiPoly.var(u, "y")
    one = MultiPoly.one(u)

    def refuse(p, q):
        raise AssertionError(f"modular gcd of {p} and {q}")

    monkeypatch.setattr(poly, "_modular_gcd", refuse)
    assert poly_gcd(x * x * y * (x + one), x * y**3 * (x + one)) == x * y * (x + one)
    assert poly_gcd((x**3 * y).scale(fe(-2)), x * y**5) == x * y
    three = one.scale(fe(3))
    assert poly_gcd(three * x * x * y - x * y, x * y * y - three * x * x) == x


def test_the_quotients_by_the_monomial_content_take_the_modular_gcd():
    u = ("x", "y")
    x, y = MultiPoly.var(u, "x"), MultiPoly.var(u, "y")
    one = MultiPoly.one(u)
    d = (x + y) * (x - y) + one.scale(fe(Fraction(1, 3)))
    p, q = x * x * d * (y + one), y * d * d * (x + one)
    assert poly_gcd(p, q) == d.primitive_monic()[1]


def test_unlucky_points_and_primes_are_dropped(monkeypatch):
    u = ("x", "y")
    x, y = MultiPoly.var(u, "x"), MultiPoly.var(u, "y")

    def c(v):
        return MultiPoly.const(u, fe(v))

    modulus, used = modular._modulus, []
    monkeypatch.setattr(modular, "_modulus", lambda k: used.append(k) or modulus(k))
    first = c(modular._STEP % poly._P)  # the first point of y modulo P
    # both inputs have the factor x + first there; the next point leads
    # lower and replaces it, and P alone decides
    p, q = (x + y) * (x + c(2)), (x + y + y - first) * (x + c(2))
    assert poly._modular_gcd(p, q) == x + c(2)
    assert used == [0]
    # q is free of y, so one point decides at each prime: the candidate of
    # P divides neither input, and the next prime brings other points
    assert poly._modular_gcd(p, (x + first) * (x + c(2))) == x + c(2)
    assert max(used) == 1
    # x + 1 and x + P + 1 agree modulo P, whose candidate x + 1 divides
    # neither; the next prime proves them coprime
    assert poly._modular_gcd(x + c(1), x + c(poly._P + 1)).is_one()


def test_large_coefficients_take_several_primes(monkeypatch):
    x, y, z = (MultiPoly.var(XYZ, v) for v in XYZ)
    one = MultiPoly.one(XYZ)
    big = fe(Fraction(10**40 + 7, 3**50), 10**35 + 1)
    g = x * y + (y * z).scale(big) + one.scale(fe(Fraction(-(10**30), 7)))
    u, v = x + z + one, y * y - one.scale(fe(2))
    modulus, used = modular._modulus, []
    monkeypatch.setattr(modular, "_modulus", lambda k: used.append(k) or modulus(k))
    assert poly_gcd(g * u, g * v) == g.primitive_monic()[1]
    assert max(used) > 2
    primes = [modulus(k) for k in range(max(used) + 1)]
    assert primes[0] == (poly._P, poly._I_IMAGE)
    assert all(p % 4 == 1 and s * s % p == p - 1 for p, s in primes)
    # P comes first, then the primes below 10^12 in descending order
    rest = [p for p, _ in primes[1:]]
    assert rest == sorted(set(rest), reverse=True) and rest[0] < 10**12


# the primes below 10^12 that `_modulus(1)` to `_modulus(10)` return
MODULI = [
    999999999989, 999999999961, 999999999937, 999999999877, 999999999857,
    999999999697, 999999999673, 999999999617, 999999999589, 999999999577,
]


def test_moduli_are_found_quickly():
    # is_prime proves them by Miller-Rabin; trial division to 10^6 took
    # over a second for these ten
    modular._modulus.cache_clear()
    start = time.perf_counter()
    found = [modular._modulus(k) for k in range(1, 11)]
    assert time.perf_counter() - start < 0.5
    assert [p for p, _ in found] == MODULI
    assert all(s * s % p == p - 1 for p, s in found)


def test_rational_reconstruction():
    # room for 10^14 / 3^29 needs m > 2 * (10^14)^2: three primes below 10^12
    m = modular._modulus(1)[0] * modular._modulus(2)[0] * modular._modulus(3)[0]
    for q in (Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(10**14, 3**29)):
        u = q.numerator * pow(q.denominator, -1, m) % m
        assert modular._rational(u, m) == q


# three small Gaussian factors: the images cannot certify their product with
# the third one cubed squarefree, so its gcds take the modular path
FACTORS = (
    "(4/7 + 1/7*i)*x*y^2*z - 3/7*y*z^2 + (-2/7 + 1/7*i)*y^2",
    "(12/5 + 3/5*i)*x*y*z + (12/5 - 6/5*i)*y*z - 12/5*x",
    "-2/5*x*y + (-6/5 + 2/5*i)*y*z - 2/5*x",
)


def test_an_expanded_product_with_a_cubed_factor_checks_in_seconds(tmp_path):
    a, b, c = FACTORS
    product = parse_expression(f"({a})*({b})*({c})^3", XYZ, "Qi")
    doc = tmp_path / "expanded.txt"
    doc.write_text(
        "dilog-identity v1\nfield: Qi\ncoefficients: Q\nvariables: x, y, z\n"
        f"term: 1 [{product.num}]\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "dilogeq", "check", str(doc)],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 1, done.stderr
    verdict, witness, residual = done.stdout.splitlines()
    assert verdict == "verdict: NotConstant"
    assert witness.startswith("witness: beta1 pairing (x*y + (3 - i)*y*z + x) ^ (x^5*y^6*z^2 + ")
    assert residual == "residual beta3: none"
    # the whole report, byte for byte
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == "4c8fe4425facb21454878f43e2cff869220dd6ff8204fe9732fa664ace949656"
