"""Floating-point dilogarithms and sampling-based constancy probes.

li2 uses the defining series on |z| <= 1/2 and functional-equation
reductions outside it: inversion for large |z|, reflection into the left
half-disc, and on the remaining middle annulus the Bernoulli series in
u = -log(1-z),

    Li2(z) = sum_{n>=0} B_n u^{n+1} / (n+1)!    (B_1 = -1/2),

which converges fast there (|u| stays below ~1.8 while the radius is 2*pi).

bloch_wigner is the single-valued combination
    D(z) = Im(Li2(z)) + arg(1-z) * log|z|,
identically zero on the real line.  rogers is the real dilogarithm
    L(x) = Li2(x) + log(x)log(1-x)/2 on (0,1),
extended by L(x) = pi^2/3 - L(1/x) for x > 1 and
L(x) = -L(1 - 1/(1-x)) for x < 0; rl_bar reduces L - pi^2/6 into
R/(pi^2/2)Z, where the inversion and five-term identities hold with no
case distinctions.

The numeric probe samples admissible points (all arguments and their
one-minus kept away from 0, 1, infinity by a margin) and reports how far
the sampled values spread; it is a smoke test for the symbolic verdicts,
not a proof.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .formal import FormalSum
from .ratfunc import INF

PI = math.pi
LI2_ONE = PI * PI / 6.0
MOD_HALF_PISQ = PI * PI / 2.0


class NonFinite(ValueError):
    pass


class DegenerateArgument(ValueError):
    pass


class SamplingExhausted(RuntimeError):
    pass


def _bernoulli_floats(count: int) -> list[float]:
    """B_0 .. B_{count-1} with B_1 = -1/2, exact recurrence then floats."""
    bs: list[Fraction] = []
    for m in range(count):
        if m == 0:
            bs.append(Fraction(1))
            continue
        acc = Fraction(0)
        binom = 1
        for k in range(m):
            acc += binom * bs[k]
            binom = binom * (m + 1 - k) // (k + 1)
        bs.append(-acc / (m + 1))
    return [float(b) for b in bs]


_BERNOULLI = _bernoulli_floats(64)


def _li2_series(z: complex) -> complex:
    total = 0j
    term = z
    n = 1
    while abs(term) > 1e-18 * (1 + abs(total)) and n < 400:
        total += term / (n * n)
        term *= z
        n += 1
    return total


def _li2_u_series(z: complex) -> complex:
    u = -cmath.log(1 - z)
    total = 0j
    upow = u
    fact = 1.0
    for n, b in enumerate(_BERNOULLI):
        fact *= n + 1
        if b:
            delta = b * upow / fact
            total += delta
            if abs(delta) < 1e-18 * (1 + abs(total)) and n > 4:
                break
        upow *= u
    return total


def li2(z: complex) -> complex:
    """The dilogarithm, principal branch, ~1e-13 accuracy or better."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFinite(f"li2 argument must be finite, got {z}")
    if z == 0:
        return 0j
    if z == 1:
        return complex(LI2_ONE)
    r = abs(z)
    if r <= 0.5:
        return _li2_series(z)
    if r >= 1.8:
        w = cmath.log(-z)
        return -li2(1 / z) - complex(LI2_ONE) - 0.5 * w * w
    if z.real > 0.5:
        return complex(LI2_ONE) - cmath.log(z) * cmath.log(1 - z) - li2(1 - z)
    return _li2_u_series(z)


def bloch_wigner(z: complex) -> float:
    """D(z) = Im Li2(z) + arg(1-z) log|z|; zero on the reals."""
    z = complex(z)
    if z == 0 or z == 1:
        raise DegenerateArgument(f"D is undefined at {z}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFinite(f"D argument must be finite, got {z}")
    if z.imag == 0:
        return 0.0
    return li2(z).imag + cmath.phase(1 - z) * math.log(abs(z))


def rogers(x: float) -> float:
    """Rogers dilogarithm on the reals, continuously extended to 0 and 1."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFinite(f"rogers argument must be finite, got {x}")
    if x == 0:
        return 0.0
    if x == 1:
        return LI2_ONE
    if 0 < x < 1:
        return li2(x).real + 0.5 * math.log(x) * math.log(1 - x)
    if x > 1:
        return 2 * LI2_ONE - rogers(1 / x)
    return -rogers(1 - 1 / (1 - x))


@dataclass(frozen=True)
class ModPiSqHalf:
    """An element of R/(pi^2/2)Z by its representative in [0, pi^2/2)."""

    rep: float

    @staticmethod
    def of(x: float) -> "ModPiSqHalf":
        r = x % MOD_HALF_PISQ
        # float modulo of a tiny negative number can round up to the modulus
        if r >= MOD_HALF_PISQ:
            r = 0.0
        return ModPiSqHalf(r)

    def __add__(self, other: "ModPiSqHalf") -> "ModPiSqHalf":
        return ModPiSqHalf.of(self.rep + other.rep)

    def __sub__(self, other: "ModPiSqHalf") -> "ModPiSqHalf":
        return ModPiSqHalf.of(self.rep - other.rep)

    def __neg__(self) -> "ModPiSqHalf":
        return ModPiSqHalf.of(-self.rep)

    def scale(self, a) -> "ModPiSqHalf":
        # only integer multiples are well-defined on the quotient
        a = Fraction(a)
        if a.denominator != 1:
            raise ValueError("only integer multiples act on the quotient")
        return ModPiSqHalf.of(self.rep * int(a))

    def distance_to_zero(self) -> float:
        return min(self.rep, MOD_HALF_PISQ - self.rep)

    def distance(self, other: "ModPiSqHalf") -> float:
        return (self - other).distance_to_zero()


def rl_bar(x) -> ModPiSqHalf:
    """L(x) - pi^2/6 reduced mod pi^2/2; defined for all reals and infinity."""
    if x is INF or (isinstance(x, float) and math.isinf(x)):
        return ModPiSqHalf.of(-2 * LI2_ONE)
    return ModPiSqHalf.of(rogers(float(x)) - LI2_ONE)


# ---------------------------------------------------------------------------
# sampling probes
# ---------------------------------------------------------------------------

PROBE_DOMAINS = ("complex", "real", "real-bw")


@dataclass(frozen=True)
class ProbeReport:
    domain: str
    max_deviation: float
    mean_value: float
    points_used: int


def _admissible_value(v: complex, lo: float, hi: float) -> bool:
    a = abs(v)
    b = abs(1 - v)
    return lo <= a <= hi and lo <= b <= hi


def _sample_point(alpha: FormalSum, rng: random.Random, domain: str,
                  lo: float, hi: float) -> dict[str, complex] | None:
    point: dict[str, complex] = {}
    for v in alpha.universe:
        if domain == "complex":
            point[v] = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        else:
            point[v] = complex(rng.uniform(-4, 4), 0.0)
    for f, _ in alpha.items():
        try:
            val = f.eval_numeric(point)
        except ZeroDivisionError:
            return None
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            return None
        # a constant argument takes the same value at every draw
        if not f.is_constant() and not _admissible_value(val, lo, hi):
            return None
        if domain == "real" and abs(val.imag) > 1e-12:
            return None
    return point


def numeric_probe(
    alpha: FormalSum,
    domain: str = "complex",
    samples: int = 100,
    seed: int = 0,
    margin_lo: float = 1e-3,
    margin_hi: float = 1e3,
    max_tries: int | None = None,
) -> ProbeReport:
    """Evaluate the dilogarithm sum at admissible random points.

    domain "complex": Bloch-Wigner D at complex points.
    domain "real":    Rogers RL-bar at real points, compared mod pi^2/2.
    domain "real-bw": Bloch-Wigner D at real points (conjugation locus).
    """
    if domain not in PROBE_DOMAINS:
        raise ValueError(f"unknown probe domain {domain!r}")
    if samples < 1:
        raise ValueError(f"the probe needs at least one sample, got {samples}")
    rng = random.Random(seed)
    if max_tries is None:
        max_tries = 400 * samples
    if domain == "real" and any(a.denominator != 1 for _, a in alpha.items()):
        raise ValueError("mod-pi^2/2 probe needs integer coefficients")
    coeffs = [(f, a) for f, a in alpha.items()]

    raw_values: list[float] = []
    mod_values: list[ModPiSqHalf] = []
    tries = 0
    while len(raw_values) + len(mod_values) < samples:
        if tries >= max_tries:
            raise SamplingExhausted(
                f"found {len(raw_values) + len(mod_values)} admissible points "
                f"in {tries} draws (need {samples})"
            )
        tries += 1
        point = _sample_point(alpha, rng, domain, margin_lo, margin_hi)
        if point is None:
            continue
        if domain == "real":
            total = ModPiSqHalf.of(0.0)
            for f, a in coeffs:
                x = f.eval_numeric(point).real
                total = total + rl_bar(x).scale(int(a))
            mod_values.append(total)
        else:
            total = 0.0
            for f, a in coeffs:
                total += float(a) * bloch_wigner(f.eval_numeric(point))
            raw_values.append(total)

    if domain == "real":
        base = mod_values[0]
        offsets = [v.distance(base) * _mod_sign(v, base) for v in mod_values]
        mean_off = sum(offsets) / len(offsets)
        mean = ModPiSqHalf.of(base.rep + mean_off)
        maxdev = max(
            abs(off - mean_off) for off in offsets
        )
        return ProbeReport(domain, maxdev, mean.rep, len(mod_values))
    mean = sum(raw_values) / len(raw_values)
    maxdev = max(abs(v - mean) for v in raw_values)
    return ProbeReport(domain, maxdev, mean, len(raw_values))


def _mod_sign(v: ModPiSqHalf, base: ModPiSqHalf) -> float:
    d = (v.rep - base.rep) % MOD_HALF_PISQ
    return 1.0 if d <= MOD_HALF_PISQ / 2 else -1.0
