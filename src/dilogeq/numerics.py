"""Floating-point dilogarithms and sampling-based constancy probes.

li2 sums one series everywhere, the Bernoulli series in u = -log(1-z),

    Li2(z) = sum_{n>=0} B_n u^{n+1} / (n+1)!    (B_1 = -1/2),

whose radius is |u| = 2*pi ('t Hooft and Veltman, Nucl. Phys. B153, 1979).
Functional equations first bring z into |z| < 1.8, Re z <= 1/2, where
|u| stays below ~1.8: inversion for large |z|, then reflection
Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z) of the right half-plane.
There u is read from log1p and atan2 without forming 1 - z, so Li2(z) ~ z
keeps its relative accuracy for tiny z.

bloch_wigner is the single-valued combination
    D(z) = Im(Li2(z)) + arg(1-z) * log|z|,
identically zero on the real line.  D(1/z) = D(1-z) = -D(z) (Zagier,
"The dilogarithm function", 2007) carry z into |z| <= 1, Re z <= 1/2
with a sign and no logarithms, where |u| <= 1.26 and about a dozen terms
of the series reach full precision; arg(1-z) is -Im u.  rogers is the
real dilogarithm
    L(x) = Li2(x) + log(x)log(1-x)/2 on (0,1),
extended by L(x) = pi^2/3 - L(1/x) for x > 1 and
L(x) = -L(1 - 1/(1-x)) for x < 0; rl_bar reduces L - pi^2/6 into
R/(pi^2/2)Z, where the inversion and five-term identities hold with no
case distinctions.

dilog_value reads a sum at one point, as D or as rl_bar: the numeric
probe reads its random points with it, and `check` its exact ones.  The
probe samples admissible points (all arguments and their one-minus kept
away from 0, 1, infinity by a margin) and reports how far the sampled
values spread; it is a smoke test for the symbolic verdicts, not a proof.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from .formal import FormalSum

PI = math.pi
LI2_ONE = PI * PI / 6.0
MOD_HALF_PISQ = PI * PI / 2.0


class SamplingExhausted(RuntimeError):
    pass


# B_0 .. B_63 with B_1 = -1/2, each the float nearest the exact value;
# tests/test_numerics.py recomputes them from the exact recurrence.
_BERNOULLI = (
    1.0, -0.5, 0.16666666666666666, 0.0,
    -0.03333333333333333, 0.0, 0.023809523809523808, 0.0,
    -0.03333333333333333, 0.0, 0.07575757575757576, 0.0,
    -0.2531135531135531, 0.0, 1.1666666666666667, 0.0,
    -7.092156862745098, 0.0, 54.971177944862156, 0.0,
    -529.1242424242424, 0.0, 6192.123188405797, 0.0,
    -86580.25311355312, 0.0, 1425517.1666666667, 0.0,
    -27298231.067816094, 0.0, 601580873.9006424, 0.0,
    -15116315767.092157, 0.0, 429614643061.1667, 0.0,
    -13711655205088.332, 0.0, 488332318973593.2, 0.0,
    -1.9296579341940068e+16, 0.0, 8.416930475736826e+17, 0.0,
    -4.0338071854059454e+19, 0.0, 2.1150748638081993e+21, 0.0,
    -1.2086626522296526e+23, 0.0, 7.500866746076964e+24, 0.0,
    -5.038778101481069e+26, 0.0, 3.6528776484818122e+28, 0.0,
    -2.849876930245088e+30, 0.0, 2.3865427499683627e+32, 0.0,
    -2.1399949257225335e+34, 0.0, 2.0500975723478097e+36, 0.0,
)


# B_n / (n+1)! for the even n >= 2: the u^3, u^5, ... coefficients of the
# series, the odd B_n past B_1 being zero
_U_COEFFS = tuple(_BERNOULLI[n] / math.factorial(n + 1) for n in range(2, len(_BERNOULLI), 2))


def _u_series(u: complex) -> complex:
    """Li2(z) at u = -log(1-z): u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)!."""
    u2 = u * u
    total = u - 0.25 * u2
    upow = u
    for c in _U_COEFFS:
        upow *= u2
        delta = c * upow
        total += delta
        if abs(delta) < 1e-18 * (1 + abs(total)):
            break
    return total


def _u(z: complex) -> complex:
    """u = -log(1-z), with no 1 - z formed, so a small z keeps its low digits."""
    x, y = z.real, z.imag
    return complex(-0.5 * math.log1p(x * (x - 2) + y * y), -math.atan2(-y, 1 - x))


def li2(z: complex) -> complex:
    """The dilogarithm, principal branch, ~1e-13 accuracy or better."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"li2 argument must be finite, got {z}")
    if z == 0:
        return 0j
    if z == 1:
        return complex(LI2_ONE)
    if abs(z) >= 1.8:
        w = cmath.log(-z)
        return -li2(1 / z) - complex(LI2_ONE) - 0.5 * w * w
    if z.real > 0.5:
        # 1 - z has Re < 1/2 and |1 - z| < 1.8, and its u is -log z
        log_z = cmath.log(z)
        return complex(LI2_ONE) - log_z * cmath.log(1 - z) - _u_series(-log_z)
    return _u_series(_u(z))


def bloch_wigner(z: complex) -> float:
    """D(z) = Im Li2(z) + arg(1-z) log|z|; zero on the reals, 0 and 1
    included, where D extends continuously with value 0."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"D argument must be finite, got {z}")
    if z.imag == 0:
        return 0.0
    sign = 1.0
    if abs(z) > 1:
        z = 1 / z
        sign = -sign
    if z.real > 0.5:
        # |1 - z| < |z| <= 1 here
        z = 1 - z
        sign = -sign
    u = _u(z)
    return sign * (_u_series(u).imag - u.imag * math.log(abs(z)))


def rogers(x: float) -> float:
    """Rogers dilogarithm on the reals, continuously extended to 0 and 1."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"rogers argument must be finite, got {x}")
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

    def scale(self, a) -> "ModPiSqHalf":
        # only integer multiples are well-defined on the quotient
        if a.denominator != 1:
            raise ValueError("only integer multiples act on the quotient")
        return ModPiSqHalf.of(self.rep * a)

    def centered(self) -> float:
        """The representative in (-pi^2/4, pi^2/4], the one printed: a class
        near zero reads as a small number of either sign."""
        return self.rep - MOD_HALF_PISQ if self.rep > MOD_HALF_PISQ / 2 else self.rep

    def distance_to_zero(self) -> float:
        return min(self.rep, MOD_HALF_PISQ - self.rep)

    def distance(self, other: "ModPiSqHalf") -> float:
        return (self - other).distance_to_zero()


def rl_bar(x) -> ModPiSqHalf:
    """L(x) - pi^2/6 reduced mod pi^2/2, for finite real x."""
    return ModPiSqHalf.of(rogers(float(x)) - LI2_ONE)


def dilog_value(terms, real: bool = False) -> float | ModPiSqHalf:
    """The sum of a * D(z) over the (a, z) pairs `terms`, z complex; with
    `real`, the sum of a * rl_bar(Re z), a class mod pi^2/2 that only
    integer coefficients a act on."""
    if real:
        total = ModPiSqHalf.of(0.0)
        for a, z in terms:
            total = total + rl_bar(z.real).scale(a)
        return total
    total = 0.0
    for a, z in terms:
        total += float(a) * bloch_wigner(z)
    return total


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


def _admissible_value(v: complex) -> bool:
    """Are |v| and |1 - v| both in [1e-3, 1e3]?"""
    return 1e-3 <= abs(v) <= 1e3 and 1e-3 <= abs(1 - v) <= 1e3


def _sample_point(universe: tuple[str, ...], args: list, constant: list[bool],
                  rng: random.Random, domain: str) -> list[complex] | None:
    """The value of each of `args` at one random point, or None when the
    point is not admissible; `constant` tells which of `args` are
    constant."""
    point: dict[str, complex] = {}
    for v in universe:
        if domain == "complex":
            point[v] = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        else:
            point[v] = complex(rng.uniform(-4, 4), 0.0)
    values = []
    for f, fixed in zip(args, constant):
        try:
            val = f.eval_numeric(point)
        except (ZeroDivisionError, OverflowError):
            return None
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            return None
        # a constant argument takes the same value at every draw
        if not fixed and not _admissible_value(val):
            return None
        if domain == "real" and abs(val.imag) > 1e-12:
            return None
        values.append(val)
    return values


def numeric_probe(
    alpha: FormalSum,
    domain: str = "complex",
    samples: int = 100,
    seed: int = 0,
) -> ProbeReport:
    """Evaluate the dilogarithm sum at admissible random points.

    domain "complex": Bloch-Wigner D at complex points.
    domain "real":    Rogers RL-bar at real points, compared mod pi^2/2.
    domain "real-bw": Bloch-Wigner D at real points (conjugation locus).

    A draw is kept when every non-constant argument z has |z| and |1 - z|
    in [1e-3, 1e3]; after 400 * samples draws the probe raises
    SamplingExhausted.
    """
    if domain not in PROBE_DOMAINS:
        raise ValueError(f"unknown probe domain {domain!r}")
    if samples < 1:
        raise ValueError(f"the probe needs at least one sample, got {samples}")
    rng = random.Random(seed)
    terms = alpha.items()
    if domain == "real" and any(a.denominator != 1 for _, a in terms):
        raise ValueError("mod-pi^2/2 probe needs integer coefficients")
    args = [f for f, _ in terms]
    constant = [f.is_constant() for f in args]

    # a real total is a class mod pi^2/2, read as its centered offset from
    # the first one, so that a flat sum near the wrap does not read as spread
    base = None
    readings: list[float] = []
    tries = 0
    while len(readings) < samples:
        if tries >= 400 * samples:
            raise SamplingExhausted(
                f"found {len(readings)} admissible points in {tries} draws (need {samples})"
            )
        tries += 1
        values = _sample_point(alpha.universe, args, constant, rng, domain)
        if values is None:
            continue
        total = dilog_value(((a, z) for (_, a), z in zip(terms, values)), real=domain == "real")
        if domain == "real":
            if base is None:
                base = total
            total = (total - base).centered()
        readings.append(total)

    mean = sum(readings) / len(readings)
    maxdev = max(abs(v - mean) for v in readings)
    if domain == "real":
        mean = ModPiSqHalf.of(base.rep + mean).centered()
    return ProbeReport(domain, maxdev, mean, len(readings))
