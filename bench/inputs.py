"""Seeded inputs for the three benchmark workloads, with construction labels.

Nothing here imports dilogeq: documents are written as text from fixed
expression templates, and relation sums are described as plain term
dictionaries that the worker turns into package objects.  The same seed
therefore gives byte-identical inputs at every commit of the package.

Labels come from how an input was built, never from running the checker:
a sum of relation generators is Constant, and adding one non-constant stray
term makes it NotConstant (its boundary has a nonzero beta1 pairing between
a factor of the numerator or denominator and a factor of 1 - f).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import gcd

# c_element constants: mostly small, about 30% large.  1000003 is a prime
# above the constant-factoring bound; 7919 and 999983 have |c| > 10^3, which
# no probe point can admit.
SMALL_C = (2, 3, 5, -1, -2)
LARGE_C = (7919, 999983, 1000003)

# Mix of the docs-check workload, exact within every block of 60 documents.
# A document in the large-constant slots is one c_element with a constant
# from LARGE_C (four of each per block) plus five-term generators; every
# other c_element takes a small constant.  The probe's exhausted sampling is
# the costliest outcome, and its cost grows with the number of terms: fixing
# how many probed documents carry a large constant, and of what size, keeps
# the per-run mix from swinging with the seed.
BLOCK = 60
TWO_VAR_DOCS = 30
QI_DOCS = 10
STRAY_DOCS = 20
PROBE_DOCS = 15
REAL_SHARE_OF_Q = 5  # one in five Q documents runs with --real
GENERATOR_COUNTS = (1, 2, 3)  # equally many documents of each size
KIND_DECK = ("five", "five", "inversion", "c")  # shares of all generators
LARGE_IN_PROBED = 3
LARGE_IN_UNPROBED = 9
PROBE_POINTS = 30

ONE_VAR = ("t",)
TWO_VARS = ("x", "y")

MONO_COEFFS = ("1", "-1", "2", "-2", "3", "1/2", "-1/3")
GAUSS_COEFFS = ("i", "-i", "(1 + i)", "2*i")
SHIFTS = ("1", "-2", "3", "-3", "2", "1/2")

# Seed of the warm-up input, the same for every run: a warm-up that changed
# with the seed would make set-up time swing with the seed.
WARMUP_SEED = "warmup"

# Fixed ascending prime list of the bloch-fq workload; --oracle at 5 and 7.
BLOCH_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
ORACLE_PRIMES = (5, 7)


# ---------------------------------------------------------------------------
# docs-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DocCase:
    name: str
    text: str
    flags: tuple[str, ...]  # extra check arguments: --real, --probe N
    expected_exit: int  # 0 Constant, 1 NotConstant, by construction
    field: str
    variables: tuple[str, ...]
    stray: bool
    large_constant: int | None


def _monomials(variables):
    if len(variables) == 1:
        (v,) = variables
        return (v, f"{v}^2", f"{v}^-1")
    v, w = variables
    return (v, w, f"{v}^2", f"{w}^-1", f"{v}*{w}", f"{v}/{w}", f"{v}^2*{w}")


def _atom(rnd: random.Random, variables, gaussian: bool) -> tuple[tuple, str]:
    """A non-constant argument: (canonical key, expression text).

    Distinct keys are distinct rational functions: the monomial family is a
    nonzero constant times a monomial, the shifted family has a non-monomial
    factor, and within a family the parameters determine the function.
    """
    if rnd.random() < 0.5:
        coeffs = MONO_COEFFS + (GAUSS_COEFFS if gaussian else ())
        a = rnd.choice(coeffs)
        m = rnd.choice(_monomials(variables))
        return ("mono", a, m), f"{a}*{m}"
    v = rnd.choice(variables)
    w = rnd.choice(variables)
    b = rnd.choice(SHIFTS)
    if rnd.random() < 0.4:
        return ("shift", v, b), f"({_shifted(v, b)})"
    c = rnd.choice([s for s in SHIFTS if (w, s) != (v, b)])
    return ("ratio", v, b, w, c), f"({_shifted(v, b)})/({_shifted(w, c)})"


def _shifted(v: str, b: str) -> str:
    return f"{v} - {b[1:]}" if b.startswith("-") else f"{v} + {b}"


def _generator_terms(rnd, variables, gaussian, kind: str, large_c: int | None):
    """One relation generator as (coefficient, expression) terms, scaled by
    a coefficient of +-1 or +-2.  With `large_c` set it is that c_element."""
    a = rnd.choice((1, -1, 2, -2))
    if kind == "five":
        (kx, x), (ky, y) = _atom(rnd, variables, gaussian), _atom(rnd, variables, gaussian)
        while ky == kx:
            ky, y = _atom(rnd, variables, gaussian)
        terms = [
            (1, x),
            (-1, y),
            (1, f"({y})/({x})"),
            (1, f"(1 - ({x}))/(1 - ({y}))"),
            (-1, f"(1 - ({x})^-1)/(1 - ({y})^-1)"),
        ]
    elif kind == "inversion":
        _, x = _atom(rnd, variables, gaussian)
        terms = [(1, x), (1, f"1/({x})")]
    else:
        c = large_c if large_c is not None else rnd.choice(SMALL_C)
        terms = [(1, f"({c})"), (1, f"1 - ({c})")]
    return [(a * s, e) for s, e in terms]


def _block_flags(rnd: random.Random, count: int) -> list[bool]:
    flags = [True] * count + [False] * (BLOCK - count)
    rnd.shuffle(flags)
    return flags


def _block_plan(block: int) -> list[tuple]:
    """The 60 document shapes of the block at position `block`, the same
    for every seed: (two variables, Qi, stray, probe, real, generator
    kinds, large constant) each."""
    fixed = random.Random(f"docs-check:block:{block}")
    two_var = _block_flags(fixed, TWO_VAR_DOCS)
    qi = _block_flags(fixed, QI_DOCS)
    stray = _block_flags(fixed, STRAY_DOCS)
    probe = _block_flags(fixed, PROBE_DOCS)
    q_slots = [k for k in range(BLOCK) if not qi[k]]
    real = set(fixed.sample(q_slots, len(q_slots) // REAL_SHARE_OF_Q))
    probed = [k for k in range(BLOCK) if probe[k]]
    unprobed = [k for k in range(BLOCK) if not probe[k]]
    # Large constants and sizes are crossed and rotate with the block,
    # so each constant meets each size equally often in probed and in
    # unprobed documents.
    large: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for pool, n in ((probed, LARGE_IN_PROBED), (unprobed, LARGE_IN_UNPROBED)):
        for j, k in enumerate(fixed.sample(pool, n)):
            large[k] = LARGE_C[j % len(LARGE_C)]
            sizes[k] = GENERATOR_COUNTS[(j + j // len(LARGE_C) + block) % len(GENERATOR_COUNTS)]
    rest = [k for k in range(BLOCK) if k not in sizes]
    deck = [n for n in GENERATOR_COUNTS for _ in range(BLOCK // len(GENERATOR_COUNTS))]
    for n in sizes.values():
        deck.remove(n)
    fixed.shuffle(deck)
    sizes.update(zip(rest, deck))
    kinds = list(KIND_DECK) * (sum(sizes.values()) // len(KIND_DECK))
    for k in large:
        kinds.remove("c")
        for _ in range(sizes[k] - 1):
            kinds.remove("five")
    fixed.shuffle(kinds)
    plan = []
    for k in range(BLOCK):
        if k in large:
            doc_kinds = ["c"] + ["five"] * (sizes[k] - 1)
        else:
            doc_kinds = [kinds.pop() for _ in range(sizes[k])]
        plan.append((two_var[k], qi[k], stray[k], probe[k], k in real, doc_kinds, large.get(k)))
    return plan


def docs_cases(seed: int, count: int) -> list[DocCase]:
    """`count` documents; each block of 60 holds the exact mix above.

    The shapes of a block's documents are fixed by the block's position
    (`_block_plan`), so the number of costly documents, which set ops_per_s
    and op_p90_ms, does not change with the seed; the seed decides their
    order within the block and every argument and coefficient."""
    rnd = random.Random(f"docs-check:{seed}")
    cases: list[DocCase] = []
    block = 0
    while len(cases) < count:
        plan = _block_plan(block)
        block += 1
        rnd.shuffle(plan)
        for shape in plan[: count - len(cases)]:
            cases.append(_doc_case(rnd, len(cases), *shape))
    return cases


def warmup_doc() -> DocCase:
    """The warm-up document: one unflagged five-term relation in (x, y)."""
    rnd = random.Random(f"docs-check:{WARMUP_SEED}")
    case = _doc_case(rnd, 0, True, False, False, False, False, ["five"], None)
    return replace(case, name="warmup.txt")


def _doc_case(rnd, index, two_var, qi, stray, probe, real, kinds, large_c) -> DocCase:
    variables = TWO_VARS if two_var else ONE_VAR
    field = "Qi" if qi else "Q"
    terms: list[tuple[int, str]] = []
    for g, kind in enumerate(kinds):
        terms += _generator_terms(rnd, variables, qi, kind, large_c if g == 0 else None)
    if stray:
        _, s = _atom(rnd, variables, qi)
        terms.append((rnd.choice((1, -1, 2, -2)), s))
    lines = [
        "dilog-identity v1",
        f"field: {field}",
        "variables: " + ", ".join(variables),
    ]
    lines += [f"term: {c} [{e}]" for c, e in terms]
    flags: list[str] = []
    if real:
        flags.append("--real")
    if probe:
        flags += ["--probe", str(PROBE_POINTS)]
    return DocCase(
        name=f"doc{index:05d}.txt",
        text="\n".join(lines) + "\n",
        flags=tuple(flags),
        expected_exit=1 if stray else 0,
        field=field,
        variables=variables,
        stray=stray,
        large_constant=large_c,
    )


# ---------------------------------------------------------------------------
# relation-sum
# ---------------------------------------------------------------------------

# A polynomial is a tuple of (exponent tuple, integer coefficient) pairs; a
# rational function is a (numerator, denominator) pair of those.  Every
# polynomial has exactly two terms of degree at most 2 in each variable: a
# fixed shape keeps the cost of one sum close to the cost of the next, so a
# run's median does not swing with the seed.
RELATION_VARS = ("x", "y")
RELATIONS_PER_SUM = 3
POLY_TERMS = 2
MAX_DEGREE = 2
COEFFS = (-4, -3, -2, -1, 1, 2, 3, 4)


def _poly_terms(rnd: random.Random, nvars: int):
    terms: dict[tuple[int, ...], int] = {}
    while len(terms) < POLY_TERMS:
        exp = tuple(rnd.randint(0, MAX_DEGREE) for _ in range(nvars))
        if exp not in terms:
            terms[exp] = rnd.choice(COEFFS)
    return tuple(sorted(terms.items()))


def _poly_mul(a, b):
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a:
        for eb, cb in b:
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _same_function(f, g) -> bool:
    """f == g as rational functions, by cross-multiplication."""
    return _poly_mul(f[0], g[1]) == _poly_mul(g[0], f[1])


def relation_sum_specs(seed: int | str, count: int):
    """`count` sums, each a list of (coefficient, x, y) five-term generators.

    A generator is admissible exactly when x and y avoid the constants 0
    and 1 and differ: then all five arguments avoid 0, 1 and poles.  The
    numerators drawn here are never zero, so only x = 1, y = 1 and x = y
    are redrawn.
    """
    rnd = random.Random(f"relation-sum:{seed}")
    nvars = len(RELATION_VARS)
    one = (((0,) * nvars, 1),)
    out = []
    for _ in range(count):
        gens = []
        while len(gens) < RELATIONS_PER_SUM:
            x = (_poly_terms(rnd, nvars), _poly_terms(rnd, nvars))
            y = (_poly_terms(rnd, nvars), _poly_terms(rnd, nvars))
            if any(_same_function(f, (one, one)) for f in (x, y)) or _same_function(x, y):
                continue
            gens.append((rnd.choice((1, -1)), x, y))
        out.append(gens)
    return out


# ---------------------------------------------------------------------------
# bloch-fq
# ---------------------------------------------------------------------------


def bloch_cases() -> list[tuple[int, tuple[str, ...]]]:
    """(p, extra flags) for one pass over the prime list."""
    return [(p, ("--oracle",) if p in ORACLE_PRIMES else ()) for p in BLOCH_PRIMES]


def wedge_square_order(p: int) -> int:
    """Order d of the wedge square of F_p*, computed independently of the
    package: F_p* is cyclic of order m, its tensor square is Z/m, and the
    relations (-x) (x) x kill a*(a + m/2) for every a."""
    m = p - 1
    d = m
    for a in range(m):
        d = gcd(d, a * (a + m // 2) % m)
    return d
