"""Command line interface.

Subcommands:
  check              decide constancy of a dilogarithm combination
  specialize         apply a specialization plan to a document
  wedge              print the beta decomposition of the boundary
  relations          emit five-term / inversion / c-element documents
  probe              numeric sampling of a document
  blochfq            Bloch group data of a small prime field
  padic-branch-diff  branch dependence of the p-adic value at a point

Exit codes: 0 success (check: Constant), 1 check: NotConstant, 2 error.
Reports are deterministic: no timestamps, no timing, fixed key order.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import math
import sys
from fractions import Fraction

from .primes import require_prime
from .scalars import fe

# The names the document commands use (every subcommand but `blochfq`), by
# module.  `_bind_document_names` binds them into this module's globals on
# the first such command, so that `blochfq` loads none of these modules.  It
# never replaces a name already set: a wrapper or stub set at
# `dilogeq.cli.NAME` beforehand (bench/tracer.py, tests) is the one called.
_DOCUMENT_NAMES = {
    "document": ("dump_document", "load_document", "parse_variables"),
    "exprparse": ("parse_expression",),
    "formal": ("c_element", "five_term", "inversion", "value_text"),
    # bloch_wigner is read by no command (dilog_value calls it in numerics);
    # it is bound here because bench/tracer.py counts calls at this name
    "numerics": ("SamplingExhausted", "bloch_wigner", "dilog_value", "numeric_probe"),
    "ratfunc": ("INF",),
    "specialize": (
        "PointNotAdmissible",
        "SpecStep",
        "default_aux",
        "evaluate_at_point",
        "iterate",
    ),
    # check_constant_real (Bloch-Wigner on the real locus) decides no
    # subcommand; it is bound here because bench/tracer.py wraps it at this name
    "wedge": ("boundary", "check_constant", "check_constant_cc", "check_constant_real"),
}


@functools.cache
def _bind_document_names() -> None:
    namespace = globals()
    for module, names in _DOCUMENT_NAMES.items():
        owner = importlib.import_module(f".{module}", __package__)
        for name in names:
            namespace.setdefault(name, getattr(owner, name))


def __getattr__(name):
    # outside code reading a document name before any document command
    if any(name in names for names in _DOCUMENT_NAMES.values()):
        _bind_document_names()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# shared rendering helpers
# ---------------------------------------------------------------------------


def _witness_json(witness) -> dict | None:
    if witness is None:
        return None
    if witness[0] == "pair":
        _, left, right, value = witness
        return {"kind": "pair", "left": str(left), "right": str(right), "value": str(value)}
    _, element, prime, value = witness
    return {"kind": "column", "element": str(element), "prime": str(prime), "value": str(value)}


def _witness_text(witness) -> str:
    w = _witness_json(witness)
    if w is None:
        return "none"
    if w["kind"] == "pair":
        return f"beta1 pairing ({w['left']}) ^ ({w['right']}) = {w['value']}"
    return f"beta2 column of ({w['element']}) at {w['prime']} = {w['value']}"


def _beta3_json(b3: dict) -> dict:
    return {
        "pairs": {f"{p} ^ {q}": str(v) for (p, q), v in b3["pairs"].items()},
        "units": {str(p): str(v) for p, v in b3["units"].items()},
        "unit_unit": str(b3["unit_unit"]),
    }


def _beta3_text(b3: dict) -> str:
    """The text of `_beta3_json`'s record `b3`."""
    parts = [f"{pq}: {v}" for pq, v in b3["pairs"].items()]
    parts += [f"{p} ^ unit: {v}" for p, v in b3["units"].items()]
    if b3["unit_unit"] != "0":
        parts.append(f"unit ^ unit: {b3['unit_unit']}")
    return "; ".join(parts) if parts else "none"


def _probe_report(pr) -> tuple[dict, str]:
    """The JSON record and the text line of a numeric probe."""
    report = {
        "domain": pr.domain,
        "max_deviation": pr.max_deviation,
        "mean_value": pr.mean_value,
        "points_used": pr.points_used,
    }
    line = (
        f"probe[{pr.domain}]: max deviation {pr.max_deviation!r} "
        f"over {pr.points_used} points, mean {pr.mean_value!r}"
    )
    return report, line


def _emit(args, report: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _read_document(path: str) -> IdentitySpec:
    if path == "-":
        return load_document(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return load_document(fh.read())


_POINT_CANDIDATES = (2, 3, 5, 7, -2, 11, -3, 13, -5, 17, 4, 19, -7, 23, 9, 29)


def _find_points(alpha: FormalSum, real: bool):
    """Up to four admissible points, with the exact values of the formal
    sum there.  Deterministic search over a fixed candidate grid: Gaussian
    rationals first over Q(i), rationals only for the real reading, which
    also skips a point where some argument takes a non-real value."""
    universe = alpha.universe
    if alpha.field_mode == "Qi" and not real:
        cands = [fe(c, 1) for c in (2, 3, -1, 5, 1, -2)] + [fe(c) for c in _POINT_CANDIDATES]
    else:
        cands = [fe(c) for c in _POINT_CANDIDATES]
    found = []
    for combo in itertools.islice(itertools.product(cands, repeat=len(universe)), 20000):
        point = dict(zip(universe, combo))
        try:
            value = evaluate_at_point(alpha, point)
        except PointNotAdmissible:
            continue
        if real and not all(z.is_rational() for z, _ in value):
            continue
        found.append((point, value))
        if len(found) >= 4:
            break
    return found


def _numeric_of_value(value: list, mode: str) -> float | ModPiSqHalf:
    """Numeric reading of an exact point value (the (z, a) pairs that
    evaluate_at_point returns); in real mode a class mod pi^2/2, which only
    integer coefficients act on.

    Each argument z with |z| > 1 is read as 1/z with the opposite sign, by
    D(z) = -D(1/z) and rl_bar(x) = -rl_bar(1/x) mod pi^2/2, so no float
    conversion overflows; one that underflows to 0 reads as D(0) = 0 and
    rl_bar(0), the continuous extensions."""
    terms = []
    for z, a in value:
        if z.a * z.a + z.b * z.b > z.d * z.d:  # |z| > 1, for z = (a + b*i) / d
            z, a = z.inverse(), -a
        terms.append((a, z.to_complex()))
    return dilog_value(terms, real=mode == "real")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


# a constant p-adic dilogarithm for one branch of log_p is constant for all
PADIC_NOTE = (
    "p-adic reading: a Constant verdict holds for every branch of log_p; "
    "only the value of the constant depends on the branch"
)

# the Rogers reading is a class mod pi^2/2, which only integer coefficients
# act on
NON_INTEGER_NOTE = "no constant mod pi^2/2: the sum has non-integer coefficients"


def _cmd_check(args) -> int:
    if args.padic is not None:
        require_prime(args.padic, "--padic")
    # a nan tolerance would silence the deviation note, a negative one flag
    # every exact Constant
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"--tolerance must be finite and at least 0, got {args.tolerance!r}")
    # --probe 0 asks for no probe; numeric_probe's own check would come
    # only after the exact check
    if args.probe < 0:
        raise ValueError(f"the probe needs at least one sample, got {args.probe}")
    if args.cc and args.probe:
        raise ValueError("--probe is not available in cc mode")
    spec = _read_document(args.document)
    alpha = spec.formal_sum()

    if args.cc:
        # declared pairs are conjugate, every other variable is real
        cert = check_constant_cc(alpha, dict(spec.pairs))
        mode = "cc"
    else:
        # the Rogers and p-adic readings share the complex criterion (see
        # check_constant)
        cert = check_constant(alpha)
        mode = "real" if args.real else "complex" if args.padic is None else "padic"

    report = {
        "mode": mode,
        "verdict": cert.verdict,
        "witness": _witness_json(cert.witness),
        "beta3": _beta3_json(cert.residual_beta3),
        "notes": [PADIC_NOTE] if mode == "padic" else [],
    }
    lines = [f"verdict: {cert.verdict}"]
    if cert.witness is not None:
        lines.append(f"witness: {_witness_text(cert.witness)}")
    lines.append(f"residual beta3: {_beta3_text(report['beta3'])}")

    def note(text: str) -> None:
        report["notes"].append(text)
        lines.append(f"note: {text}")

    # without integer coefficients the Rogers reading has neither a
    # constant nor a probe, and NON_INTEGER_NOTE says so once
    no_rogers = mode == "real" and any(a.denominator != 1 for a in alpha.terms.values())

    if cert.is_constant() and mode in ("complex", "real"):
        points = _find_points(alpha, real=(mode == "real"))
        if points:
            pt_render = {k: str(v) for k, v in points[0][0].items()}
            report["point"] = pt_render
            report["value_at_point"] = value_text(points[0][1])
            lines.append(f"point: {_point_text(pt_render)}")
            lines.append(f"value at point: {report['value_at_point']}")
            if no_rogers:
                note(NON_INTEGER_NOTE)
            else:
                values = [_numeric_of_value(v, mode) for _, v in points]
                if mode == "real":
                    bound = max(values[0].distance(v) for v in values)
                    constant = values[0].centered()
                    unit = " (mod pi^2/2)"
                else:
                    constant = values[0]
                    bound = max(abs(v - constant) for v in values)
                    unit = ""
                report["constant"] = constant
                report["constant_bound"] = bound
                if mode == "real":
                    report["constant_modulus"] = "pi^2/2"
                lines.append(f"constant: {constant!r} +/- {bound!r}{unit}")
        else:
            report["point"] = None
            note("no admissible rational point found on the search grid")

    if args.probe and no_rogers:
        report["probe"] = None
        if NON_INTEGER_NOTE not in report["notes"]:
            note(NON_INTEGER_NOTE)
    elif args.probe:
        domain = "real" if mode == "real" else "complex"
        try:
            pr = numeric_probe(alpha, domain=domain, samples=args.probe, seed=args.seed)
        except SamplingExhausted as exc:
            # the exact verdict stands without its numeric cross-check
            report["probe"] = None
            note(f"no probe: {exc}")
        else:
            report["probe"], line = _probe_report(pr)
            lines.append(line)
            if cert.is_constant() and pr.max_deviation > args.tolerance:
                note(
                    f"probe deviation {pr.max_deviation!r} exceeds tolerance "
                    f"{args.tolerance!r} despite a Constant verdict"
                )

    if mode == "padic":
        lines.append(f"note: {PADIC_NOTE}")

    _emit(args, report, lines)
    return 0 if cert.is_constant() else 1


# ---------------------------------------------------------------------------
# specialize
# ---------------------------------------------------------------------------


def _parse_step(src: str, spec: IdentitySpec) -> SpecStep:
    head, sep, _ = src.partition("=")
    if not sep:
        raise ValueError(f"step {src!r} needs var=target")
    var = head.strip()
    if var not in spec.variables:
        raise ValueError(f"step variable {var!r} is not declared")
    rhs = src[len(head) + 1 :]
    target_src, marker, aux_src = rhs.partition(",c=")
    target_src = target_src.strip()
    if not target_src:
        raise ValueError(f"step {src!r} has an empty target")
    if target_src in ("inf", "INF", "oo"):
        target = INF
    else:
        target = parse_expression(target_src, spec.variables, spec.field_mode)
    if marker:
        aux = parse_expression(aux_src.strip(), spec.variables, spec.field_mode)
    else:
        aux = default_aux(spec.variables)
    return SpecStep(var, target, aux)


def _cmd_specialize(args) -> int:
    spec = _read_document(args.document)
    alpha = spec.formal_sum()
    steps = tuple(_parse_step(s, spec) for s in args.step or [])
    result = iterate(alpha, steps)
    # a pair that lost a variable leaves its survivor an ordinary variable
    kept = tuple(pr for pr in spec.pairs if set(pr) <= set(result.universe))
    doc = dump_document(result, kept)
    report = {
        "pairs": [list(pr) for pr in kept],
        "result": str(result),
        "variables": list(result.universe),
        "terms": [
            {"coefficient": str(a), "expression": str(f)} for f, a in result.items()
        ],
    }
    lines = [f"result: {result}", "", doc.rstrip("\n")]
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------


def _cmd_wedge(args) -> int:
    spec = _read_document(args.document)
    alpha = spec.formal_sum()
    w = boundary(alpha)
    b1, b2, b3 = w.decompose()
    report = {
        "basis": [str(b) for b in w.sorted_basis()],
        "beta1": {f"({l}) ^ ({r})": str(v) for (l, r), v in b1.items()},
        "beta2": {
            el: {p: str(v) for p, v in col.items()} for el, col in b2.items()
        },
        "beta3": _beta3_json(b3),
        "beta1_zero": not b1,
        "beta2_zero": not b2,
    }
    lines = ["basis: " + (", ".join(report["basis"]) if report["basis"] else "(empty)")]
    lines += [f"beta1 {pair}: {v}" for pair, v in report["beta1"].items()] or ["beta1: 0"]
    lines += [
        f"beta2 ({el}): " + ", ".join(f"{p}: {v}" for p, v in col.items())
        for el, col in report["beta2"].items()
    ] or ["beta2: 0"]
    lines.append(f"beta3: {_beta3_text(report['beta3'])}")
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def _cmd_relations(args) -> int:
    variables, pairs = parse_variables(args.variables)

    def parse(src, name):
        if src is None:
            raise ValueError(f"relation kind {args.kind!r} needs --{name}")
        return parse_expression(src, variables, args.field)

    if args.kind == "five":
        x = parse(args.x, "x")
        y = parse(args.y, "y")
        total = five_term(x, y, args.field, args.coefficients)
    elif args.kind == "inversion":
        x = parse(args.x, "x")
        total = inversion(x, args.field, args.coefficients)
    else:
        c = parse(args.c, "c")
        total = c_element(c, args.field, args.coefficients)
    sys.stdout.write(dump_document(total, pairs))
    return 0


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def _cmd_probe(args) -> int:
    # numeric_probe's own check would come only after the document is read
    if args.samples < 1:
        raise ValueError(f"the probe needs at least one sample, got {args.samples}")
    spec = _read_document(args.document)
    alpha = spec.formal_sum()
    pr = numeric_probe(alpha, domain=args.domain, samples=args.samples, seed=args.seed)
    report, line = _probe_report(pr)
    _emit(args, report, [line])
    return 0


# ---------------------------------------------------------------------------
# blochfq
# ---------------------------------------------------------------------------


def _cmd_blochfq(args) -> int:
    p = args.p
    if p > 97:
        raise ValueError(
            f"p = {p} is past the cap 97; for a larger p call bloch_groups(p) in Python"
        )
    if args.oracle and p > 7:
        raise ValueError("--oracle enumerates all minors; only feasible for p in {5, 7}")
    from . import blochfq as bfq
    from .intmat import minor_gcd_invariant_factors

    groups = bfq.bloch_groups(p)
    pres = groups.presentation
    d = groups.wedge_square
    report = {
        "p": p,
        "generators": len(pres.generators),
        "five_term_rows": len(pres.five_rows),
        "inversion_rows": len(pres.inversion_rows),
        "wedge_square": f"Z/{d}" if d > 1 else "0",
        "pre_bloch": str(groups.pre_bloch),
        "pre_bloch_five_only": str(groups.pre_bloch_five_only),
        "modified_bloch": str(groups.modified_bloch),
        "c_class_independent": groups.c_class_independent,
        "three_c_in_span": groups.three_c_in_span,
    }
    lines = [
        f"p: {p}",
        f"generators: {len(pres.generators)}",
        f"rows: {len(pres.five_rows)} five-term + {len(pres.inversion_rows)} inversion",
        f"wedge square of F_p*: {report['wedge_square']}",
        f"pre-Bloch group: {groups.pre_bloch}",
        f"pre-Bloch group (five-term rows only): {groups.pre_bloch_five_only}",
        f"modified Bloch group: {groups.modified_bloch}",
        f"c-element class independent of c: {'yes' if groups.c_class_independent else 'NO'}",
        f"3*C in the relation span: {'yes' if groups.three_c_in_span else 'NO'}",
    ]
    if args.oracle:
        n = len(pres.generators)
        raw = minor_gcd_invariant_factors([list(r) for r in pres.relations], n)
        oracle = bfq._pack_factors(raw, n)
        agree = oracle == groups.pre_bloch
        report["oracle_pre_bloch"] = str(oracle)
        report["oracle_agrees"] = agree
        lines.append(f"minor-gcd oracle: {oracle} ({'agree' if agree else 'DISAGREE'})")
        if not agree:
            _emit(args, report, lines)
            return 2
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# padic-branch-diff
# ---------------------------------------------------------------------------


def _rational(src: str, error: str) -> Fraction:
    """The rational number `src`; ValueError(error) when it is none."""
    try:
        return Fraction(src)
    except (ValueError, ZeroDivisionError):
        raise ValueError(error) from None


def _point_text(point: dict) -> str:
    """`VAR = Q, ...` in name order; `(empty)` for the empty point, as
    `wedge` prints an empty basis."""
    return ", ".join(f"{k} = {v}" for k, v in sorted(point.items())) or "(empty)"


def _parse_point(src: str, variables) -> dict[str, Fraction]:
    """The coordinates of `VAR=Q,...`; a blank value is the empty point, as
    a blank `variables:` line declares no variables.  Raises ValueError."""
    point = {}
    if not src.strip():
        return point
    for part in src.split(","):
        name, sep, val = part.partition("=")
        name = name.strip()
        bad = f"bad point coordinate {part!r}"
        if not sep or name not in variables:
            raise ValueError(bad)
        if name in point:
            raise ValueError(f"the point assigns {name} twice")
        point[name] = _rational(val.strip(), bad)
    return point


# the series work grows with prec * log2(p); 2^4096 keeps a run to seconds
MAX_BRANCH_MODULUS_BITS = 4096


def _cmd_padic_branch_diff(args) -> int:
    from .padic import PadicNumber, branch_diff

    require_prime(args.p, "--p")
    if args.prec < 1:
        raise ValueError(f"--prec must be at least 1, got {args.prec}")
    # p >= 2, so a prec past the bit bound needs no power to refuse
    if args.prec > MAX_BRANCH_MODULUS_BITS or args.p**args.prec > 1 << MAX_BRANCH_MODULUS_BITS:
        raise ValueError(
            f"modulus {args.p}^{args.prec} is above the bound 2^{MAX_BRANCH_MODULUS_BITS}"
        )
    branch_a = _rational(args.branch_a, f"--branch-a {args.branch_a!r} is not a rational number")
    branch_b = _rational(args.branch_b, f"--branch-b {args.branch_b!r} is not a rational number")
    spec = _read_document(args.document)
    point = _parse_point(args.point, spec.variables)
    value = evaluate_at_point(spec.formal_sum(), {k: fe(v) for k, v in point.items()})
    log_a = PadicNumber.from_rational(branch_a, args.p, args.prec)
    log_b = PadicNumber.from_rational(branch_b, args.p, args.prec)
    diff = branch_diff(value, log_a, log_b, prec=args.prec)
    report = {
        "p": args.p,
        "point": {k: str(v) for k, v in point.items()},
        "branch_a_log_p": str(branch_a),
        "branch_b_log_p": str(branch_b),
        "precision": args.prec,
        "difference": str(diff),
    }
    lines = [
        f"p: {args.p}",
        f"point: {_point_text(point)}",
        f"log_p(p) values: {args.branch_a} vs {args.branch_b}",
        f"value difference (branch a minus branch b): {diff}",
    ]
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


# the --domain choices of `probe`: numerics.PROBE_DOMAINS, kept here so that
# building the parser imports no numerics (numeric_probe still checks it)
PROBE_DOMAINS = ("complex", "real", "real-bw")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call.

    Every later call returns the same object, so that `main` in a loop
    builds it once per process: it is shared across calls and must not be
    mutated."""
    parser = argparse.ArgumentParser(
        prog="dilogeq",
        description="exact constancy checker for dilogarithm combinations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_check = sub.add_parser("check", help="decide constancy of a document")
    p_check.add_argument("document", help="document path, or - for stdin")
    mode = p_check.add_mutually_exclusive_group()
    mode.add_argument("--real", action="store_true", help="real-locus criterion (Rogers)")
    mode.add_argument("--cc", action="store_true", help="conjugation-locus criterion")
    mode.add_argument("--padic", type=int, metavar="P", help="p-adic reading")
    p_check.add_argument("--probe", type=int, default=0, metavar="N", help="numeric probe points")
    p_check.add_argument("--tolerance", type=float, default=1e-9)
    p_check.add_argument("--seed", type=int, default=0, help="probe RNG seed")
    add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_spec = sub.add_parser("specialize", help="apply a specialization plan")
    p_spec.add_argument("document")
    p_spec.add_argument(
        "--step",
        action="append",
        metavar="VAR=TARGET[,c=AUX]",
        help="specialization step; TARGET is an expression or inf",
    )
    add_common(p_spec)
    p_spec.set_defaults(func=_cmd_specialize)

    p_wedge = sub.add_parser("wedge", help="print the boundary's beta decomposition")
    p_wedge.add_argument("document")
    add_common(p_wedge)
    p_wedge.set_defaults(func=_cmd_wedge)

    p_rel = sub.add_parser("relations", help="emit relation documents")
    p_rel.add_argument("kind", choices=("five", "inversion", "c"))
    p_rel.add_argument("--variables", default="", help="comma-separated names")
    # formal.FIELD_MODES and COEFF_MODES, kept here as PROBE_DOMAINS is
    p_rel.add_argument("--field", choices=("Q", "Qi"), default="Q")
    p_rel.add_argument("--coefficients", choices=("Z", "Q"), default="Z")
    p_rel.add_argument("--x")
    p_rel.add_argument("--y")
    p_rel.add_argument("--c")
    p_rel.set_defaults(func=_cmd_relations, json=False)

    p_probe = sub.add_parser("probe", help="numeric sampling of a document")
    p_probe.add_argument("document")
    p_probe.add_argument("--domain", choices=PROBE_DOMAINS, default="complex")
    p_probe.add_argument("--samples", type=int, default=100)
    p_probe.add_argument("--seed", type=int, default=0, help="probe RNG seed")
    add_common(p_probe)
    p_probe.set_defaults(func=_cmd_probe)

    p_fq = sub.add_parser("blochfq", help="Bloch groups of a small prime field")
    p_fq.add_argument("p", type=int)
    p_fq.add_argument("--oracle", action="store_true", help="cross-check with minor-gcd SNF")
    add_common(p_fq)
    p_fq.set_defaults(func=_cmd_blochfq)

    p_pad = sub.add_parser(
        "padic-branch-diff", help="branch dependence of the p-adic value at a point"
    )
    p_pad.add_argument("document")
    p_pad.add_argument("--p", type=int, required=True)
    p_pad.add_argument("--point", required=True, metavar="VAR=Q,...")
    p_pad.add_argument("--branch-a", default="0", metavar="Q", help="log_p(p) for branch a")
    p_pad.add_argument("--branch-b", default="1", metavar="Q", help="log_p(p) for branch b")
    p_pad.add_argument("--prec", type=int, default=32)
    add_common(p_pad)
    p_pad.set_defaults(func=_cmd_padic_branch_diff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    if args.command != "blochfq":
        _bind_document_names()
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, KeyError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
