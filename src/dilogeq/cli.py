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
import itertools
import json
import sys
from fractions import Fraction

from . import blochfq as bfq
from .document import (
    IdentitySpec,
    dump_document,
    load_document,
    spec_from_formal_sum,
)
from .exprparse import parse_expression
from .formal import FormalSum, c_element, five_term, inversion
from .intmat import minor_gcd_invariant_factors
from .numerics import PROBE_DOMAINS, ModPiSqHalf, SamplingExhausted, bloch_wigner, numeric_probe, rl_bar
from .padic import Branch, branch_diff, check_constant_padic
from .primes import OversizedConstant, is_prime
from .ratfunc import INF, RationalFunction
from .scalars import FieldElement, fe
from .specialize import PointNotAdmissible, SpecPlan, SpecStep, default_aux, evaluate_at_point, iterate
# check_constant_real (Bloch-Wigner on the real locus) decides no subcommand;
# it stays importable here because bench/tracer.py wraps it at this name
from .wedge import boundary, check_constant, check_constant_cc, check_constant_real  # noqa: F401


# ---------------------------------------------------------------------------
# shared rendering helpers
# ---------------------------------------------------------------------------


def _frac_str(q) -> str:
    return str(Fraction(q))


def _witness_json(witness) -> dict | None:
    if witness is None:
        return None
    if witness[0] == "pair":
        _, left, right, value = witness
        return {"kind": "pair", "left": str(left), "right": str(right), "value": _frac_str(value)}
    _, element, prime, value = witness
    return {"kind": "column", "element": str(element), "prime": str(prime), "value": _frac_str(value)}


def _witness_text(witness) -> str:
    w = _witness_json(witness)
    if w is None:
        return "none"
    if w["kind"] == "pair":
        return f"beta1 pairing ({w['left']}) ^ ({w['right']}) = {w['value']}"
    return f"beta2 column of ({w['element']}) at {w['prime']} = {w['value']}"


def _beta3_json(b3: dict) -> dict:
    return {
        "pairs": {f"{p} ^ {q}": _frac_str(v) for (p, q), v in b3["pairs"].items()},
        "units": {str(p): _frac_str(v) for p, v in b3["units"].items()},
        "unit_unit": _frac_str(b3["unit_unit"]),
    }


def _beta3_text(b3: dict) -> str:
    parts = [f"{p} ^ {q}: {v}" for (p, q), v in b3["pairs"].items()]
    parts += [f"{p} ^ unit: {v}" for p, v in b3["units"].items()]
    if b3["unit_unit"]:
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


def _find_points(alpha: FormalSum, count: int = 4, real: bool = False):
    """Up to `count` admissible points, with the exact values of the formal
    sum there.  Deterministic search over a fixed candidate grid: Gaussian
    rationals first over Q(i), rationals only for the real reading, which
    also skips a point where some argument takes a non-real value."""
    universe = alpha.universe
    if alpha.field_mode == "Qi" and not real:
        cands = [fe(c, 1) for c in (2, 3, -1, 5, 1, -2)] + [fe(c) for c in _POINT_CANDIDATES]
    else:
        cands = [fe(c) for c in _POINT_CANDIDATES]
    found = []
    tries = 0
    for combo in itertools.product(cands, repeat=len(universe)):
        tries += 1
        if tries > 20000:
            break
        point = dict(zip(universe, combo))
        try:
            value = evaluate_at_point(alpha, point)
        except PointNotAdmissible:
            continue
        if real and not all(f.constant_value().is_rational() for f, _ in value.items()):
            continue
        found.append((point, value))
        if len(found) >= count:
            break
    return found


def _numeric_of_value(value: FormalSum, mode: str) -> float | ModPiSqHalf:
    """Numeric reading of an exact point value (a sum over constants); in
    real mode a class mod pi^2/2, which only integer coefficients act on."""
    if mode == "real":
        total = ModPiSqHalf.of(0.0)
        for f, a in value.items():
            total = total + rl_bar(float(f.constant_value().re)).scale(a)
        return total
    total = 0.0
    for f, a in value.items():
        total += float(a) * bloch_wigner(f.constant_value().to_complex())
    return total


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _require_prime(flag: str, n: int):
    """Refuse an option value that trial division cannot prove prime."""
    try:
        prime = is_prime(n)
    except OversizedConstant:
        raise ValueError(f"{flag} {n} is too large to prove prime by trial division") from None
    if not prime:
        raise ValueError(f"{flag} {n} is not a prime")


def _cmd_check(args) -> int:
    if args.padic is not None:
        _require_prime("--padic", args.padic)
    spec = _read_document(args.document)
    alpha = spec.formal_sum()

    if args.cc:
        # declared pairs are conjugate, every other variable is real
        cert = check_constant_cc(alpha, spec.var_swap())
        mode = "cc"
    elif args.real:
        # the Rogers reading shares the complex criterion (see check_constant)
        cert = check_constant(alpha)
        mode = "real"
    elif args.padic is not None:
        cert = check_constant_padic(alpha)
        mode = "padic"
    else:
        cert = check_constant(alpha)
        mode = "complex"

    report = {
        "mode": mode,
        "verdict": cert.verdict,
        "witness": _witness_json(cert.witness),
        "beta3": _beta3_json(cert.residual_beta3),
        "notes": list(cert.notes),
    }
    lines = [f"verdict: {cert.verdict}"]
    if cert.witness is not None:
        lines.append(f"witness: {_witness_text(cert.witness)}")
    lines.append(f"residual beta3: {_beta3_text(cert.residual_beta3)}")

    if cert.is_constant() and mode in ("complex", "real"):
        points = _find_points(alpha, count=4, real=(mode == "real"))
        if points:
            pt_render = {k: str(v) for k, v in points[0][0].items()}
            report["point"] = pt_render
            report["value_at_point"] = str(points[0][1]) if not points[0][1].is_zero() else "0"
            lines.append(
                "point: " + ", ".join(f"{k} = {v}" for k, v in sorted(pt_render.items()))
            )
            lines.append(f"value at point: {report['value_at_point']}")
            if mode == "real" and any(a.denominator != 1 for _, a in alpha.items()):
                note = "no constant mod pi^2/2: the sum has non-integer coefficients"
                report["notes"].append(note)
                lines.append(f"note: {note}")
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
            note = "no admissible rational point found on the search grid"
            report["notes"].append(note)
            lines.append(f"note: {note}")

    if args.probe:
        if mode == "cc":
            raise ValueError("--probe is not available in cc mode")
        domain = "real" if mode == "real" else "complex"
        note = None
        try:
            pr = numeric_probe(alpha, domain=domain, samples=args.probe, seed=args.seed)
        except SamplingExhausted as exc:
            # the exact verdict stands without its numeric cross-check
            report["probe"] = None
            note = f"no probe: {exc}"
        else:
            report["probe"], line = _probe_report(pr)
            lines.append(line)
            if cert.is_constant() and pr.max_deviation > args.tolerance:
                note = (
                    f"probe deviation {pr.max_deviation!r} exceeds tolerance "
                    f"{args.tolerance!r} despite a Constant verdict"
                )
        if note:
            report["notes"].append(note)
            lines.append(f"note: {note}")

    for note in cert.notes:
        lines.append(f"note: {note}")

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
        aux = default_aux(spec.variables, var)
    return SpecStep(var, target, aux)


def _cmd_specialize(args) -> int:
    spec = _read_document(args.document)
    alpha = spec.formal_sum()
    steps = tuple(_parse_step(s, spec) for s in args.step or [])
    result = iterate(alpha, SpecPlan(steps))
    doc = dump_document(spec_from_formal_sum(result))
    report = {
        "result": str(result),
        "variables": list(result.universe),
        "terms": [
            {"coefficient": _frac_str(a), "expression": str(f)} for f, a in result.items()
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
        "basis": [str(b) for b in w.basis.elements],
        "beta1": {f"({l}) ^ ({r})": _frac_str(v) for (l, r), v in b1.items()},
        "beta2": {
            el: {p: _frac_str(v) for p, v in col.items()} for el, col in b2.items()
        },
        "beta3": _beta3_json(b3),
        "beta1_zero": w.beta1_is_zero(),
        "beta2_zero": w.beta2_is_zero(),
    }
    lines = ["basis: " + (", ".join(report["basis"]) if report["basis"] else "(empty)")]
    if b1:
        for (l, r), v in b1.items():
            lines.append(f"beta1 ({l}) ^ ({r}): {v}")
    else:
        lines.append("beta1: 0")
    if b2:
        for el, col in b2.items():
            cols = ", ".join(f"{p}: {v}" for p, v in col.items())
            lines.append(f"beta2 ({el}): {cols}")
    else:
        lines.append("beta2: 0")
    lines.append(f"beta3: {_beta3_text(b3)}")
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def _cmd_relations(args) -> int:
    variables = tuple(v.strip() for v in args.variables.split(",")) if args.variables else ()
    if variables == ("",):
        variables = ()

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
    sys.stdout.write(dump_document(spec_from_formal_sum(total)))
    return 0


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def _cmd_probe(args) -> int:
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
    if p > 97 and not args.allow_large:
        raise ValueError(f"p = {p} is past the default cap 97; pass --allow-large to proceed")
    if args.oracle and p > 7:
        raise ValueError("--oracle enumerates all minors; only feasible for p in {5, 7}")
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


def _parse_point(src: str, variables) -> dict[str, Fraction]:
    point = {}
    for part in src.split(","):
        name, sep, val = part.partition("=")
        name = name.strip()
        if not sep or name not in variables:
            raise ValueError(f"bad point coordinate {part!r}")
        point[name] = Fraction(val.strip())
    return point


def _cmd_padic_branch_diff(args) -> int:
    _require_prime("--p", args.p)
    if args.prec < 1:
        raise ValueError(f"--prec must be at least 1, got {args.prec}")
    spec = _read_document(args.document)
    alpha = spec.formal_sum()
    point = _parse_point(args.point, spec.variables)
    missing = [v for v in spec.variables if v not in point]
    if missing:
        raise ValueError(f"point does not assign {missing}")
    branch_a = Branch.of(args.p, Fraction(args.branch_a), args.prec)
    branch_b = Branch.of(args.p, Fraction(args.branch_b), args.prec)
    w = boundary(alpha)
    diff = branch_diff(w, point, branch_a, branch_b, prec=args.prec)
    report = {
        "p": args.p,
        "point": {k: _frac_str(v) for k, v in point.items()},
        "branch_a_log_p": _frac_str(args.branch_a),
        "branch_b_log_p": _frac_str(args.branch_b),
        "precision": args.prec,
        "difference": str(diff),
    }
    lines = [
        f"p: {args.p}",
        "point: " + ", ".join(f"{k} = {v}" for k, v in sorted(point.items())),
        f"log_p(p) values: {args.branch_a} vs {args.branch_b}",
        f"value difference (branch a minus branch b): {diff}",
    ]
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p_fq.add_argument("--allow-large", action="store_true")
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
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, KeyError, SyntaxError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
