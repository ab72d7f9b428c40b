"""The identity document format.

One identity per file, plain text, versioned header:

    dilog-identity v1
    # comment lines start with a hash
    field: Q            (Q | Qi; default Q)
    coefficients: Z     (Z | Q; default Z)
    variables: t1, t2
    term: 1 [t1*t2]
    term: -1/2 [(1-t1)/(1-t2)]

A variables entry may declare conjugate pairs with a tilde, for the
conjugation-locus criterion:

    variables: z ~ zbar, w ~ wbar

Each term line carries an exact rational coefficient followed by the
argument expression in square brackets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exprparse import (
    CoefficientLimitExceeded,
    DegreeLimitExceeded,
    DivisionByZeroConstant,
    ExprSyntaxError,
    UnknownVariable,
    parse_expression,
)
from .formal import FormalSum, check_term


HEADER = "dilog-identity v1"
_EXPRESSION_ERRORS = (
    ExprSyntaxError,
    UnknownVariable,
    DivisionByZeroConstant,
    DegreeLimitExceeded,
    CoefficientLimitExceeded,
)


class DocumentError(ValueError):
    """An error on a document line; `col`, when given, is a column inside
    that line's bracketed expression."""

    def __init__(self, message: str, line: int, col: int | None = None):
        where = f"line {line}" if col is None else f"line {line}, column {col} of the expression"
        super().__init__(f"{message} ({where})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class TermSpec:
    coefficient: Fraction
    expression: str
    line: int


@dataclass(frozen=True)
class IdentitySpec:
    field_mode: str
    coeff_mode: str
    variables: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    terms: tuple[TermSpec, ...]
    _sum: FormalSum | None = field(default=None, init=False, repr=False, compare=False)

    def var_swap(self) -> dict[str, str]:
        """One direction of each declared conjugate pair."""
        return {a: b for a, b in self.pairs}

    def formal_sum(self) -> FormalSum:
        """The document's formal sum, parsed on the first call and kept.

        The terms share one dict of parsed groups and expressions, so each
        distinct parenthesized group and each distinct argument of the
        document is parsed once; a five-term relation writes its x and y
        out in four of its five terms."""
        if self._sum is not None:
            return self._sum
        pairs = []
        shared: dict = {}
        for term in self.terms:
            try:
                # positional, for wrappers of parse_expression that take *args only
                f = parse_expression(term.expression, self.variables, self.field_mode, shared)
            except _EXPRESSION_ERRORS as exc:
                raise DocumentError(exc.reason, term.line, exc.col) from exc
            try:
                c = check_term(f, term.coefficient, self.variables, self.coeff_mode)
            except ValueError as exc:
                raise DocumentError(str(exc), term.line) from None
            pairs.append((f, c))
        total = FormalSum(self.variables, pairs, self.field_mode, self.coeff_mode)
        object.__setattr__(self, "_sum", total)
        return total


def load_document(text: str) -> IdentitySpec:
    lines = text.splitlines()
    field_mode = "Q"
    coeff_mode = "Z"
    variables: tuple[str, ...] | None = None
    pairs: list[tuple[str, str]] = []
    terms: list[TermSpec] = []
    saw_header = False

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != HEADER:
                raise DocumentError(f"first line must be {HEADER!r}", lineno)
            saw_header = True
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise DocumentError("expected 'key: value'", lineno)
        key = key.strip()
        value = value.strip()
        if key == "field":
            if value not in ("Q", "Qi"):
                raise DocumentError(f"field must be Q or Qi, got {value!r}", lineno)
            field_mode = value
        elif key == "coefficients":
            if value not in ("Z", "Q"):
                raise DocumentError(f"coefficients must be Z or Q, got {value!r}", lineno)
            coeff_mode = value
        elif key == "variables":
            if variables is not None:
                raise DocumentError("duplicate variables line", lineno)
            if not value:
                variables = ()
                continue
            names: list[str] = []
            for entry in value.split(","):
                entry = entry.strip()
                if not entry:
                    raise DocumentError("empty variable entry", lineno)
                if "~" in entry:
                    left, _, right = entry.partition("~")
                    left, right = left.strip(), right.strip()
                    if not left or not right or left == right:
                        raise DocumentError(f"bad conjugate pair {entry!r}", lineno)
                    pairs.append((left, right))
                    names.extend([left, right])
                else:
                    names.append(entry)
            if len(set(names)) != len(names):
                raise DocumentError("duplicate variable name", lineno)
            for name in names:
                if not (name[0].isalpha() or name[0] == "_") or not all(
                    c.isalnum() or c == "_" for c in name
                ):
                    raise DocumentError(f"bad variable name {name!r}", lineno)
            variables = tuple(names)
        elif key == "term":
            open_at = value.find("[")
            close_at = value.rfind("]")
            if open_at < 0 or close_at < open_at:
                raise DocumentError("term needs 'coefficient [expression]'", lineno)
            coeff_src = value[:open_at].strip()
            expr_src = value[open_at + 1 : close_at].strip()
            if value[close_at + 1 :].strip():
                raise DocumentError("trailing text after ]", lineno)
            if not expr_src:
                raise DocumentError("empty expression", lineno)
            try:
                coeff = Fraction(coeff_src if coeff_src else "1")
            except (ValueError, ZeroDivisionError):
                raise DocumentError(f"bad coefficient {coeff_src!r}", lineno) from None
            terms.append(TermSpec(coeff, expr_src, lineno))
        else:
            raise DocumentError(f"unknown key {key!r}", lineno)

    if not saw_header:
        raise DocumentError("empty document", 1)
    if variables is None:
        raise DocumentError("missing variables line", len(lines) or 1)
    if field_mode == "Qi" and "i" in variables:
        raise DocumentError("variable name 'i' collides with the imaginary unit", 1)
    if coeff_mode == "Z" and any(t.coefficient.denominator != 1 for t in terms):
        bad = next(t for t in terms if t.coefficient.denominator != 1)
        raise DocumentError(
            f"coefficient {bad.coefficient} is not an integer (coefficients: Z)", bad.line
        )
    spec = IdentitySpec(field_mode, coeff_mode, tuple(variables), tuple(pairs), tuple(terms))
    # parse eagerly so loading a document validates it; the sum is kept
    spec.formal_sum()
    return spec


def dump_document(spec: IdentitySpec) -> str:
    var_entries = []
    paired = {n for pair in spec.pairs for n in pair}
    emitted = set()
    for name in spec.variables:
        if name in emitted:
            continue
        match = next((pr for pr in spec.pairs if name in pr), None)
        if match is not None:
            var_entries.append(f"{match[0]} ~ {match[1]}")
            emitted.update(match)
        else:
            var_entries.append(name)
            emitted.add(name)
    if not paired <= emitted:
        raise ValueError(f"paired variables {sorted(paired - emitted)} are not declared")
    out = [
        HEADER,
        f"field: {spec.field_mode}",
        f"coefficients: {spec.coeff_mode}",
        "variables: " + ", ".join(var_entries),
    ]
    for term in spec.terms:
        out.append(f"term: {term.coefficient} [{term.expression}]")
    return "\n".join(out) + "\n"


def spec_from_formal_sum(alpha: FormalSum) -> IdentitySpec:
    """The document of alpha, with no conjugate pairs."""
    terms = tuple(TermSpec(Fraction(a), str(f), 0) for f, a in alpha.items())
    return IdentitySpec(alpha.field_mode, alpha.coeff_mode, alpha.universe, (), terms)
