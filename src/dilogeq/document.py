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

from .exprparse import ExpressionError, parse_expression
from .formal import COEFF_MODES, FIELD_MODES, FormalSum, check_term


HEADER = "dilog-identity v1"


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
            except ExpressionError as exc:
                raise DocumentError(exc.reason, term.line, exc.col) from exc
            try:
                c = check_term(f, term.coefficient, self.variables, self.coeff_mode)
            except ValueError as exc:
                raise DocumentError(str(exc), term.line) from None
            pairs.append((f, c))
        total = FormalSum(self.variables, pairs, self.field_mode, self.coeff_mode)
        object.__setattr__(self, "_sum", total)
        return total


def parse_variables(value: str) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """The names and conjugate pairs of a `variables:` value, in order; a
    blank value declares none.  Raises ValueError."""
    if not value.strip():
        return (), ()
    names: list[str] = []
    pairs: list[tuple[str, str]] = []
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            raise ValueError("empty variable entry")
        if "~" in entry:
            left, _, right = entry.partition("~")
            left, right = left.strip(), right.strip()
            if not left or not right or left == right:
                raise ValueError(f"bad conjugate pair {entry!r}")
            pairs.append((left, right))
            names.extend([left, right])
        else:
            names.append(entry)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable name")
    for name in names:
        if not (name[0].isalpha() or name[0] == "_") or not all(
            c.isalnum() or c == "_" for c in name
        ):
            raise ValueError(f"bad variable name {name!r}")
    return tuple(names), tuple(pairs)


def load_document(text: str) -> IdentitySpec:
    lines = text.splitlines()
    # the first of each key's choices is its default
    modes = {"field": FIELD_MODES, "coefficients": COEFF_MODES}
    chosen = {key: choices[0] for key, choices in modes.items()}
    variables: tuple[str, ...] | None = None
    pairs: tuple[tuple[str, str], ...] = ()
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
        if key in modes:
            if value not in modes[key]:
                choices = " or ".join(modes[key])
                raise DocumentError(f"{key} must be {choices}, got {value!r}", lineno)
            chosen[key] = value
        elif key == "variables":
            if variables is not None:
                raise DocumentError("duplicate variables line", lineno)
            try:
                variables, pairs = parse_variables(value)
            except ValueError as exc:
                raise DocumentError(str(exc), lineno) from None
            variables_line = lineno
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
    if chosen["field"] == "Qi" and "i" in variables:
        raise DocumentError("variable name 'i' collides with the imaginary unit", variables_line)
    spec = IdentitySpec(chosen["field"], chosen["coefficients"], variables, pairs, tuple(terms))
    # parse eagerly so loading a document validates it; the sum is kept
    spec.formal_sum()
    return spec


def dump_document(alpha: FormalSum, pairs) -> str:
    """The document of alpha whose variables line declares the conjugate
    pairs `pairs`; raises ValueError when that line would not read back as
    alpha's universe and these pairs."""
    partner = dict(pairs)
    line = ", ".join(
        f"{n} ~ {partner[n]}" if n in partner else n
        for n in alpha.universe
        if n not in partner.values()
    )
    if parse_variables(line) != (alpha.universe, tuple(pairs)):
        raise ValueError(f"pairs {list(pairs)} do not read back over {list(alpha.universe)}")
    out = [
        HEADER,
        f"field: {alpha.field_mode}",
        f"coefficients: {alpha.coeff_mode}",
        f"variables: {line}".rstrip(),
    ]
    for f, a in alpha.items():
        out.append(f"term: {a} [{f}]")
    return "\n".join(out) + "\n"
