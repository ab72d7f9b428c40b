"""Expression grammar for rational functions.

Accepts integers, rationals written with /, declared variable names,
+ - * / ^ with integer exponents, parentheses, and the literal i when the
field mode is gaussian.  Every error carries a 1-based line and column.

The parser evaluates directly into RationalFunction normal form; there is
no retained syntax tree.  Before each operation it bounds the total degree
of the numerator and denominator the operation builds (before cancelling
common factors), and refuses one above MAX_DEGREE, so a short expression
such as t^1000000000 cannot ask for unbounded memory.  It also bounds the
coefficient size the operation builds, from the largest bit length among
the parts of each operand's coefficients: bits(lhs) + bits(rhs) + 1 for
+ and -, bits(lhs) + bits(rhs) for * and /, and |exponent| * bits(base)
for ^, and refuses an estimate above MAX_COEFFICIENT_BITS.  So a constant
power such as 2^999999999999, which has degree 0, is bounded too, and so
is a product or a sum of powers that each pass, such as
3^300000*3^300000*3^300000.

Sharing: `parse_expression` takes a `shared` dict from the token texts of
an expression, or of a parenthesized group, to its value.  A group or a
whole expression whose tokens are already there is not parsed again; the
stored value is returned, so the same object serves every copy.  A document
passes one dict to all its terms, which is what a five-term relation asks
for: it writes x and y out in four of its five arguments.  The key ignores
whitespace but not the universe or the field mode, so one dict serves one
universe and one field mode.  Sharing changes no result: rational
functions and polynomials are never changed after they are built (their
lazy caches are functions of the value), the same tokens run the same
operations and so build the same factor maps, a group that raised is never
stored, so an error is raised by a fresh parse at its own position, and the
operations around a shared group still check their limits.
"""

from __future__ import annotations

from .formal import FIELD_MODES
from .ratfunc import RationalFunction, ZeroDenominator
from .scalars import I, FieldElement


MAX_DEGREE = 100_000
"""The largest total degree a numerator or denominator may reach while an
expression is evaluated."""

MAX_COEFFICIENT_BITS = 1_000_000
"""The largest bit length an operation may give a coefficient part, as the
module docstring estimates it from the operands'."""


class ExpressionError(ValueError):
    """An error in an expression at a 1-based line and column.  `reason` is
    the message without the position, so that a caller holding the
    expression's place in a larger text can restate it."""

    def __init__(self, reason: str, line: int, col: int):
        super().__init__(f"{reason} (line {line}, column {col})")
        self.reason = reason
        self.line = line
        self.col = col


_ZERO_DIVISOR = "division by an identically zero expression"


def _degrees(f: RationalFunction) -> tuple[int, int]:
    return max(f.num.total_degree(), 0), max(f.den.total_degree(), 0)


def _check_size(num_degree: int, den_degree: int, bits: int, op: "_Token"):
    """Refuse the operation op when the degrees or the coefficient size it
    would build are above their limits."""
    degree = max(num_degree, den_degree)
    if degree > MAX_DEGREE:
        reason = f"total degree {degree} is above the limit {MAX_DEGREE}"
        raise ExpressionError(reason, op.line, op.col)
    if bits > MAX_COEFFICIENT_BITS:
        reason = f"coefficient size {bits} bits is above the limit {MAX_COEFFICIENT_BITS}"
        raise ExpressionError(reason, op.line, op.col)


def _coefficient_bits(f: RationalFunction) -> int:
    """The largest bit length among the parts a, b, d of f's coefficients."""
    return max(
        max(c.a.bit_length(), c.b.bit_length(), c.d.bit_length())
        for p in (f.num, f.den)
        for c in p.terms.values()
    )


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "int" | "name" | one of "+-*/^()" | "end"
        self.text = text
        self.line = line
        self.col = col


def _tokenize(src: str) -> list[_Token]:
    out = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch.isdecimal():  # what int() reads; isdigit() also takes '²'
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            out.append(_Token("int", src[i:j], line, col))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(_Token("name", src[i:j], line, col))
            col += j - i
            i = j
        elif ch in "+-*/^()":
            out.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", line, col)
    out.append(_Token("end", "", line, col))
    return out


def _matching_parens(tokens: list[_Token]) -> dict[int, int]:
    """{index of a "(": index of the ")" that closes it}."""
    close: dict[int, int] = {}
    open_at: list[int] = []
    for k, tok in enumerate(tokens):
        if tok.kind == "(":
            open_at.append(k)
        elif tok.kind == ")" and open_at:
            close[open_at.pop()] = k
    return close


def _key(tokens: list[_Token]) -> tuple[str, ...]:
    return tuple(tok.text for tok in tokens)


class _Parser:
    def __init__(self, tokens: list[_Token], universe: tuple[str, ...], gaussian: bool, shared: dict):
        self.toks = tokens
        self.pos = 0
        self.universe = universe
        self.gaussian = gaussian
        self.shared = shared
        self.close = _matching_parens(tokens)

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            what = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ExpressionError(f"expected {kind!r}, found {what}", tok.line, tok.col)
        return self.take()

    def parse(self) -> RationalFunction:
        value = self.sum_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.text!r} after expression", tok.line, tok.col)
        return value

    def sum_expr(self) -> RationalFunction:
        value = self.term()
        while self.peek().kind in "+-":
            op = self.take()
            rhs = self.term()
            (na, da), (nb, db) = _degrees(value), _degrees(rhs)
            bits = _coefficient_bits(value) + _coefficient_bits(rhs) + 1
            _check_size(max(na + db, nb + da), da + db, bits, op)
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self) -> RationalFunction:
        value = self.unary()
        while self.peek().kind in "*/":
            op = self.take()
            rhs = self.unary()
            (na, da), (nb, db) = _degrees(value), _degrees(rhs)
            bits = _coefficient_bits(value) + _coefficient_bits(rhs)
            if op.kind == "*":
                _check_size(na + nb, da + db, bits, op)
                value = value * rhs
            else:
                _check_size(na + db, da + nb, bits, op)
                try:
                    value = value / rhs
                except ZeroDenominator:
                    raise ExpressionError(_ZERO_DIVISOR, op.line, op.col) from None
        return value

    def unary(self) -> RationalFunction:
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            return -self.unary()
        if tok.kind == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> RationalFunction:
        base = self.atom()
        if self.peek().kind != "^":
            return base
        op = self.take()
        exp = self.signed_int()
        num_degree, den_degree = _degrees(base)
        n = abs(exp)
        _check_size(num_degree * n, den_degree * n, n * _coefficient_bits(base), op)
        try:
            return base ** exp
        except ZeroDenominator:
            raise ExpressionError(_ZERO_DIVISOR, op.line, op.col) from None

    def signed_int(self) -> int:
        tok = self.peek()
        if tok.kind in ("-", "+"):
            self.take()
            return -self.signed_int() if tok.kind == "-" else self.signed_int()
        if tok.kind == "(":
            self.take()
            value = self.signed_int()
            self.expect(")")
            return value
        lit = self.expect("int")
        return int(lit.text)

    def atom(self) -> RationalFunction:
        tok = self.take()
        if tok.kind == "int":
            return RationalFunction.const(self.universe, FieldElement(int(tok.text)))
        if tok.kind == "name":
            if self.gaussian and tok.text == "i":
                return RationalFunction.const(self.universe, I)
            if tok.text in self.universe:
                return RationalFunction.var(self.universe, tok.text)
            hint = "; the literal i needs field mode Qi" if tok.text == "i" else ""
            raise ExpressionError(f"unknown variable {tok.text!r}{hint}", tok.line, tok.col)
        if tok.kind == "(":
            end = self.close.get(self.pos - 1)
            key = None if end is None else _key(self.toks[self.pos : end])
            value = self.shared.get(key)
            if value is not None:
                self.pos = end + 1
                return value
            value = self.sum_expr()
            self.expect(")")
            if key is not None:
                self.shared[key] = value
            return value
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExpressionError(f"expected a value, found {what}", tok.line, tok.col)


def parse_expression(
    src: str,
    variables: tuple[str, ...],
    field_mode: str = "Q",
    shared: dict[tuple[str, ...], RationalFunction] | None = None,
) -> RationalFunction:
    """Parse src into a rational function over the declared variables.

    `shared`, when given, holds the values of expressions and groups parsed
    before with the same variables and field mode; this parse reads it and
    adds to it (see the module docstring)."""
    if field_mode not in FIELD_MODES:
        raise ValueError(f"unknown field mode {field_mode!r}")
    gaussian = field_mode == "Qi"
    if gaussian and "i" in variables:
        raise ValueError("variable name 'i' collides with the imaginary unit in field mode Qi")
    if shared is None:
        shared = {}
    tokens = _tokenize(src)
    key = _key(tokens[:-1])
    value = shared.get(key)
    if value is None:
        value = _Parser(tokens, tuple(variables), gaussian, shared).parse()
        shared[key] = value
    return value
