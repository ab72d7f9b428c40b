"""Specialization of formal sums: substituting a value (possibly infinity)
for a variable, with the degenerate-argument correction.

Plain substitution can push arguments onto 0, 1, or infinity, where they
stop being admissible.  naive_eval performs the substitution into an
extended sum that tracks those three symbols explicitly with coefficients
c0, c1, cinf; the specialization operator then applies the correction

    alpha  ->  alpha - c1*[1] + c0*(C_c - [0]) - cinf*(C_c + [inf])

with C_c = [c] + [1-c] for the chosen auxiliary c.  The symbols cancel and
what remains is an honest formal sum over the smaller universe:

    sp(alpha) = ordinary part + (c0 - cinf) * ([c] + [1-c]).

The auxiliary c only shifts the result by a multiple of [c] + [1-c], whose
boundary is zero, so the constancy verdict never depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .formal import ExtendedFormalSum, FormalSum, c_element
from .ratfunc import INF, Indeterminate, RationalFunction
from .scalars import FieldElement, fe


class PointNotAdmissible(ValueError):
    def __init__(self, key, reason):
        super().__init__(f"argument [{key}] is not admissible at the point: {reason}")


@dataclass(frozen=True)
class SpecStep:
    """Eliminate `var` by sending it to `target` (a rational function of the
    remaining variables, or INF), with auxiliary constant `aux` (not 0 or 1).
    Neither may involve `var`; `sp` re-expresses both over the universe of
    the sum it specializes."""

    var: str
    target: object  # RationalFunction | INF
    aux: RationalFunction

    def __post_init__(self):
        if self.target is not INF:
            if not isinstance(self.target, RationalFunction):
                raise TypeError("target must be a RationalFunction or INF")
            if self.var in self.target.vars_used():
                raise ValueError(f"target may not involve {self.var}")
        if self.var in self.aux.vars_used():
            raise ValueError(f"aux may not involve {self.var}")
        if self.aux.is_zero() or self.aux.is_one():
            raise ValueError("aux constant must avoid 0 and 1")


def default_aux(universe) -> RationalFunction:
    """The auxiliary constant used when the caller does not pick one."""
    return RationalFunction.const(universe, fe(2))


def naive_eval(alpha: FormalSum, var: str, target) -> ExtendedFormalSum:
    """Substitute var -> target in every argument, collecting the symbols
    [0], [1], [inf] into explicit coefficients instead of failing."""
    ordinary = []
    c0 = c1 = cinf = Fraction(0)
    for f, a in alpha.items():
        v = f.substitute(var, target)
        if v is INF:
            cinf += a
        elif v.is_zero():
            c0 += a
        elif v.is_one():
            c1 += a
        else:
            ordinary.append((v, a))
    base = FormalSum(alpha.universe, ordinary, alpha.field_mode, alpha.coeff_mode)
    return ExtendedFormalSum(base, c0, c1, cinf)


def sp(alpha: FormalSum, step: SpecStep) -> FormalSum:
    """Specialize one variable away; the step's target and aux are read over
    alpha's universe, and the result lives over the remaining universe and
    contains no degenerate symbols."""
    target = step.target if step.target is INF else step.target.with_universe(alpha.universe)
    ext = naive_eval(alpha, step.var, target)
    result = ext.ordinary
    swing = ext.c0 - ext.cinf
    if swing:
        aux = step.aux.with_universe(alpha.universe)
        cc = c_element(aux, alpha.field_mode, alpha.coeff_mode)
        result = result + cc.scale(swing)
    rest = tuple(v for v in alpha.universe if v != step.var)
    return result.with_universe(rest)


def iterate(alpha: FormalSum, steps: tuple[SpecStep, ...]) -> FormalSum:
    """Apply the steps in order; each must eliminate a variable that is
    still in the universe."""
    for step in steps:
        if step.var not in alpha.universe:
            raise ValueError(f"variable {step.var} already eliminated")
        alpha = sp(alpha, step)
    return alpha


def evaluate_at_point(alpha: FormalSum, point: dict[str, FieldElement]) -> FormalSum:
    """Substitute every coordinate at once; each argument must stay in the
    admissible set (not 0, 1, a pole, or 0/0), else PointNotAdmissible
    names the offender.  Order-independent by construction."""
    missing = [v for v in alpha.universe if v not in point]
    if missing:
        raise ValueError(f"point does not assign {missing}")
    out = []
    for f, a in alpha.items():
        try:
            v = f.evaluate(point)
        except Indeterminate:
            raise PointNotAdmissible(f, "numerator and denominator vanish (0/0)") from None
        if v is INF:
            raise PointNotAdmissible(f, "the denominator vanishes there")
        if v.is_zero():
            raise PointNotAdmissible(f, "the value is 0")
        if v.is_one():
            raise PointNotAdmissible(f, "the value is 1")
        out.append((RationalFunction.const((), v), a))
    return FormalSum((), out, alpha.field_mode, alpha.coeff_mode)
