"""Walk the specialization calculus through its standard examples.

Shows the duplication combination under t -> 1 and t -> infinity (with two
auxiliary choices), the order dependence of iterated specialization, and one
row of the degeneracy table.
"""

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dilogeq.formal import FormalSum, five_term  # noqa: E402
from dilogeq.ratfunc import INF, RationalFunction  # noqa: E402
from dilogeq.scalars import fe  # noqa: E402
from dilogeq.specialize import SpecStep, naive_eval, sp  # noqa: E402

T = ("t",)
T12 = ("t1", "t2")


def t(name="t", universe=T):
    return RationalFunction.var(universe, name)


def const(q, universe=T):
    return RationalFunction.const(universe, fe(q))


def show(label, value):
    print(f"  {label:<38} {value}")


def main():
    dup = FormalSum(T, {t() ** 2: Fraction(1), t(): Fraction(-2), -t(): Fraction(-2)})
    print(f"duplication combination: {dup}")
    show("specialized at t = 1:", sp(dup, SpecStep("t", const(1), const(2))))
    for c in (2, 3):
        show(
            f"specialized at t = inf, aux c = {c}:",
            sp(dup, SpecStep("t", INF, const(c))),
        )
    print()

    f = (t("t1", T12) + const(2, T12) * t("t2", T12)) / (t("t1", T12) + t("t2", T12))
    alpha = FormalSum.single(f)
    print(f"order dependence for {alpha}:")
    zero1 = SpecStep("t1", const(0, T12), const(5, T12))
    zero2 = SpecStep("t2", const(0, T12), const(5, T12))
    show("t1 -> 0 first, then t2 -> 0:", sp(sp(alpha, zero1), SpecStep("t2", const(0, ("t2",)), const(5, ("t2",)))))
    show("t2 -> 0 first, then t1 -> 0:", sp(sp(alpha, zero2), SpecStep("t1", const(0, ("t1",)), const(5, ("t1",)))))
    print()

    x, y = const(2), t()
    print(f"table cell for the witness pair ({x}, {y}) at t -> 0:")
    step = SpecStep("t", const(0), const(2))
    rel = five_term(x, y)
    show("naive value (with degeneracy symbols):", naive_eval(rel, "t", step.target))
    show("after the correction map:", sp(rel, step))


if __name__ == "__main__":
    main()
