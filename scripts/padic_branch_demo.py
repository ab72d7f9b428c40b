"""Show how the p-adic dilogarithm moves between branches of log_p.

For points inside the convergence disc, the difference of dp_disc values
under two branches is reproduced exactly by the valuation formula; the
demo prints both sides and how many digits they share.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dilogeq.formal import FormalSum  # noqa: E402
from dilogeq.padic import PadicNumber, branch_diff, dp_disc  # noqa: E402
from dilogeq.ratfunc import RationalFunction  # noqa: E402
from dilogeq.scalars import fe  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--prec", type=int, default=32)
    args = ap.parse_args()
    p, prec = args.p, args.prec

    branch_a = PadicNumber.from_rational(0, p, prec)  # log_p(p) = 0
    branch_b = PadicNumber.from_rational(1, p, prec)
    print(f"p = {p}, precision O({p}^{prec}), branches log_p(p) = 0 vs 1")
    print()

    for zq in (Fraction(p), Fraction(2 * p), Fraction(p * p, 3), Fraction(3 * p, 7)):
        zp = PadicNumber.from_rational(zq, p, prec)
        direct = dp_disc(zp, branch_a) - dp_disc(zp, branch_b)
        value = FormalSum.single(RationalFunction.const((), fe(zq)))
        formula = branch_diff(value, branch_a, branch_b, prec=prec)
        gap = direct - formula
        print(f"z = {zq}")
        print(f"  dp_disc difference: {direct}")
        print(f"  valuation formula:  {formula}")
        print(f"  discrepancy:        {gap}")
        print()


if __name__ == "__main__":
    main()
