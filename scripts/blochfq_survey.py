"""Tabulate Bloch-group data over small prime fields.

Usage: python3 scripts/blochfq_survey.py [--max-p N]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dilogeq.blochfq import bloch_groups  # noqa: E402
from dilogeq.primes import is_prime  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-p", type=int, default=31)
    args = ap.parse_args()

    header = f"{'p':>4} {'gens':>5} {'wedge^2':>8} {'pre(five)':>10} {'pre':>8} {'modified':>9}  c-facts"
    print(header)
    print("-" * len(header))
    for p in filter(is_prime, range(5, args.max_p + 1)):
        g = bloch_groups(p)
        wedge = f"Z/{g.wedge_square}" if g.wedge_square > 1 else "0"
        ok = "yes" if g.c_class_independent and g.three_c_in_span else "NO"
        print(
            f"{p:>4} {len(g.presentation.generators):>5} {wedge:>8} "
            f"{str(g.pre_bloch_five_only):>10} "
            f"{str(g.pre_bloch):>8} {str(g.modified_bloch):>9}  {ok}"
        )


if __name__ == "__main__":
    main()
