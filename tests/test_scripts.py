"""The demo scripts run to completion and print the recorded text.

Each runs in a subprocess, as a user runs it, so a script that an API
change breaks fails here; its stdout is compared with the bytes it printed
when this test was written, which pins the text of formal sums, extended
sums and p-adic numbers that the scripts show.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

SPECIALIZATION_DEMO = """\
duplication combination: -2*[-t] - 2*[t] + [t^2]
  specialized at t = 1:                  -2*[-1]
  specialized at t = inf, aux c = 2:     3*[-1] + 3*[2]
  specialized at t = inf, aux c = 3:     3*[-2] + 3*[3]

order dependence for [(t1 + 2*t2)/(t1 + t2)]:
  t1 -> 0 first, then t2 -> 0:           [2]
  t2 -> 0 first, then t1 -> 0:           0

table cell for the witness pair (2, t) at t -> 0:
  naive value (with degeneracy symbols): [-1] + [2] - [0]
  after the correction map:              0
"""

PADIC_BRANCH_DEMO = """\
p = 5, precision O(5^32), branches log_p(p) = 0 vs 1

z = 5
  dp_disc difference: 5^1 * 674482156008823086933 + O(5^32)
  valuation formula:  5^1 * 674482156008823086933 + O(5^32)
  discrepancy:        O(5^32)

z = 10
  dp_disc difference: 5^1 * 2590252045812345440831 + O(5^32)
  valuation formula:  5^1 * 2590252045812345440831 + O(5^32)
  discrepancy:        O(5^32)

z = 25/3
  dp_disc difference: 5^2 * 653839621009190970592 + O(5^32)
  valuation formula:  5^2 * 653839621009190970592 + O(5^32)
  discrepancy:        O(5^32)

z = 15/7
  dp_disc difference: 5^1 * 682367271482380188147 + O(5^32)
  valuation formula:  5^1 * 682367271482380188147 + O(5^32)
  discrepancy:        O(5^32)

"""


EXPECTED = {
    "specialization_demo.py": SPECIALIZATION_DEMO,
    "padic_branch_demo.py": PADIC_BRANCH_DEMO,
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_demo_script_prints_the_recorded_text(script):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == EXPECTED[script]
