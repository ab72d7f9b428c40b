"""The demo scripts run to completion and print the recorded text.

Each runs in a subprocess, as a user runs it, so a script that an API
change breaks fails here; its stdout is compared with the bytes it printed
when this test was written, which pins the text of formal sums, extended
sums and p-adic numbers that the scripts show and the Bloch-group table
of the survey over the primes up to 31.  The seed-1 part of
`tests/report_record.json` is recorded again on the working tree and
compared with the file.  `code_lines.py` is run on a fixture of two
modules, `report_diff.py` compares the reports of HEAD with those of the
working tree on a few documents, and `bench_pairs.py` benchmarks HEAD
against the working tree.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import moved_report_digests

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

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

# the default --max-p 31: a drift in any Bloch-group table shows here
BLOCHFQ_SURVEY = """\
   p  gens  wedge^2  pre(five)      pre  modified  c-facts
----------------------------------------------------------
   5     3        0        Z/6      Z/3       Z/3  yes
   7     5      Z/2        Z/8      Z/4       Z/2  yes
  11     9      Z/2       Z/12      Z/6       Z/3  yes
  13    11        0       Z/14      Z/7       Z/7  yes
  17    15        0       Z/18      Z/9       Z/9  yes
  19    17      Z/2       Z/20     Z/10       Z/5  yes
  23    21      Z/2       Z/24     Z/12       Z/6  yes
  29    27        0       Z/30     Z/15      Z/15  yes
  31    29      Z/2       Z/32     Z/16       Z/8  yes
"""


EXPECTED = {
    "specialization_demo.py": SPECIALIZATION_DEMO,
    "padic_branch_demo.py": PADIC_BRANCH_DEMO,
    "blochfq_survey.py": BLOCHFQ_SURVEY,
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


CODE_LINES_FIXTURE = {
    # 4: the import, the def and the two lines of the return
    "a.py": '''"""Module docstring
over two lines."""

import os  # a comment

# a whole-line comment


def f(x):
    """One-line docstring."""
    return (x +
            1)
''',
    # 5: a string that opens no body is code, as is each line of a statement
    "b.py": '''class C:
    """Class docstring."""

    x = 1
    "not a docstring"
    y = """two
lines"""
''',
}


def test_code_lines_counts_each_module_and_the_total(tmp_path):
    for name, text in CODE_LINES_FIXTURE.items():
        (tmp_path / name).write_text(text)
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    rows = [line.split() for line in done.stdout.decode().splitlines()]
    assert rows == [["a.py", "4"], ["b.py", "5"], ["total", "9"]]


@pytest.mark.skipif(
    not (ROOT / ".git").exists() or shutil.which("git") is None,
    reason="needs a git checkout",
)
def test_code_lines_compares_a_git_revision_with_this_checkout():
    def rows(*flags):
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "code_lines.py"), *flags],
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        return [line.split() for line in done.stdout.decode().splitlines()]

    here = rows()
    both = rows("--against", "HEAD")
    assert both[-1][0] == "change" and both[-2][0] == "total"
    modules = both[:-2]
    # this checkout's column is the plain count; a module missing on one
    # side reads "-" there
    assert [(r[0], r[2]) for r in modules if r[2] != "-"] + [("total", both[-2][2])] == [
        tuple(r) for r in here
    ]
    old, new = (sum(int(r[i]) for r in modules if r[i] != "-") for i in (1, 2))
    assert both[-2][1:] == [str(old), str(new)]
    assert both[-1][1] == f"{new - old:+d}"


def test_the_report_record_matches_this_checkout():
    moved = moved_report_digests()
    assert not moved, "seed-1 digests moved (rerun python3 scripts/record_reports.py): " + ", ".join(
        f"{part} {name!r}" for part, name in moved
    )


@pytest.mark.skipif(
    not (ROOT / ".git").exists() or shutil.which("git") is None,
    reason="needs a git checkout",
)
def test_report_diff_takes_a_git_revision(monkeypatch, capsys):
    # HEAD is exported with git archive; the working tree of a committed
    # change gives the same report bytes
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import report_diff

    # the first six seed-1 documents hold one in x and y and one under --real
    monkeypatch.setattr(report_diff, "DOCS", 6)
    cases = report_diff.load_inputs().docs_cases(1, 6)
    assert ("x", "y") in {case.variables for case in cases}
    assert any("--real" in case.flags for case in cases)
    monkeypatch.setattr(sys, "argv", ["report_diff.py", "HEAD", str(ROOT), "--seeds", "1"])
    with pytest.raises(SystemExit) as done:
        report_diff.main()
    out = capsys.readouterr().out
    assert done.value.code == 0, out
    runs = sum(len(report_diff.commands(Path(case.name), case)) for case in cases)
    assert out.splitlines()[0].startswith(f"seed 1: 6 documents, {runs} runs, ")
    assert out.splitlines()[0].endswith(" 0 moved, largest change 0, 0 differences")


def test_report_diff_names_each_difference(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from report_diff import MOD_HALF_PISQ, Diff

    def compare(old, new, real=False):
        diff = Diff()
        diff.compare_run(old, new, "doc", real)
        return diff.problems, diff.shifts

    assert compare([0, "verdict: Constant\n", ""], [0, "verdict: NotConstant\n", ""]) == (
        ["doc.0.0: 'verdict: Constant' became 'verdict: NotConstant'"], [],
    )
    assert compare([0, "", ""], [2, "", "error: bad\n"]) == (
        ["doc: exit 0 became 2", "doc: stderr '' became 'error: bad\\n'"], [],
    )
    # a float may move by 1e-12 relative, and is listed; beyond, it differs
    assert compare([0, "value: 1.25\n", ""], [0, "value: 1.2500001\n", ""]) == (
        ["doc.0.1: 1.25 became 1.2500001 (by 1e-07)"], [],
    )
    assert compare([0, "value: 1.25\n", ""], [0, "value: 1.2500000000000002\n", ""]) == (
        [], ["doc.0.1: 1.25 became 1.2500000000000002 (by 2.22e-16)"],
    )
    # in real mode a constant is a class mod pi^2/2
    old, new = ([0, json.dumps({"constant": c}), ""] for c in (1e-14, MOD_HALF_PISQ - 1e-14))
    problems, shifts = compare(old, new, real=True)
    assert problems == [] and shifts[0].startswith("doc.constant: 1e-14 became 4.934")
    assert compare(old, new)[0][0].startswith("doc.constant: 1e-14 became 4.934")


@pytest.mark.skipif(
    not (ROOT / ".git").exists() or shutil.which("git") is None,
    reason="needs a git checkout",
)
def test_bench_pairs_compares_a_git_revision_with_a_directory():
    done = subprocess.run(
        [
            sys.executable, str(SCRIPTS / "bench_pairs.py"), "HEAD", str(ROOT),
            "--workload", "bloch-fq", "--pairs", "1", "--seconds", "1",
        ],
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout.decode() + done.stderr.decode()
    lines = done.stdout.decode().splitlines()
    assert lines[0].startswith("bloch-fq, seed 1, 1 s runs, 1 pairs; ")
    assert lines[1].split()[0] == "metric"
    rows = [line.split() for line in lines[2:-1]]
    assert [row[0] for row in rows] == [
        "ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb",
    ]
    # the last line gives each side's report digest; one pair agrees with itself
    assert re.fullmatch(
        r"all_reports_sha256: old [0-9a-f]{64} \(agree over 1 pairs\); "
        r"new [0-9a-f]{64} \(agree over 1 pairs\); sides (agree|differ)",
        lines[-1],
    ), lines[-1]
    assert lines[1].split()[-3:] == ["wins", "gain", "bound"]
    for *_, wins, gain, bound in rows:
        assert wins in ("0/1", "1/1") and bound in ("ok", "over")
        # one pair has no spread, so a won pair is a gain
        assert gain == ("yes" if wins == "1/1" else "no")
    assert all(len(row) == 11 for row in rows)


def test_bench_pairs_digest_line(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from bench_pairs import digest_line

    a, b = "a" * 64, "b" * 64
    assert digest_line([a, a], [a, a]) == (
        f"all_reports_sha256: old {a} (agree over 2 pairs); new {a} (agree over 2 pairs); sides agree"
    )
    assert digest_line([a, a], [b, b]).endswith(f"new {b} (agree over 2 pairs); sides differ")
    assert digest_line([b, a], [a, b]) == (
        f"all_reports_sha256: old {a},{b} (differ over 2 pairs); new {a},{b} (differ over 2 pairs); sides differ"
    )


def test_bench_pairs_verdicts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from bench_pairs import verdicts

    higher = {"better": "higher", "bound": 0.25}
    lower = {"better": "lower", "bound": 0.25}
    old = [100.0, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartiles 101.75, 107.25
    # 9 of 10 wins and a median 6 above OLD's 104.5: a gain
    assert verdicts(higher, old, [x + 7 for x in old[:9]] + [0]) == (9, "yes", "ok")
    # the same wins, but a median 4 above, inside OLD's interquartile range 5.5
    assert verdicts(higher, old, [x + 5 for x in old[:9]] + [0]) == (9, "no", "ok")
    # 8 of 10 wins are not enough
    assert verdicts(higher, old, [x + 9 for x in old[:8]] + [0, 0]) == (8, "no", "ok")
    # a median more than a quarter worse breaks the bound, either way round
    assert verdicts(higher, old, [x * 0.7 for x in old]) == (0, "no", "over")
    assert verdicts(lower, old, [x * 1.3 for x in old]) == (0, "no", "over")
    assert verdicts(lower, old, [x * 1.2 for x in old]) == (0, "no", "ok")
