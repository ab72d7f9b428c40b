"""Compare the reports of two checkouts on the benchmark's documents.

Usage: python3 scripts/report_diff.py OLD NEW [--seeds 1-2]

OLD and NEW are each a checkout directory or a git revision of this
checkout, such as HEAD: a revision is exported with `git archive` into a
temporary directory, so a change is compared with its parent in one
command (`report_diff.py HEAD .`).  The documents come from this
checkout's `bench/inputs.py` (read, not changed; it imports nothing from
the package, so a seed gives the same documents at every commit), with the
flags the benchmark's `docs-check` workload passes.  Each checkout runs
six commands on every document and a seventh on a document in x and y,
each with and without `--json`:
`dilogeq check DOC FLAGS`, `dilogeq wedge DOC`, `dilogeq padic-branch-diff
DOC --p 5` at t = 5, or at x = 5, y = 3 on a document in x and y,
`dilogeq padic-branch-diff DOC --p 2` at t = 3, or at x = 3, y = 5, where
the log squares the unit and the bracket's 1/2 is not a unit, and
`dilogeq specialize DOC --step V=2` and `--step V=inf,c=3`, with V the
document's first variable (t, or x), and on a document in x and y
`dilogeq specialize DOC --step x=(y+1)/(y-1)`, at a target that is a
rational function.  All run in one child process that imports the package
from that checkout's `src/`.

Exit codes and error messages must be equal, and every report field other
than a float byte-identical; a text report is read line by line, each
line split into its floats and the text between them.  Floats must agree
within 1e-12 * max(1, |old|, |new|).  In real mode the constant and the
probe's mean value are classes mod pi^2/2, so they are compared by their
distance in R/(pi^2/2)Z.  Prints one summary line per seed, each float
that moved within the tolerance, and each difference; exits 1 on any
difference.
"""

import argparse
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MOD_HALF_PISQ = math.pi * math.pi / 2
TOL = 1e-12
# documents compared per seed: four blocks of the docs-check mix
DOCS = 240
# the padic-branch-diff primes and their points, one coordinate per
# variable in order
BRANCH_POINTS = {5: (5, 3), 2: (3, 5)}
# the specialize steps, each sending the first variable V to a target
SPEC_STEPS = ("{}=2", "{}=inf,c=3")
# the specialize step of a document in x and y, at a rational function
XY_STEP = "x=(y+1)/(y-1)"

# the report fields that hold a class mod pi^2/2 in real mode
REAL_CLASSES = {("constant",), ("probe", "mean_value")}
# the text that precedes each of them on its line of a text report
TEXT_CLASSES = ("constant: ", ", mean ")
# a float's repr in a text report: digits with a point or an exponent,
# which no other number of a report has
FLOAT = re.compile(r"(?<![\w.])(-?\d+(?:\.\d+(?:e[-+]?\d+)?|e[-+]?\d+))(?![\w.])")

# Runs in the child: argv[1] is the checkout's src/, argv[2] a JSON list of
# argument lists, argv[3] the file the [exit code, stdout, stderr] of each
# run are written to.
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from dilogeq.cli import main
results = []
with open(sys.argv[2]) as fh:
    jobs = json.load(fh)
for argv in jobs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
with open(sys.argv[3], "w") as fh:
    json.dump(results, fh)
"""


def load_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs
    spec.loader.exec_module(inputs)
    return inputs


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def export_revision(revision: str, target: Path) -> Path:
    """Write the tree of a git revision of this checkout under target."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return target


def run_checkout(checkout: Path, argvs: list[list[str]], workdir: Path) -> list:
    jobs = workdir / "jobs.json"
    results = workdir / "results.json"
    jobs.write_text(json.dumps(argvs))
    subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout / "src"), str(jobs), str(results)],
        check=True,
    )
    return json.loads(results.read_text())


class Diff:
    """Walks two reports together and records every difference."""

    def __init__(self):
        self.floats = 0
        self.moved = 0
        self.largest = 0.0
        self.shifts: list[str] = []
        self.problems: list[str] = []

    def compare(self, old, new, path: tuple, classes: set, where: str) -> None:
        """Record how `new` differs from `old`; the floats at the paths in
        `classes` are classes mod pi^2/2."""
        name = where + ("." + ".".join(map(str, path)) if path else "")
        if type(old) is not type(new):
            self.problems.append(f"{name}: {old!r} became {new!r}")
        elif isinstance(old, float):
            self.floats += 1
            if path in classes:
                gap = abs(new - old) % MOD_HALF_PISQ
                gap = min(gap, MOD_HALF_PISQ - gap)
            else:
                gap = abs(new - old)
            if gap:
                self.moved += 1
                self.largest = max(self.largest, gap)
                line = f"{name}: {old!r} became {new!r} (by {gap:.3g})"
                if gap > TOL * max(1.0, abs(old), abs(new)):
                    self.problems.append(line)
                else:
                    self.shifts.append(line)
        elif isinstance(old, dict):
            if old.keys() != new.keys():
                self.problems.append(f"{name}: keys {sorted(old)} became {sorted(new)}")
                return
            for key in old:
                self.compare(old[key], new[key], path + (key,), classes, where)
        elif isinstance(old, list):
            if len(old) != len(new):
                self.problems.append(f"{name}: {old!r} became {new!r}")
                return
            for k, (a, b) in enumerate(zip(old, new)):
                self.compare(a, b, path + (k,), classes, where)
        elif old != new:
            self.problems.append(f"{name}: {old!r} became {new!r}")

    def compare_run(self, old: list, new: list, where: str, real: bool) -> None:
        (old_code, old_out, old_err), (new_code, new_out, new_err) = old, new
        if old_code != new_code:
            self.problems.append(f"{where}: exit {old_code} became {new_code}")
        if old_err != new_err:
            self.problems.append(f"{where}: stderr {old_err!r} became {new_err!r}")
        if not old_out and not new_out:
            return
        try:
            old_report, new_report = json.loads(old_out), json.loads(new_out)
            classes = REAL_CLASSES
        except json.JSONDecodeError:
            old_report, new_report = text_report(old_out), text_report(new_out)
            classes = text_classes(old_report)
        self.compare(old_report, new_report, (), classes if real else set(), where)


def text_report(out: str) -> list[list]:
    """Each line of a text report as its pieces: the text between floats at
    even positions, the floats at odd ones."""
    lines = []
    for line in out.splitlines():
        pieces = FLOAT.split(line)
        pieces[1::2] = map(float, pieces[1::2])
        lines.append(pieces)
    return lines


def text_classes(lines: list[list]) -> set:
    """The paths of the floats of a real-mode text report that are classes
    mod pi^2/2: the constant and the probe's mean."""
    return {
        (k, j)
        for k, pieces in enumerate(lines)
        for j in range(1, len(pieces), 2)
        if pieces[j - 1].endswith(TEXT_CLASSES)
    }


def commands(path: Path, case) -> list[list[str]]:
    """The commands run on the document `case`, written at `path`."""
    argvs = [
        ["check", str(path), "--json", *case.flags],
        ["check", str(path), *case.flags],
        ["wedge", str(path)],
        ["wedge", str(path), "--json"],
    ]
    for p, values in BRANCH_POINTS.items():
        point = ",".join(f"{v}={q}" for v, q in zip(case.variables, values))
        branch = ["padic-branch-diff", str(path), "--p", str(p), "--point", point]
        argvs += [branch, [*branch, "--json"]]
    steps = [step.format(case.variables[0]) for step in SPEC_STEPS]
    if case.variables == ("x", "y"):
        steps.append(XY_STEP)
    for step in steps:
        spec = ["specialize", str(path), "--step", step]
        argvs += [spec, [*spec, "--json"]]
    return argvs


def label(argv: list[str]) -> str:
    """A command and its flags, without the document's path."""
    return " ".join(argv[:1] + argv[2:])


def document_runs(inputs, seed: int, workdir: Path) -> list[tuple]:
    """Write the seed's documents under `workdir`; each (document, argv) of
    the commands run on them, in document order."""
    runs = []
    for case in inputs.docs_cases(seed, DOCS):
        path = workdir / case.name
        path.write_text(case.text)
        runs += [(case, argv) for argv in commands(path, case)]
    return runs


def compare_checkouts(old_checkout: Path, new_checkout: Path, seeds: list[int]) -> bool:
    """Print what each seed's reports show; True when any of them differ."""
    inputs = load_inputs()
    failed = False
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            runs = document_runs(inputs, seed, Path(tmp))
            argvs = [argv for _, argv in runs]
            old = run_checkout(old_checkout, argvs, Path(tmp))
            new = run_checkout(new_checkout, argvs, Path(tmp))
        diff = Diff()
        for (case, argv), a, b in zip(runs, old, new):
            diff.compare_run(a, b, f"seed {seed} {case.name}: {label(argv)}", "--real" in case.flags)
        documents = len({case.name for case, _ in runs})
        print(
            f"seed {seed}: {documents} documents, {len(runs)} runs, {diff.floats} floats, "
            f"{diff.moved} moved, largest change {diff.largest:.3g}, "
            f"{len(diff.problems)} differences"
        )
        for line in diff.shifts:
            print("  moved " + line)
        for line in diff.problems:
            print("  " + line)
        failed |= bool(diff.problems)
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="checkout directory or git revision of the old code")
    ap.add_argument("new", help="checkout directory or git revision of the new code")
    ap.add_argument("--seeds", default="1-2", help="inclusive range, e.g. 1-2")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as exported:
        checkouts = []
        for side in ("old", "new"):
            source = getattr(args, side)
            checkout = Path(source)
            if not checkout.is_dir():
                try:
                    checkout = export_revision(source, Path(exported) / side)
                except subprocess.CalledProcessError:
                    ap.error(f"{source} is neither a directory nor a git revision")
            checkouts.append(checkout.resolve())
        failed = compare_checkouts(*checkouts, seed_range(args.seeds))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
