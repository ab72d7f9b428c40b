"""Record the report bytes of this checkout in `tests/report_record.json`.

Usage: python3 scripts/record_reports.py

Runs the commands of `report_diff.py` on the benchmark's `docs-check`
documents of seeds 1 and 2 (from `bench/inputs.py`, with the workload's
flags), and `blochfq P` in text and with `--json` for every prime
5 <= P <= 97, the cap, then both with `--oracle` at 5 and 7, all in one
child process per seed that imports the package from this checkout's
`src/`.  The record holds, per seed:
- `families`: one sha256 per command line, written without the
  document's path, over the [exit code, stdout, stderr] of its runs in
  document order, and one, `blochfq`, over the blochfq runs, the same at
  every seed;
- `documents`: a short digest of each document's runs;
- `sums`: one sha256 over the frozen basis, as the `str` of every element
  in order, and the boundary pairs, each as the labels of its two atoms and
  the `str` of its value, sorted, of each sum of a `relation-sum` pass,
  whose reports carry no basis; and one over each document argument, in
  `sort_key` order, with its numerator and denominator factor maps, what
  the parser hands to the coprime basis.

The record holds exact bytes.  `tests/test_scripts.py` records seed 1 on
the working tree and names each family and document whose digest moved.
A change that moves report bytes reruns this script and commits the
record; `report_diff.py` against the parent shows what moved.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from report_diff import DOCS, ROOT, document_runs, label, load_inputs, run_checkout

sys.path.insert(0, str(ROOT / "src"))

import dilogeq  # noqa: E402
from dilogeq.primes import is_prime  # noqa: E402

RECORD = ROOT / "tests" / "report_record.json"
SEEDS = (1, 2)
# the sums of one relation-sum pass
COUNT = 30
# every prime up to the cap in text and with --json, then both with --oracle at 5 and 7
BLOCHFQ = [["blochfq", str(p), *f] for p in range(5, 98) if is_prime(p) for f in ([], ["--json"])]
BLOCHFQ += [["blochfq", str(p), *f, "--oracle"] for p in (5, 7) for f in ([], ["--json"])]


def relation_sums(inputs, seed: int, count: int):
    universe = inputs.RELATION_VARS

    def ratfunc(f):
        num, den = (dilogeq.MultiPoly(universe, {e: dilogeq.fe(c) for e, c in p}) for p in f)
        return dilogeq.RationalFunction(num, den)

    for gens in inputs.relation_sum_specs(seed, count):
        total = dilogeq.FormalSum.zero(universe)
        for coeff, x, y in gens:
            total = total + dilogeq.five_term(ratfunc(x), ratfunc(y)).scale(coeff)
        yield total


def basis_digest(sums) -> str:
    out = hashlib.sha256()
    for alpha in sums:
        w = dilogeq.boundary(alpha)
        out.update(repr([str(b) for b in w.basis.elements]).encode())
        # labels and the printed value: an int and an equal Fraction agree
        pairs = [(w._label(x), w._label(y), str(v)) for (x, y), v in w.pairs.items()]
        out.update(repr(sorted(pairs)).encode())
    return out.hexdigest()


def factor_digest(cases) -> str:
    out = hashlib.sha256()
    for case in cases:
        for f, _ in dilogeq.load_document(case.text).formal_sum().items():
            maps = [
                [(str(p), k) for p, k in sorted(m.items(), key=lambda pk: pk[0].sort_key())]
                for m in (f.num_factors, f.den_factors)
            ]
            out.update(repr((str(f), maps)).encode())
    return out.hexdigest()


def record(seed: int) -> dict:
    """The record of one seed, from the reports of this checkout."""
    inputs = load_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        runs = document_runs(inputs, seed, Path(tmp))
        results = run_checkout(ROOT, [argv for _, argv in runs] + BLOCHFQ, Path(tmp))
    families, documents = {}, {}
    keys = [(label(argv), case.name) for case, argv in runs] + [("blochfq", None)] * len(BLOCHFQ)
    for (family, name), result in zip(keys, results):
        run = json.dumps(result).encode()
        families.setdefault(family, hashlib.sha256()).update(run)
        if name:
            documents.setdefault(name, hashlib.sha256()).update(run)
    return {
        "families": {family: h.hexdigest() for family, h in families.items()},
        "documents": {name: h.hexdigest()[:16] for name, h in documents.items()},
        "sums": {
            "relation-sum bases and pairs": basis_digest(relation_sums(inputs, seed, COUNT)),
            "document factor maps": factor_digest(inputs.docs_cases(seed, DOCS)),
        },
    }


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    records = {str(seed): record(seed) for seed in SEEDS}
    RECORD.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    for seed, entries in records.items():
        print(f"seed {seed}: {len(entries['families'])} families, {len(entries['documents'])} documents")


if __name__ == "__main__":
    main()
