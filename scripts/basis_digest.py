"""Digest the coprime bases and boundary pairs of the benchmark's inputs.

Usage: python3 scripts/basis_digest.py [--seeds 1-3]

Rebuilds the benchmark's `relation-sum` sums and `docs-check` documents
from `bench/inputs.py` (read, not changed; it imports nothing from the
package, so a seed gives the same inputs at every commit) and prints, per
seed and workload, one sha256 over each input's frozen basis, as the `str`
of every element in order, and its boundary pairs, each as the labels
of its two atoms and the `str` of its value, sorted.  A document's
sum comes from its text through the parser, as `check` builds it; one whose
boundary raises (a constant above the factoring bound) contributes its
error instead.  The benchmark's report digest of `relation-sum` sees only
Constant certificates, which carry no basis, and the documents' reports
show a basis only in a witness, so neither can tell two refinements apart;
these digests can.  A third line per seed digests what the parser hands
to the coprime basis: each document argument, in `sort_key` order, with
its numerator and denominator factor maps, each in `sort_key` order.  The
package is imported from this checkout's `src/`.
"""

import argparse
import hashlib
import sys

from report_diff import ROOT, load_inputs, seed_range

sys.path.insert(0, str(ROOT / "src"))

import dilogeq  # noqa: E402

# inputs digested per seed: the relation sums and documents of one
# benchmark pass, the latter four blocks of the docs-check mix
COUNT = 30
DOCS = 240


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


def document_sums(inputs, seed: int, count: int):
    for case in inputs.docs_cases(seed, count):
        yield dilogeq.load_document(case.text).formal_sum()


def digest(sums) -> str:
    out = hashlib.sha256()
    for alpha in sums:
        try:
            w = dilogeq.boundary(alpha)
        except ValueError as exc:
            out.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        out.update(repr([str(b) for b in w.basis.elements]).encode())
        # labels and the printed value: an int and an equal Fraction agree
        pairs = [(w._label(x), w._label(y), str(v)) for (x, y), v in w.pairs.items()]
        out.update(repr(sorted(pairs)).encode())
    return out.hexdigest()


def factor_digest(sums) -> str:
    out = hashlib.sha256()
    for alpha in sums:
        for f, _ in alpha.items():
            maps = [
                [(str(p), k) for p, k in sorted(m.items(), key=lambda pk: pk[0].sort_key())]
                for m in (f.num_factors, f.den_factors)
            ]
            out.update(repr((str(f), maps)).encode())
    return out.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-3", help="inclusive range, e.g. 1-3")
    args = ap.parse_args()

    inputs = load_inputs()
    for seed in seed_range(args.seeds):
        sums = digest(relation_sums(inputs, seed, COUNT))
        print(f"seed {seed}: {COUNT} sums, sha256 {sums}")
        docs = digest(document_sums(inputs, seed, DOCS))
        print(f"seed {seed}: {DOCS} documents, sha256 {docs}")
        maps = factor_digest(document_sums(inputs, seed, DOCS))
        print(f"seed {seed}: {DOCS} documents, factor maps sha256 {maps}")


if __name__ == "__main__":
    main()
