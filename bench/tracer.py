"""Per-layer tracing installed from outside the package.

The tracer replaces public functions at the module attribute their caller
looks up (for example `dilogeq.coprime.poly_gcd`, the name `coprime` calls)
with wrappers, and restores them on `uninstall`.  A span wrapper records a
span with its operation index, name, parent span, start and end; a counter
wrapper only counts calls.  Spans are kept in memory and written out by
`dump` when the run ends.

The benchmark opens a root span around each operation: "cli" around
`cli.main`, "api" around the API call.  A name's self time is its span time
minus the time of its child spans.
`padic` and `scalars` are not traced: `padic` lies on no workload's path,
and `scalars` sits under every layer, where wrappers would swamp it.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module, attribute, span name): functions wrapped where their callers look
# them up.  Class attributes are listed as "Class.method".
SPANS = (
    ("dilogeq", "check_constant", "wedge.check"),
    ("dilogeq.cli", "check_constant", "wedge.check"),
    ("dilogeq.cli", "check_constant_real", "wedge.check"),
    ("dilogeq.wedge", "boundary", "wedge.boundary"),
    ("dilogeq.wedge", "factor_constant", "primes.factor"),
    ("dilogeq.coprime", "CoprimeBasis.add", "coprime.add"),
    ("dilogeq.coprime", "CoprimeBasis.factor_rf", "coprime.factor_rf"),
    ("dilogeq.coprime", "poly_gcd", "poly.gcd"),
    ("dilogeq.coprime", "squarefree_parts", "poly.squarefree"),
    ("dilogeq.cli", "load_document", "document.load"),
    ("dilogeq.document", "IdentitySpec.formal_sum", "document.formal_sum"),
    ("dilogeq.document", "parse_expression", "exprparse.parse"),
    ("dilogeq.cli", "evaluate_at_point", "specialize.eval_point"),
    ("dilogeq.cli", "numeric_probe", "numerics.probe"),
    ("dilogeq.blochfq", "relations_matrix", "blochfq.relations"),
    ("dilogeq.blochfq", "kernel_lattice", "blochfq.kernel"),
    ("dilogeq.blochfq", "solve_integer", "intmat.solve"),
    ("dilogeq.blochfq", "smith_invariant_factors", "intmat.smith"),
    ("dilogeq.blochfq", "hnf", "intmat.hermite"),
)

# (module, attribute, counter name): calls counted without a span.
COUNTERS = (
    ("dilogeq.poly", "MultiPoly.divide_exact", "poly.divide_exact"),
    ("dilogeq.ratfunc", "RationalFunction.eval_numeric", "numerics.eval_numeric"),
    ("dilogeq.numerics", "bloch_wigner", "numerics.bloch_wigner"),
    ("dilogeq.cli", "bloch_wigner", "numerics.bloch_wigner"),
)


class Tracer:
    def __init__(self):
        self.op = 0
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.raised: dict[str, int] = {}
        self.gcd_split = 0
        self.basis_sizes: list[int] = []
        self.probe_points = 0
        self._stack: list[list] = []  # [id, start, child time]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def run_span(self, name: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised[name] = self.raised.get(name, 0) + 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            if self._stack:
                self._stack[-1][2] += dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[2]
            self.spans.append((sid, parent, self.op, name, frame[1], end))

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            result = tracer.run_span(name, fn, *args, **kwargs)
            tracer._observe(name, result)
            return result

        return wrapped

    def _counter_wrapper(self, name: str, fn):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapped

    def _observe(self, name: str, result):
        if name == "poly.gcd" and not result.is_constant():
            self.gcd_split += 1
        elif name == "wedge.boundary":
            self.basis_sizes.append(len(result.basis))
        elif name == "numerics.probe":
            self.probe_points += result.points_used

    # -- installation ---------------------------------------------------------

    def install(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda fn, n=name: self._counter_wrapper(n, fn))
        # check_c_facts builds HermiteForm accumulators directly; a subclass
        # seen only by blochfq times them without touching intmat's own use.
        blochfq = importlib.import_module("dilogeq.blochfq")
        base = blochfq.HermiteForm
        tracer = self

        class TracedHermiteForm(base):
            def insert(self, row):
                return tracer.run_span("intmat.hermite", base.insert, self, row)

            def contains(self, v):
                return tracer.run_span("intmat.hermite", base.contains, self, v)

        self._undo.append((blochfq, "HermiteForm", base))
        blochfq.HermiteForm = TracedHermiteForm

    def _patch(self, module: str, attr: str, make):
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        self._undo.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def uninstall(self):
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    # -- results --------------------------------------------------------------

    def metrics(self, ops: int, overhead_share: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced operation, as name -> (value, unit)."""
        ops = max(ops, 1)
        calls = lambda n: self.calls.get(n, 0)  # noqa: E731
        total = lambda *ns: sum(self.total.get(n, 0.0) for n in ns)  # noqa: E731
        own = lambda *ns: sum(self.self_time.get(n, 0.0) for n in ns)  # noqa: E731
        evals = calls("specialize.eval_point")
        admitted = evals - self.raised.get("specialize.eval_point", 0)
        sizes = sorted(self.basis_sizes)
        per_op = {
            "coprime.add_calls": (calls("coprime.add"), "calls/op"),
            "coprime.add_s": (total("coprime.add"), "s/op"),
            "coprime.self_s": (own("coprime.add", "coprime.factor_rf"), "s/op"),
            "coprime.factor_rf_s": (total("coprime.factor_rf"), "s/op"),
            "poly.gcd_calls": (calls("poly.gcd"), "calls/op"),
            "poly.gcd_s": (total("poly.gcd"), "s/op"),
            "poly.squarefree_s": (total("poly.squarefree"), "s/op"),
            "poly.divide_exact_calls": (calls("poly.divide_exact"), "calls/op"),
            "wedge.boundary_calls": (calls("wedge.boundary"), "calls/op"),
            "wedge.boundary_s": (total("wedge.boundary"), "s/op"),
            "wedge.self_s": (own("wedge.check", "wedge.boundary"), "s/op"),
            "primes.factor_calls": (calls("primes.factor"), "calls/op"),
            "primes.factor_s": (total("primes.factor"), "s/op"),
            "document.load_s": (total("document.load"), "s/op"),
            "document.formal_sum_s": (total("document.formal_sum"), "s/op"),
            "exprparse.parse_calls": (calls("exprparse.parse"), "calls/op"),
            "exprparse.parse_s": (total("exprparse.parse"), "s/op"),
            "specialize.eval_point_calls": (evals, "calls/op"),
            "specialize.eval_point_s": (total("specialize.eval_point"), "s/op"),
            "numerics.probe_calls": (calls("numerics.probe"), "calls/op"),
            "numerics.probe_s": (total("numerics.probe"), "s/op"),
            "numerics.probe_points_used": (self.probe_points, "points/op"),
            "numerics.eval_numeric_calls": (calls("numerics.eval_numeric"), "calls/op"),
            "numerics.bloch_wigner_calls": (calls("numerics.bloch_wigner"), "calls/op"),
            "cli.self_s": (own("cli"), "s/op"),
            "intmat.solve_calls": (calls("intmat.solve"), "calls/op"),
            "intmat.solve_s": (total("intmat.solve"), "s/op"),
            "intmat.smith_s": (total("intmat.smith"), "s/op"),
            "intmat.hermite_s": (total("intmat.hermite"), "s/op"),
            "blochfq.relations_s": (total("blochfq.relations"), "s/op"),
            "blochfq.kernel_s": (total("blochfq.kernel"), "s/op"),
        }
        out = {name: (value / ops, unit) for name, (value, unit) in per_op.items()}
        gcds = calls("poly.gcd")
        out["poly.gcd_split_ratio"] = (self.gcd_split / gcds if gcds else 0.0, "ratio")
        out["wedge.basis_size_p50"] = (float(sizes[(len(sizes) - 1) // 2]) if sizes else 0.0, "count")
        out["specialize.point_admit_ratio"] = (admitted / evals if evals else 0.0, "ratio")
        out["trace.overhead_share"] = (overhead_share, "ratio")
        return out

    def dump(self, path: str):
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
