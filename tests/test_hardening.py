"""Invariants of the package are checked by exceptions that `python -O` keeps."""

import argparse
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from dilogeq.cli import build_parser, main
from dilogeq.document import dump_document
from dilogeq.formal import FormalSum
from dilogeq.padic import PadicNumber
from helpers import fresh

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dilogeq"


def test_package_has_no_assert():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if isinstance(node, ast.Assert) or (
                isinstance(raised, ast.Name) and raised.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _is_divisibility_test(test) -> bool:
    """Is a while test a divisibility check: x % p == 0, not x % p, q.d == 1
    (an exact quotient in Q(i) that is a Gaussian integer), or an exact
    quotient that is not None?"""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return isinstance(test.operand, ast.BinOp) and isinstance(test.operand.op, ast.Mod)
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return False
    left, op, right = test.left, test.ops[0], test.comparators[0]
    if isinstance(left, ast.NamedExpr):
        left = left.value
    if not isinstance(right, ast.Constant):
        return False
    if isinstance(op, ast.Eq):
        mod = isinstance(left, ast.BinOp) and isinstance(left.op, ast.Mod)
        gaussian = isinstance(left, ast.Attribute) and left.attr == "d"
        return (mod and right.value == 0) or (gaussian and right.value == 1)
    if isinstance(op, ast.IsNot) and right.value is None and isinstance(left, ast.Call):
        fn = left.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
        return "quotient" in name or name == "divide_exact"
    return False


def test_prime_powers_stripped_in_one_place():
    # every power of a prime or a place comes out through primes.strip_power,
    # in O(log e) quotients; a loop dividing one factor at a time is O(e)
    for loop in (
        "while n % p == 0: n //= p",
        "while not s % p: s //= p",
        "while q.d == 1: q = q / pi",
        "while (q := p.divide_exact(pit)) is not None: p = q",
    ):
        assert _is_divisibility_test(ast.parse(loop).body[0].test), loop
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == ("primes.py", "strip_power"):
                allowed |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.While) and id(node) not in allowed and _is_divisibility_test(node.test):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _definitions(tree):
    """(node, is_method) for the module's top-level functions and classes,
    and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
            if isinstance(node, ast.ClassDef):
                yield from ((m, True) for m in node.body if isinstance(m, ast.FunctionDef))


def _package_trees():
    """The parsed modules of the package, its scripts and its benchmark."""
    return {
        path: ast.parse(path.read_text(), str(path))
        for folder in (SRC, ROOT / "scripts", ROOT / "bench")
        for path in sorted(folder.glob("*.py"))
    }


def _uses(tree):
    """(name, node, bare) for every name loaded or imported (bare) and every
    attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node, True
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node, False
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node, True


# the only strings that name package definitions: the names cli binds for
# the document commands, and the attributes the benchmark's tracer wraps
NAME_TABLES = {
    SRC / "cli.py": ("_DOCUMENT_NAMES",),
    ROOT / "bench" / "tracer.py": ("SPANS", "COUNTERS"),
}


def _table_names(path, tree):
    """(name, node) for every name in the module's tables of NAME_TABLES:
    each name in cli's dictionary, and the attribute of each tracer row (a
    dotted "Class.method" gives both parts)."""
    tables = NAME_TABLES.get(path, ())
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in tables):
            continue
        if isinstance(node.value, ast.Dict):
            strings = [s for names in node.value.values for s in names.elts]
        else:
            strings = [row.elts[1] for row in node.value.elts]
        for s in strings:
            for name in s.value.split("."):
                yield name, s


def test_every_package_definition_is_used_outside_the_tests():
    # what only tests call belongs in tests/ (helpers.py, oracles.py); the
    # package's export table names what it exports, so it counts as no use.
    # A method is used only through an attribute read or a table string: a
    # bare name of the same spelling is some other binding.  Other strings
    # (report keys, messages) name no definition
    trees = _package_trees()
    exports = set()
    for node in trees[SRC / "__init__.py"].body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets):
            exports = {id(n) for n in ast.walk(node)}
    uses: dict[str, set[int]] = {}
    bare: set[int] = set()
    for path, tree in trees.items():
        for name, node, is_bare in _uses(tree):
            uses.setdefault(name, set()).add(id(node))
            if is_bare:
                bare.add(id(node))
        for name, node in _table_names(path, tree):
            uses.setdefault(name, set()).add(id(node))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for d, is_method in _definitions(trees[path]):
            if d.name.startswith("__") and d.name.endswith("__"):
                continue
            found = uses.get(d.name, set()) - exports - {id(n) for n in ast.walk(d)}
            if is_method:
                found -= bare
            if not found:
                unused.append(f"{path.name}:{d.lineno} {d.name}")
    assert unused == []


def _optional_parameters(d: ast.FunctionDef):
    """(position or None, name) for each parameter of d that has a default."""
    a = d.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    yield from ((i, p.arg) for i, p in enumerate(positional) if i >= first)
    yield from ((None, p.arg) for p, default in zip(a.kwonlyargs, a.kw_defaults) if default)


def _sets(call: ast.Call, position: int | None, name: str) -> bool:
    """Does the call pass the parameter, by position, by name or by unpacking?"""
    if position is not None and (
        len(call.args) > position or any(isinstance(x, ast.Starred) for x in call.args)
    ):
        return True
    return any(k.arg in (name, None) for k in call.keywords)


def test_every_optional_parameter_is_set_by_a_package_caller():
    # a default that no caller outside the tests overrides is a knob only
    # tests turn: it belongs in the tests, or is a constant.  main's argv is
    # set by whoever runs the command line in process
    trees = _package_trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for d in trees[path].body:
            if not isinstance(d, ast.FunctionDef) or (path.name, d.name) == ("cli.py", "main"):
                continue
            own = {id(n) for n in ast.walk(d)}
            outside = [c for c in calls.get(d.name, []) if id(c) not in own]
            for position, name in _optional_parameters(d):
                if not any(_sets(c, position, name) for c in outside):
                    unset.append(f"{path.name}:{d.lineno} {d.name}({name})")
    assert unset == []


def test_padic_rejects_bad_input():
    with pytest.raises(ValueError):
        PadicNumber(5, 0, 10, 3)  # 10 is not a unit mod 5
    with pytest.raises(ValueError):
        PadicNumber(5, 0, 0, 2)
    with pytest.raises(ValueError):
        PadicNumber(5, 0, 1, 3) + PadicNumber(7, 0, 1, 3)
    with pytest.raises(ValueError):
        PadicNumber(5, 0, 1, 3) * PadicNumber(7, 0, 1, 3)


def test_dump_rejects_undeclared_pair():
    with pytest.raises(ValueError):
        dump_document(FormalSum.zero(("z",), "Qi"), (("a", "b"),))
    # a pair split by another variable would read back in another order
    with pytest.raises(ValueError):
        dump_document(FormalSum.zero(("z", "x", "w"), "Qi"), (("z", "w"),))


def test_traced_names_resolve():
    # the benchmark's tracer wraps functions at these import sites; a name
    # that moves would break only traced runs, so check them all here
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _ in tracer.SPANS + tracer.COUNTERS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []
    # the tracer also subclasses the Hermite form that blochfq builds
    blochfq = importlib.import_module("dilogeq.blochfq")
    assert isinstance(blochfq.HermiteForm, type)
    assert callable(blochfq.HermiteForm.insert) and callable(blochfq.HermiteForm.contains)
    # in a traced bloch-fq run only dilogeq.cli and what blochfq needs are
    # loaded when the tracer installs, which this process, where earlier
    # tests have loaded every module, cannot show
    code = (
        "import contextlib, functools, importlib, importlib.util, io, json, sys\n"
        "from dilogeq import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['blochfq', '5', '--json'])\n"
        "spec = importlib.util.spec_from_file_location('bench_tracer', sys.argv[1])\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "resolve = lambda module, attr: functools.reduce(\n"
        "    lambda owner, part: getattr(owner, part, None), attr.split('.'),\n"
        "    importlib.import_module(module))\n"
        "print(json.dumps([f'{m}.{a}' for m, a, _ in tracer.SPANS + tracer.COUNTERS\n"
        "                  if not callable(resolve(m, a))]))\n"
    )
    assert fresh(code, str(ROOT / "bench" / "tracer.py")) == []


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys, tmp_path):
    # main in a loop (the benchmark, report_diff, an API user) builds its
    # parser once; a build per call was about a quarter of a docs-check run
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    build_parser()
    one_build = len(built)
    assert one_build > 1  # the top parser and its subparsers
    build_parser.cache_clear()
    built.clear()
    missing = str(tmp_path / "missing.txt")
    for argv in (
        ["relations", "inversion", "--variables", "t", "--x", "t"],
        ["check", missing],
        ["wedge", missing],
        ["blochfq", "5"],
        ["frobnicate"],
        ["relations", "five", "--variables", "x, y", "--x", "x", "--y", "y"],
    ):
        main(argv)
    capsys.readouterr()
    assert len(built) == one_build
    assert build_parser() is build_parser()
