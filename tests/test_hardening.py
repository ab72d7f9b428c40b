"""Invariants of the package are checked by exceptions that `python -O` keeps."""

import argparse
import ast
import builtins
import importlib
import importlib.util
import json
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


def _src_classes(trees):
    """name -> (path, node) for every class of the package."""
    return {
        node.name: (path, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(trees[path])
        if isinstance(node, ast.ClassDef)
    }


def _is_exception(name: str, classes) -> bool:
    """Is the builtin or package class of this name an exception?"""
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type):
        return issubclass(builtin, BaseException)
    bases = classes[name][1].bases if name in classes else []
    return any(_is_exception(getattr(b, "id", ""), classes) for b in bases)


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


# Documents and in-process commands that enter every subcommand and every
# mode of `check`.  square.txt writes (t + i)^2 out, so the squarefree split
# takes derivatives (MultiPoly.derivative, FieldElement.scale)
TRACED_DOCUMENTS = {
    "five.txt": "variables: x, y\nterm: 1 [x]\nterm: -1 [y]\nterm: 1 [y/x]\n"
    "term: 1 [(1-x)/(1-y)]\nterm: -1 [(1 - x^-1)/(1 - y^-1)]\n",
    "inversion.txt": "variables: t\nterm: 1 [t]\nterm: 1 [t^-1]\n",
    "pair.txt": "field: Qi\nvariables: z ~ w\nterm: 1 [z]\nterm: 1 [w]\n",
    "square.txt": "field: Qi\nvariables: t\nterm: 1 [t^2 + 2*i*t - 1]\n",
    "single.txt": "variables: t\nterm: 1 [t]\n",
    "bad_term.txt": "variables: t\nterm: 1 [t +]\n",
}
TRACED_COMMANDS = (
    (["check", "five.txt", "--probe", "5"], 0),
    (["check", "inversion.txt", "--real", "--probe", "5"], 0),
    (["check", "pair.txt", "--cc"], 0),
    (["check", "five.txt", "--padic", "5"], 0),
    (["check", "bad_term.txt"], 2),
    (["check", "square.txt", "--json"], 1),
    (["specialize", "five.txt", "--step", "x=2", "--step", "y=inf,c=3"], 0),
    (["wedge", "square.txt"], 0),
    (["relations", "five", "--variables", "x, y", "--x", "x", "--y", "y"], 0),
    (["relations", "inversion", "--variables", "t", "--x", "t"], 0),
    (["relations", "c", "--c", "3"], 0),
    (["probe", "inversion.txt", "--domain", "real", "--samples", "5"], 0),
    (["probe", "single.txt", "--domain", "real-bw", "--samples", "5"], 0),
    (["blochfq", "5", "--oracle"], 0),
    (["padic-branch-diff", "single.txt", "--p", "5", "--point", "t=5"], 0),
)

# Run in a fresh interpreter, so that no cache an earlier test warmed hides
# a call: the commands, one relation sum built as the benchmark builds it
# (scripts/record_reports.py), and the demo scripts, under a profile hook and
# with each watched class's attribute reads recorded.  A class reads
# through the default lookup again once every name it stores has been read.
# Prints the exit codes, each (file, first line) of package code entered
# and each stored "module.Class.name" never read
_TRACE = """
import contextlib, importlib, importlib.util, io, json, runpy, sys
from pathlib import Path
from dilogeq.cli import main
root, commands, stored = Path(sys.argv[1]), json.loads(sys.argv[2]), json.loads(sys.argv[3])
sys.path.insert(0, str(root / "scripts"))  # as for a script run from there
spec = importlib.util.spec_from_file_location("record", root / "scripts" / "record_reports.py")
record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record)
inputs = record.load_inputs()
unread = {}
def watch(cls, left):
    get = cls.__getattribute__
    def read(self, name):
        if name in left:
            left.discard(name)
            if not left:
                del cls.__getattribute__
        return get(self, name)
    cls.__getattribute__ = read
for label, names in stored.items():
    module, name = label.split(".")
    unread[label] = set(names)
    watch(getattr(importlib.import_module("dilogeq." + module), name), unread[label])
entered = set()
def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(hook)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in commands]
    next(record.relation_sums(inputs, 1, 1))
    for script in ("padic_branch_demo.py", "specialization_demo.py"):
        sys.argv = [script]
        runpy.run_path(str(root / "scripts" / script), run_name="__main__")
sys.setprofile(None)
package = Path(sys.modules["dilogeq"].__file__).resolve().parent
print(json.dumps([codes, sorted({(Path(f).name, line) for f, line in entered
                                 if Path(f).resolve().parent == package}),
                  sorted(f"{label}.{name}" for label, names in unread.items() for name in names)]))
"""


def _stored_names(cls: ast.ClassDef) -> set[str]:
    """The names a class stores: its dataclass fields, each name of its
    __slots__ but the dunders (a constructor may fill them on a fresh
    object, as scalars._make does), and each self.NAME its methods assign,
    directly or through object.__setattr__."""
    names = set()
    if any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list):
        names |= {s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)}
    for s in cls.body:
        if isinstance(s, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in s.targets):
            names |= {n for n in ast.literal_eval(s.value) if not n.startswith("__")}
    for m in cls.body:
        for node in ast.walk(m) if isinstance(m, ast.FunctionDef) else ():
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if getattr(node.value, "id", None) == "self":
                    names.add(node.attr)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                if getattr(node.args[0], "id", None) == "self":
                    names.add(node.args[1].value)
    return names


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """(package code entered, stored names never read) of one fresh run of
    _TRACE, which watches the names each module-level class of the package
    other than an exception stores; every command must end in its code."""
    trees = _package_trees()
    classes = _src_classes(trees)
    stored = {}
    for name, (path, node) in classes.items():
        names = _stored_names(node)
        if names and node in trees[path].body and not _is_exception(name, classes):
            stored[f"{path.stem}.{name}"] = sorted(names)
    folder = tmp_path_factory.mktemp("traced")
    for name, text in TRACED_DOCUMENTS.items():
        (folder / name).write_text("dilog-identity v1\n" + text)
    commands = json.dumps([argv for argv, _ in TRACED_COMMANDS])
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(folder)
        codes, entered, unread = fresh(_TRACE, str(ROOT), commands, json.dumps(stored))
    assert codes == [code for _, code in TRACED_COMMANDS]
    return {tuple(e) for e in entered}, unread


def test_every_field_a_class_stores_is_read(traced_run):
    # the AST gates cannot tell which class a read of `.universe` belongs
    # to; the run can.  A field the traced run never reads is kept only
    # for tests.  Exceptions are left out: their fields are for except clauses
    assert traced_run[1] == []


def test_every_method_whose_name_another_class_shares_is_entered(traced_run):
    # the definition gate counts an attribute read of `scale` as a use of
    # every method named scale, since the AST does not know the receiver's
    # type; a run-time trace does.  A method not entered is reached only by
    # tests
    by_name: dict[str, list[tuple[str, int, str]]] = {}
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for m in cls.body:
                if not isinstance(m, ast.FunctionDef) or m.name.startswith("__") and m.name.endswith("__"):
                    continue
                # a code object's first line is that of its first decorator
                first = min([m.lineno] + [d.lineno for d in m.decorator_list])
                by_name.setdefault(m.name, []).append((path.name, first, f"{cls.name}.{m.name}"))
    entered = traced_run[0]
    missing = [
        f"{file}:{line} {label}"
        for methods in by_name.values()
        if len(methods) > 1
        for file, line, label in methods
        if (file, line) not in entered
    ]
    assert missing == []


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


def _caught_names(tree):
    """The name of each class an except clause of the module names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for t in node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]:
                yield t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None)


def _adds_nothing(cls: ast.ClassDef) -> bool:
    """Is the class body only a docstring, `...` or `pass`?"""
    return all(
        isinstance(s, ast.Pass) or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        for s in cls.body
    )


def test_every_exception_class_is_caught_or_adds_something():
    # an exception class that adds nothing to its base and that no caller
    # catches by name tells no caller anything its base does not: raise the
    # base.  Tests tell the two apart by the message
    trees = _package_trees()
    caught = {name for tree in trees.values() for name in _caught_names(tree)}
    classes = _src_classes(trees)
    idle = [
        f"{path.name}:{node.lineno} {name}"
        for name, (path, node) in classes.items()
        if _is_exception(name, classes) and name not in caught and _adds_nothing(node)
    ]
    assert idle == []


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


def _tracer():
    """bench/tracer.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _annotations(tree) -> set[int]:
    """The ids of the nodes inside the module's annotations."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            notes += [p.annotation for p in params if p is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    return {id(n) for note in notes if note is not None for n in ast.walk(note)}


def test_every_document_name_cli_binds_is_read():
    # under `from __future__ import annotations` cli never evaluates an
    # annotation, so a name it reads only there needs no binding; a name
    # the tracer wraps at dilogeq.cli does, since the wrapper is called there
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    assert any(
        isinstance(n, ast.ImportFrom) and n.module == "__future__" and n.names[0].name == "annotations"
        for n in tree.body
    )
    notes = _annotations(tree)
    loaded = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in notes
    }
    tracer = _tracer()
    wrapped = {attr for module, attr, _ in tracer.SPANS + tracer.COUNTERS if module == "dilogeq.cli"}
    unread = [name for name, _ in _table_names(path, tree) if name not in loaded | wrapped]
    assert unread == []


def test_traced_names_resolve():
    # the benchmark's tracer wraps functions at these import sites; a name
    # that moves would break only traced runs, so check them all here
    tracer = _tracer()
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
