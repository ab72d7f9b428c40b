"""Invariants of the package are checked by exceptions that `python -O` keeps."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from dilogeq.document import IdentitySpec, dump_document
from dilogeq.padic import PadicNumber

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
    spec = IdentitySpec("Qi", "Z", ("z",), (("a", "b"),), ())
    with pytest.raises(ValueError):
        dump_document(spec)


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
