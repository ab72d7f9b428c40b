"""Invariants of the package are checked by exceptions that `python -O` keeps."""

import ast
from pathlib import Path

import pytest

from dilogeq.document import IdentitySpec, dump_document
from dilogeq.padic import PadicNumber

SRC = Path(__file__).resolve().parent.parent / "src" / "dilogeq"


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
