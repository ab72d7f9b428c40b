"""Exact constancy checking for formal combinations of dilogarithm values.

A formal sum sum_j a_j [f_j] of rational functions is constant under the
Bloch-Wigner, Rogers, or p-adic dilogarithm exactly when the boundary
sum a_j (f_j wedge (1 - f_j)) vanishes in the reduced wedge square of the
function field.  This package computes that boundary exactly, decides
constancy, specializes variables while staying inside the relation group,
and cross-checks everything numerically and over small finite fields.

`import dilogeq` loads no submodule: each exported name, and each
submodule such as `dilogeq.coprime`, is imported on first access (PEP 562).
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "scalars": ("FieldElement", "fe"),
    "poly": ("MultiPoly", "poly_gcd", "squarefree_parts"),
    "ratfunc": ("INF", "Infinity", "RationalFunction", "ZeroDenominator"),
    "coprime": ("CoprimeBasis",),
    "formal": (
        "ExtendedFormalSum",
        "FormalSum",
        "c_element",
        "conj_sum",
        "five_term",
        "inversion",
    ),
    "wedge": (
        "ConstancyCertificate",
        "WedgeElement",
        "boundary",
        "check_constant",
        "check_constant_cc",
        "check_constant_real",
    ),
    "specialize": (
        "PointNotAdmissible",
        "SpecStep",
        "default_aux",
        "evaluate_at_point",
        "iterate",
        "naive_eval",
        "sp",
    ),
    "numerics": (
        "ModPiSqHalf",
        "ProbeReport",
        "bloch_wigner",
        "li2",
        "numeric_probe",
        "rl_bar",
        "rogers",
    ),
    "padic": (
        "PadicNumber",
        "branch_diff",
        "dp_disc",
        "li2p",
        "plog",
    ),
    "blochfq": (
        "BlochGroups",
        "InvariantFactors",
        "bloch_groups",
        "relations_matrix",
    ),
    "exprparse": ("parse_expression",),
    "document": ("IdentitySpec", "dump_document", "load_document"),
    "cli": (),
    "intmat": (),
    "primes": (),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound once, so later reads are plain attribute lookups
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
