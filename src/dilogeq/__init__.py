"""Exact constancy checking for formal combinations of dilogarithm values.

A formal sum sum_j a_j [f_j] of rational functions is constant under the
Bloch-Wigner, Rogers, or p-adic dilogarithm exactly when the boundary
sum a_j (f_j wedge (1 - f_j)) vanishes in the reduced wedge square of the
function field.  This package computes that boundary exactly, decides
constancy, specializes variables while staying inside the relation group,
and cross-checks everything numerically and over small finite fields.
"""

from .scalars import FieldElement, fe
from .poly import MultiPoly, poly_gcd, squarefree_parts
from .ratfunc import INF, Infinity, RationalFunction, ZeroDenominator
from .coprime import CoprimeBasis, coprime_basis
from .formal import (
    DegenerateArguments,
    ExtendedFormalSum,
    FormalSum,
    c_element,
    conj_sum,
    five_term,
    inversion,
)
from .wedge import (
    ConstancyCertificate,
    WedgeElement,
    boundary,
    check_constant,
    check_constant_cc,
    check_constant_real,
    t_pair,
    t_v,
    wedge_specialize,
)
from .specialize import (
    PointNotAdmissible,
    SpecPlan,
    SpecStep,
    classify_value,
    default_aux,
    evaluate_at_point,
    iterate,
    naive_eval,
    sp,
    table_cell,
    table_row,
)
from .numerics import (
    ModPiSqHalf,
    ProbeReport,
    bloch_wigner,
    li2,
    numeric_probe,
    rl_bar,
    rogers,
)
from .padic import (
    Branch,
    PadicNumber,
    branch_diff,
    check_constant_padic,
    dp_disc,
    li2p,
    plog,
)
from .blochfq import (
    BlochGroups,
    InvariantFactors,
    PrimeTooSmall,
    bloch_groups,
    relations_matrix,
)
from .exprparse import parse_expression
from .document import IdentitySpec, dump_document, load_document

__all__ = [
    "BlochGroups",
    "Branch",
    "ConstancyCertificate",
    "CoprimeBasis",
    "DegenerateArguments",
    "ExtendedFormalSum",
    "FieldElement",
    "FormalSum",
    "IdentitySpec",
    "INF",
    "Infinity",
    "InvariantFactors",
    "ModPiSqHalf",
    "MultiPoly",
    "PadicNumber",
    "PointNotAdmissible",
    "PrimeTooSmall",
    "ProbeReport",
    "RationalFunction",
    "SpecPlan",
    "SpecStep",
    "WedgeElement",
    "ZeroDenominator",
    "bloch_groups",
    "bloch_wigner",
    "boundary",
    "branch_diff",
    "c_element",
    "check_constant",
    "classify_value",
    "check_constant_cc",
    "check_constant_padic",
    "check_constant_real",
    "conj_sum",
    "coprime_basis",
    "default_aux",
    "dp_disc",
    "dump_document",
    "evaluate_at_point",
    "fe",
    "five_term",
    "inversion",
    "iterate",
    "li2",
    "li2p",
    "load_document",
    "naive_eval",
    "numeric_probe",
    "parse_expression",
    "plog",
    "poly_gcd",
    "relations_matrix",
    "rl_bar",
    "rogers",
    "sp",
    "squarefree_parts",
    "t_pair",
    "t_v",
    "table_cell",
    "table_row",
    "wedge_specialize",
]
