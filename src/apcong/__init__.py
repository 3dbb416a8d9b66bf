"""Congruence structure of Frobenius traces for finite subgroups of GL2.

The group-theoretic half decides, for a finite subgroup G of GL2 over a
small finite field and each attained trace value x, whether membership of
the trace in x is governed by a congruence condition on the underlying
prime; the empirical half generates a_p datasets (eta products, elliptic
curve point counts, synthetic group samples) and discovers or verifies such
congruences on them.
"""

from .ffield import (
    FieldElement,
    FieldSpec,
    factorize,
    is_prime,
    kronecker,
    legendre,
    make_field,
    quadratic_extension,
)
from .matgrp import (
    ClosureGuardError,
    Mat2,
    MatGroup,
    close_group,
    commutator_subgroup,
    enumerate_subgroups,
    group_from_json,
    group_to_json,
    identity,
    projectivize,
)
from .classify import (
    ClassificationError,
    DicksonClass,
    classify_group,
    commutator_trace_set,
)
from . import constructions
from .abelian import (
    AbelianReport,
    TheoremConsistencyError,
    analyze_group,
    coset_traces,
    crosscheck_all_subgroups,
    density_c,
    is_abelian_class,
    is_semi_abelian,
    is_totally_abelian,
    is_weakly_abelian,
    modulus_bound,
    theorem_crosscheck,
)
from .eigendata import (
    ApDataset,
    EllipticCurve,
    QSeries,
    ap_point_count,
    build_dataset,
    curve_dataset,
    curve_fixtures,
    delta_coeffs,
    eta_qexp,
    load_curve_file,
    load_form_file,
    quadform_represents,
)
from .discover import (
    ClassCongruence,
    CongruenceReport,
    best_modulus,
    closed_loop_check,
    delta_partition_check,
    discover_class,
    discover_report,
    legendre_candidates,
    legendre_fit,
    sample_dataset,
    synthetic_model,
    vanishing_rule_check,
    verify_fixture_tables,
)

__version__ = "1.0.0"

__all__ = [
    "AbelianReport", "ApDataset", "ClassCongruence", "ClassificationError",
    "ClosureGuardError", "CongruenceReport", "DicksonClass",
    "EllipticCurve", "FieldElement", "FieldSpec", "Mat2", "MatGroup",
    "QSeries", "TheoremConsistencyError", "analyze_group", "ap_point_count",
    "best_modulus", "build_dataset", "classify_group", "close_group",
    "closed_loop_check", "commutator_subgroup", "commutator_trace_set",
    "constructions", "coset_traces", "crosscheck_all_subgroups",
    "curve_dataset", "curve_fixtures", "delta_coeffs",
    "delta_partition_check", "density_c", "discover_class", "discover_report",
    "enumerate_subgroups", "eta_qexp", "factorize", "group_from_json",
    "group_to_json", "identity", "is_abelian_class", "is_prime",
    "is_semi_abelian", "is_totally_abelian", "is_weakly_abelian", "kronecker",
    "legendre", "legendre_candidates", "legendre_fit", "load_curve_file",
    "load_form_file", "make_field", "modulus_bound", "projectivize",
    "quadform_represents", "quadratic_extension", "sample_dataset",
    "synthetic_model", "theorem_crosscheck", "vanishing_rule_check",
    "verify_fixture_tables",
]
