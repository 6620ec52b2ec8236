"""Exact invariants of surfaces associated to line arrangements.

Given a line arrangement (coordinates, profile, or catalog name), compute the
resolution graphs of the singularities of the compactified Milnor fiber and
the numerical invariants of its minimal resolution: Chern numbers,
Miyaoka-Yau number, Hodge diamond, and classification verdicts.  All
arithmetic is exact.
"""

__version__ = "0.1.0"

from .arrangement import (
    Arrangement,
    CatalogEntry,
    Line,
    Profile,
    catalog_profile,
    is_pencil,
    parse_arrangement,
    profile_of,
    validate_profile,
)
from .hjcf import HJExpansion, hj_expand, hj_summary, modular_beta
from .local import (
    CanonicalCoefficients,
    LocalInvariants,
    canonical_coefficients,
    local_invariants,
)
from .resolution import (
    ResolutionGraph,
    WeightData,
    build_resolution_graph,
    check_negative_definite,
    intersection_matrix,
    to_dot,
    weight_data,
)
from .surface import (
    GlobalInvariants,
    HodgeDiamond,
    Verdict,
    base_invariants,
    chern_numbers,
    chern_ratio_analysis,
    global_invariants,
    hodge_diamond,
    my_tilde,
    verdict,
)
from .verify import OracleReport, coefficients_from_matrix, local_invariants_from_graph, sweep_verify

__all__ = [
    "Arrangement", "CatalogEntry", "Line", "Profile",
    "catalog_profile", "is_pencil",
    "parse_arrangement", "profile_of", "validate_profile",
    "HJExpansion", "hj_expand", "hj_summary", "modular_beta",
    "CanonicalCoefficients", "LocalInvariants", "canonical_coefficients", "local_invariants",
    "ResolutionGraph", "WeightData", "build_resolution_graph",
    "check_negative_definite", "intersection_matrix", "to_dot", "weight_data",
    "GlobalInvariants", "HodgeDiamond", "Verdict",
    "base_invariants", "chern_numbers", "chern_ratio_analysis",
    "global_invariants", "hodge_diamond", "my_tilde", "verdict",
    "OracleReport", "coefficients_from_matrix", "local_invariants_from_graph", "sweep_verify",
    "__version__",
]
