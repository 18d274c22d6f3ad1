"""Exact-arithmetic positivity tests for divisor classes on del Pezzo surfaces.

The surface of degree 9 - r is the blowup of the plane at r general
points (1 <= r <= 8); its divisor classes form the integer lattice with
basis l, e_1..e_r and intersection form diag(1, -1, ..., -1).  This
package enumerates the exceptional classes, decides effectivity /
nefness / spannedness / k-very ampleness, renders the reference tables,
and cross-verifies the ampleness criterion by brute-force search for
obstruction divisors in the adjoint-style numeric window.
"""

from .lattice import (
    EXCEPTIONAL_CLASS_COUNTS,
    CurveTypePattern,
    LatticeMismatchError,
    PicardClass,
    RankError,
    adjoint,
    canonical_class,
    degree,
    fiber_class,
    intersect,
    line,
    point_class,
    sectional_genus,
    type_pattern,
    zero_class,
)
from .enumeration import (
    ExceptionalTable,
    NullClassRecord,
    SurfaceContext,
    decompose_null_class,
    enumerate_exceptional,
    enumerate_null_classes,
    exceptional_type_census,
    surface_context,
)
from .positivity import (
    EffectivityCertificate,
    InequalityFamily,
    PositivityReport,
    Violation,
    adjoint_kva_check,
    degree_bound_check,
    exception_flag,
    f1_class,
    f1_coords,
    f1_is_k_very_ample,
    generate_inequality_families,
    is_big,
    is_effective,
    is_k_very_ample,
    is_nef,
    is_spanned,
    minimum_pairing,
)
from .reider import (
    ObstructionWitness,
    SearchOutcome,
    SweepSummary,
    consistency_sweep,
    search_obstructions,
    window_applicable,
)

__version__ = "0.1.0"

__all__ = [
    "EXCEPTIONAL_CLASS_COUNTS",
    "CurveTypePattern",
    "EffectivityCertificate",
    "ExceptionalTable",
    "InequalityFamily",
    "LatticeMismatchError",
    "NullClassRecord",
    "ObstructionWitness",
    "PicardClass",
    "PositivityReport",
    "RankError",
    "SearchOutcome",
    "SurfaceContext",
    "SweepSummary",
    "Violation",
    "adjoint",
    "adjoint_kva_check",
    "canonical_class",
    "consistency_sweep",
    "decompose_null_class",
    "degree",
    "degree_bound_check",
    "enumerate_exceptional",
    "enumerate_null_classes",
    "exception_flag",
    "exceptional_type_census",
    "f1_class",
    "f1_coords",
    "f1_is_k_very_ample",
    "fiber_class",
    "generate_inequality_families",
    "intersect",
    "is_big",
    "is_effective",
    "is_k_very_ample",
    "is_nef",
    "is_spanned",
    "line",
    "minimum_pairing",
    "point_class",
    "search_obstructions",
    "sectional_genus",
    "surface_context",
    "type_pattern",
    "window_applicable",
    "zero_class",
]
