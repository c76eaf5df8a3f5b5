"""Symmetry-extended counting of self-stresses and mechanisms in planar
bar-joint frameworks.

The package pairs a symbolic engine — point-group censuses, character
tables, closed-form and general per-irrep counts of detectable
self-stresses and mechanisms — with a numeric engine that computes actual
self-stress and mechanism spaces from the rigidity matrix and classifies
them by symmetry type, so each side can verify the other.
"""

from .errors import (
    ClassMismatch,
    CrossCheckFailure,
    DegenerateSpan,
    DimensionMismatch,
    DivisibilityViolation,
    NonIntegerMultiplicity,
    NotSymmetric,
    ParityViolation,
    SingularMap,
    SymstressError,
    UnknownEntry,
    UnsupportedGroup,
)
from .framework import (
    GEOM_TOL,
    Framework,
    affine_map,
    affine_span_dim,
    bbox_diagonal,
    check_planarity,
    framework_to_json,
    load_framework,
    maxwell_count,
    parse_framework_json,
    rigidity_matrix,
    rigidity_matrix_pinned,
    save_framework,
)
from .symmetry import (
    SYM_TOL,
    ConjugacyClass,
    GroupSpec,
    OperationAction,
    PointGroup,
    SymmetryAction,
    SymmetryCensus,
    SymmetryOperation,
    census,
    detect_groups,
    edge_permutation,
    group_elements,
    group_spec_from_json,
    group_spec_to_json,
    identity_op,
    make_census,
    mirror_op,
    parse_group_arg,
    resolve_group,
    rotation_op,
    symmetry_action,
    vertex_permutation,
)
from .reptheory import (
    REDUCE_TOL,
    CharacterTable,
    Irrep,
    IrrepDecomposition,
    character_table,
    decomposition_from_counts,
    reduce,
    reducible_character,
    trig_sum,
)
from .counting import (
    AnalysisReport,
    IrrepRow,
    analyze,
    analyze_census,
    closed_form,
    cross_check,
)
from .numeric import (
    CLASSIFY_THRESHOLD,
    RANK_TOL,
    RESIDUAL_TOL,
    CheckResult,
    VerificationReport,
    classify_by_irrep,
    intertwining_residual,
    mechanism_basis,
    numeric_rank,
    self_stress_basis,
    trivial_motion_basis,
    verify,
)
from .catalog import CatalogEntry, SubgroupExpectation, all_entries, generate, names
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SymstressError", "NotSymmetric", "ClassMismatch", "NonIntegerMultiplicity",
    "ParityViolation", "DivisibilityViolation", "UnsupportedGroup",
    "CrossCheckFailure", "DegenerateSpan", "DimensionMismatch", "UnknownEntry",
    "SingularMap",
    # framework
    "Framework", "maxwell_count", "rigidity_matrix", "rigidity_matrix_pinned",
    "affine_map", "affine_span_dim", "bbox_diagonal", "check_planarity",
    "parse_framework_json", "framework_to_json", "load_framework",
    "save_framework", "GEOM_TOL",
    # symmetry
    "SymmetryOperation", "ConjugacyClass", "PointGroup", "SymmetryCensus",
    "GroupSpec", "identity_op", "rotation_op", "mirror_op", "group_elements",
    "census", "make_census", "detect_groups", "vertex_permutation",
    "edge_permutation", "SymmetryAction", "OperationAction", "symmetry_action",
    "parse_group_arg", "group_spec_from_json",
    "group_spec_to_json", "resolve_group", "SYM_TOL",
    # representation theory
    "Irrep", "CharacterTable", "IrrepDecomposition", "character_table",
    "reducible_character", "decomposition_from_counts", "reduce", "trig_sum",
    "REDUCE_TOL",
    # counting
    "AnalysisReport", "IrrepRow", "analyze", "analyze_census", "closed_form",
    "cross_check",
    # numeric
    "numeric_rank", "trivial_motion_basis", "self_stress_basis",
    "mechanism_basis", "classify_by_irrep", "intertwining_residual",
    "CheckResult", "VerificationReport", "verify", "RANK_TOL",
    "RESIDUAL_TOL", "CLASSIFY_THRESHOLD",
    # catalog
    "CatalogEntry", "SubgroupExpectation", "names", "generate", "all_entries",
    # render
    "render_svg",
]
