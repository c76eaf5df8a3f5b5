"""Symmetry-extended counting of self-stresses and mechanisms in planar
bar-joint frameworks.

The package pairs a symbolic engine — point-group censuses, character
tables, closed-form and general per-irrep counts of detectable
self-stresses and mechanisms — with a numeric engine that computes actual
self-stress and mechanism spaces from the rigidity matrix and classifies
them by symmetry type, so each side can verify the other.

``errors``, ``framework``, ``symmetry``, ``reptheory`` and ``counting`` load
with the package.  ``numeric``, ``catalog`` and ``render``, and the names
they export here, load on first access (PEP 562), so that a program that
only counts, such as ``symstress analyze``, never compiles them.
"""

import importlib

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
    resolve_action,
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
    "edge_permutation", "SymmetryAction", "symmetry_action",
    "parse_group_arg", "group_spec_from_json",
    "group_spec_to_json", "resolve_group", "resolve_action", "SYM_TOL",
    # representation theory
    "Irrep", "CharacterTable", "IrrepDecomposition", "character_table",
    "reducible_character", "decomposition_from_counts", "reduce", "trig_sum",
    "REDUCE_TOL",
    # counting
    "AnalysisReport", "IrrepRow", "analyze", "analyze_census", "closed_form",
    "cross_check",
]

# The public names of the modules that load on first access, by module.
_LAZY = {
    "numeric": (
        "numeric_rank", "trivial_motion_basis", "self_stress_basis",
        "mechanism_basis", "classify_by_irrep", "intertwining_residual",
        "CheckResult", "VerificationReport", "verify", "RANK_TOL",
        "RESIDUAL_TOL", "CLASSIFY_THRESHOLD",
    ),
    "catalog": ("CatalogEntry", "SubgroupExpectation", "names", "generate", "all_entries"),
    "render": ("render_svg",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
__all__ += list(_HOME)


def __getattr__(name: str):
    # Not stored in the package: each access reads the defining module, so a
    # name patched there (as a tracer patches functions) reads the same here.
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY})
