"""Symbolic counting: closed-form decompositions of Gamma(m) - Gamma(s),
cross-checked against general character reduction, and the analysis report.

The closed forms below are case tables over the symmetry census.  Every
division must be exact: a non-integer coefficient proves the census cannot
belong to a framework with the claimed symmetry (ParityViolation for mod-2
failures, DivisibilityViolation for mod-n failures).  Census combinations
with no published case table raise UnsupportedGroup; ``analyze`` then falls
back to the general reduction, which needs no case analysis.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from .errors import (
    CrossCheckFailure,
    DivisibilityViolation,
    ParityViolation,
    UnsupportedGroup,
)
from .framework import Framework, check_planarity, maxwell_count
from .reptheory import (
    IrrepDecomposition,
    character_table,
    decomposition_from_counts,
    reduce,
    reducible_character,
)
from .symmetry import (
    _FAMILIES,
    SYM_TOL,
    GroupSpec,
    SymmetryAction,
    SymmetryCensus,
    census,
    resolve_action,
)

__all__ = [
    "closed_form",
    "cross_check",
    "analyze",
    "analyze_census",
    "AnalysisReport",
    "IrrepRow",
]


def _exact_div(numerator: int, denominator: int, err: type, what: str) -> int:
    if numerator % denominator:
        raise err(
            f"{what} = {numerator}/{denominator} is not an integer; the census "
            "is inconsistent with this symmetry"
        )
    return numerator // denominator


def closed_form(cen: SymmetryCensus) -> IrrepDecomposition:
    """Closed-form irrep decomposition of Gamma(m) - Gamma(s) from a census.

    Supported case tables: C_1, C_s, C_2, C_n (n >= 3), C_2v, C_3v, C_4v for
    unpinned frameworks, and C_1, C_s, C_2, C_2v for pinned ones.  Each
    precondition is checked once, in this order, and raises
    UnsupportedGroup: C_2 and C_2v need (v_c, e_2) in the half-turn shift
    table; then a pinned census with n >= 3, then C_nv with n >= 5, have no
    table; then C_n (n >= 3), C_3v and C_4v need v_c in {0, 1} and e_2 = 0.
    """
    group = cen.group
    table = character_table(group)
    k = cen.freedom_number
    n = group.n
    mirrors = group.family == "Cnv"
    pinned = cen.pinned

    if n == 1 and not mirrors:  # C1
        return decomposition_from_counts(table, {"A": k})

    if n == 1:  # Cs
        e_s = cen.e_sigma()
        shift = 0 if pinned else 1
        a1 = _exact_div(k - e_s + shift, 2, ParityViolation, "gamma(A')")
        a2 = _exact_div(k + e_s - shift, 2, ParityViolation, "gamma(A'')")
        return decomposition_from_counts(table, {"A'": a1, "A''": a2})

    v_c, e_2 = cen.v_c, cen.e_2

    if n == 2:  # C2 and C2v
        c2 = {(0, 0): 1, (0, 1): 0, (1, 0): -1}.get((v_c, e_2))
        if c2 is None:
            raise UnsupportedGroup(
                f"no {group.name} case table for v_c={v_c}, e_2={e_2}"
            )
        if pinned:
            c2 -= 1
        if not mirrors:
            a = _exact_div(k + c2, 2, ParityViolation, "gamma(A)")
            b = _exact_div(k - c2, 2, ParityViolation, "gamma(B)")
            return decomposition_from_counts(table, {"A": a, "B": b})
        e_h = cen.e_sigma("sigma_h")
        e_v = cen.e_sigma("sigma_v")
        a1 = _exact_div(k + c2 - e_h - e_v + (0 if pinned else 2), 4,
                        ParityViolation, "gamma(A1)")
        a2 = _exact_div(k + c2 + e_h + e_v - (0 if pinned else 2), 4,
                        ParityViolation, "gamma(A2)")
        b1 = _exact_div(k - c2 - e_h + e_v, 4, ParityViolation, "gamma(B1)")
        b2 = _exact_div(k - c2 + e_h - e_v, 4, ParityViolation, "gamma(B2)")
        return decomposition_from_counts(
            table, {"A1": a1, "A2": a2, "B1": b1, "B2": b2}
        )

    if pinned:
        raise UnsupportedGroup(
            f"no pinned closed form for {group.name}; use the reduction"
        )
    if mirrors and n >= 5:
        raise UnsupportedGroup(
            f"no closed-form case table for {group.name}; use the reduction"
        )
    if v_c not in (0, 1) or e_2 != 0:
        raise UnsupportedGroup(
            f"no {group.name} case table for v_c={v_c}, e_2={e_2}"
        )

    if not mirrors:  # cyclic C_n, n >= 3
        if v_c == 0:
            base = _exact_div(k + 3, n, DivisibilityViolation, "(k+3)/n")
            shifted = {"A0", "A1", f"A{n - 1}"}
        else:
            base = _exact_div(k + 1, n, DivisibilityViolation, "(k+1)/n")
            shifted = {"A0"}
        counts = {
            ir.label: base - (1 if ir.label in shifted else 0)
            for ir in table.irreps
        }
        return decomposition_from_counts(table, counts)

    if n == 3:  # C3v
        e_s = cen.e_sigma()
        if v_c == 0:
            e_coeff = _exact_div(k, 3, DivisibilityViolation, "gamma(E)")
            a1 = _exact_div(k - 3 * e_s + 3, 6, ParityViolation, "gamma(A1)")
            a2 = _exact_div(k + 3 * e_s - 3, 6, ParityViolation, "gamma(A2)")
        else:
            e_coeff = _exact_div(k + 1, 3, DivisibilityViolation, "gamma(E)")
            a1 = _exact_div(k - 3 * e_s + 1, 6, ParityViolation, "gamma(A1)")
            a2 = _exact_div(k + 3 * e_s - 5, 6, ParityViolation, "gamma(A2)")
        return decomposition_from_counts(
            table, {"A1": a1, "A2": a2, "E": e_coeff}
        )

    # C4v
    e_v = cen.e_sigma("sigma_v")
    e_d = cen.e_sigma("sigma_d")
    if v_c == 0:
        e_coeff = _exact_div(k - 1, 4, DivisibilityViolation, "gamma(E)")
        shift = 3
    else:
        e_coeff = _exact_div(k + 1, 4, DivisibilityViolation, "gamma(E)")
        shift = 1
    a1 = _exact_div(k - 2 * e_v - 2 * e_d + shift, 8, ParityViolation,
                    "gamma(A1)")
    a2 = _exact_div(k + 2 * e_v + 2 * e_d + shift - 8, 8, ParityViolation,
                    "gamma(A2)")
    b1 = _exact_div(k - 2 * e_v + 2 * e_d + shift, 8, ParityViolation,
                    "gamma(B1)")
    b2 = _exact_div(k + 2 * e_v - 2 * e_d + shift, 8, ParityViolation,
                    "gamma(B2)")
    return decomposition_from_counts(
        table, {"A1": a1, "A2": a2, "B1": b1, "B2": b2, "E": e_coeff}
    )


def cross_check(
    cen: SymmetryCensus,
) -> tuple[IrrepDecomposition, IrrepDecomposition | None]:
    """Compute the decomposition by general reduction and, where a case table
    exists, by closed form; raise CrossCheckFailure if they disagree.

    Returns ``(reduction, closed)`` with ``closed`` None when unsupported.
    """
    table = character_table(cen.group)
    reduced = reduce(reducible_character(cen), table)
    try:
        closed = closed_form(cen)
    except UnsupportedGroup:
        return reduced, None
    if closed.to_dict() != reduced.to_dict():
        raise CrossCheckFailure(
            f"closed form {closed} disagrees with character reduction "
            f"{reduced} for group {cen.group.name}"
        )
    return reduced, closed


@dataclass(frozen=True)
class IrrepRow:
    label: str
    dim: int
    gamma: int
    s_detected: int
    m_detected: int
    notes: tuple[str, ...]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the symbolic counting rule can say about one framework."""

    group_name: str
    family: str
    n: int
    center: tuple[float, float] | None
    mirror_angle_deg: float
    detected: bool
    pinned: bool
    v: int
    num_pinned: int | None
    e: int
    k: int
    census_rows: tuple[dict[str, Any], ...]
    decomposition: IrrepDecomposition
    closed_form_used: bool
    irreps: tuple[IrrepRow, ...]
    notices: tuple[str, ...] = ()
    planarity_violations: int | None = None

    @property
    def s_detected(self) -> int:
        return self.decomposition.s_detected

    @property
    def m_detected(self) -> int:
        return self.decomposition.m_detected

    @property
    def s_plain(self) -> int:
        return max(0, -self.k)

    @property
    def m_plain(self) -> int:
        return max(0, self.k)

    def to_dict(self, input_name: str | None = None) -> dict[str, Any]:
        doc: dict[str, Any] = {"schema_version": 1, "kind": "analysis"}
        if input_name is not None:
            doc["input"] = input_name
        doc.update(
            {
                "group": {
                    "name": self.group_name,
                    "family": self.family,
                    "n": self.n,
                    "center": list(self.center) if self.center else None,
                    "mirror_angle_deg": self.mirror_angle_deg,
                    "detected": self.detected,
                },
                "pinned": self.pinned,
                "counts": {
                    "v": self.v,
                    "pinned_joints": self.num_pinned,
                    "e": self.e,
                    "freedom_number": self.k,
                },
                "census": list(self.census_rows),
                "decomposition": self.decomposition.to_dict(),
                "decomposition_str": str(self.decomposition),
                "cross_check": (
                    "agree" if self.closed_form_used else "closed-form-unavailable"
                ),
                "irreps": [{**asdict(row), "notes": list(row.notes)} for row in self.irreps],
                "detected_counts": {
                    "s": self.s_detected,
                    "m": self.m_detected,
                    "s_plain_maxwell": self.s_plain,
                    "m_plain_maxwell": self.m_plain,
                    "s_surplus": self.s_detected - self.s_plain,
                    "m_surplus": self.m_detected - self.m_plain,
                },
                "planarity_violations": self.planarity_violations,
                "notices": list(self.notices),
            }
        )
        return doc

    def to_text(self, input_name: str | None = None) -> str:
        lines: list[str] = []
        if input_name is not None:
            lines.append(f"input: {input_name}")
        loc = ""
        if self.center is not None:
            loc = f"  center = ({self.center[0]:g}, {self.center[1]:g})"
        if _FAMILIES[self.family][2]:  # the family takes a mirror angle
            loc += f"  mirror angle = {self.mirror_angle_deg:g} deg"
        tag = "  [detected]" if self.detected else ""
        lines.append(f"group: {self.group_name}{loc}{tag}")
        joints = f"{self.v} internal" if self.pinned else f"{self.v}"
        if self.num_pinned:
            joints += f" + {self.num_pinned} pinned"
        lines.append(
            f"joints: {joints}   bars: {self.e}   freedom number k = {self.k}"
        )
        lines.append("census (fixed per class):")
        lines.append("  class     size  joints  bars  character")
        for row in self.census_rows:
            lines.append(
                f"  {row['label']:<9} {row['size']:>4} {row['fixed_vertices']:>7}"
                f" {row['fixed_edges']:>5}  {row['character']:>9g}"
            )
        check = "closed form agrees" if self.closed_form_used else "reduction only"
        lines.append(f"Gamma(m) - Gamma(s) = {self.decomposition}   [{check}]")
        lines.append("  irrep  dim  gamma  detects")
        for row in self.irreps:
            found = []
            if row.s_detected:
                found.append(
                    f"{row.s_detected} self-stress"
                    + ("es" if row.s_detected > 1 else "")
                )
            if row.m_detected:
                found.append(
                    f"{row.m_detected} mechanism" + ("s" if row.m_detected > 1 else "")
                )
            note = ", ".join(found) if found else "-"
            extra = f"  ({'; '.join(row.notes)})" if row.notes else ""
            lines.append(
                f"  {row.label:<6} {row.dim:>3} {row.gamma:>6}  {note}{extra}"
            )
        lines.append(
            f"detected: s >= {self.s_detected} (plain count {self.s_plain}, "
            f"surplus {self.s_detected - self.s_plain}); "
            f"m >= {self.m_detected} (plain count {self.m_plain}, "
            f"surplus {self.m_detected - self.m_plain})"
        )
        if self.planarity_violations:
            lines.append(
                f"warning: {self.planarity_violations} planar-drawing violation(s)"
            )
        for notice in self.notices:
            lines.append(f"note: {notice}")
        return "\n".join(lines) + "\n"


def analyze_census(
    cen: SymmetryCensus, detected: bool = False, num_pinned: int | None = None
) -> AnalysisReport:
    """Build an analysis report from a census alone (no coordinates needed),
    centred where the census is."""
    group = cen.group
    notices: list[str] = []
    reduced, closed = cross_check(cen)
    if closed is None:
        notices.append(
            f"no closed-form case table for {group.name} with this census; "
            "used general character reduction"
        )
    rows = tuple(
        IrrepRow(
            label=label,
            dim=dim,
            gamma=gamma,
            s_detected=dim * max(0, -gamma),
            m_detected=dim * max(0, gamma),
            # Every character table lists the trivial irrep first.
            notes=("fully-symmetric",) if i == 0 else (),
        )
        for i, (label, dim, gamma) in enumerate(reduced.terms)
    )
    census_rows = cen.to_dict()["classes"]
    for row, value in zip(census_rows, reducible_character(cen).tolist()):
        row["character"] = value
    mirror_deg = (
        float(np.degrees(group.mirror_angle)) if group.family == "Cnv" else 0.0
    )
    return AnalysisReport(
        group_name=group.name,
        family=next(
            name for name, (built, takes_n, _) in _FAMILIES.items()
            if built == group.family and takes_n == (group.n > 1)
        ),
        n=group.n,
        center=cen.center,
        mirror_angle_deg=mirror_deg,
        detected=detected,
        pinned=cen.pinned,
        v=cen.v,
        num_pinned=num_pinned,
        e=cen.e,
        k=cen.freedom_number,
        census_rows=tuple(census_rows),
        decomposition=reduced,
        closed_form_used=closed is not None,
        irreps=rows,
        notices=tuple(notices),
    )


# Relative singular-value cutoff for numeric rank decisions.  ``numeric``
# uses it; it lives here so that the CLI can show it as ``--tol-rank``'s
# default without loading ``numeric``.
RANK_TOL = 1e-10


def _resolve(fw: Framework, spec: GroupSpec, tol: float) -> SymmetryAction:
    """The front end ``analyze``, ``verify`` and ``render`` share: the action
    of the group ``spec`` names on ``fw``, computed once.  ValueError for
    a single unpinned joint (``maxwell_count``); then ``resolve_action``'s
    errors, among them ValueError for a ``tol`` that is not a finite
    number >= 0."""
    maxwell_count(fw)
    return resolve_action(spec, fw, tol)


def _analysis(
    fw: Framework, group: GroupSpec | None, tol: float
) -> tuple[AnalysisReport, SymmetryAction]:
    """``analyze``'s and ``verify``'s front end: resolve the group's action
    (``_resolve``, auto-detection when ``group`` is None) and report the
    census's counts."""
    spec = group if group is not None else GroupSpec("auto")
    action = _resolve(fw, spec, tol)
    report = analyze_census(census(fw, action=action), detected=spec.is_auto, num_pinned=len(fw.pinned))
    return report, action


def analyze(
    fw: Framework,
    group: GroupSpec | None = None,
    tol: float = SYM_TOL,
    planarity: bool = True,
) -> AnalysisReport:
    """Run the symbolic counting rule on a framework.

    ``group`` defaults to auto-detection (maximal group about the joint
    centroid).  ``tol`` is the relative symmetry-matching tolerance.  With
    ``planarity`` the report also counts planar-drawing violations
    (advisory; they do not affect the counts) at the geometric tolerance
    GEOM_TOL, as ``verify --strict-planar`` does.  A single unpinned joint
    raises ValueError (see ``maxwell_count``).
    """
    report, _ = _analysis(fw, group, tol)
    if planarity:
        report = replace(report, planarity_violations=len(check_planarity(fw)))
    return report
