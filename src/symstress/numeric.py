"""Numerical rigidity analysis and symmetry verification.

This module is the independent numerical side of the counting rule: it
computes actual self-stress and mechanism spaces from the rigidity matrix by
SVD, classifies them by irreducible representation with projection
operators, and checks the numerics against the symbolic decomposition.

Conventions
-----------
* Numerical rank counts singular values above rel_tol * sigma_max * max(rows,
  cols); the default rel_tol is 1e-10.
* Self-stresses are left-kernel vectors of the rigidity matrix (one scalar
  per bar); mechanisms are kernel vectors orthogonal to the rigid-body
  motions (for pinned frameworks the kernel itself).
* A symmetry operation g acts on velocities by (g.u)_{perm(i)} = T u_i and on
  bar scalars by (g.w)_{eperm(b)} = w_b; the rigidity matrix R intertwines
  the two actions, which is checked explicitly as part of verification.
* ``verify`` computes the group's :class:`~symstress.symmetry.SymmetryAction`
  (every operation's joint and bar permutation) once and hands it to the
  census, the intertwining and projector checks and the classification.
  Called alone, each of those builds its own.  Every per-operation check
  works on the bar list or on sparse entries, so it costs O(|G| * e).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ClassMismatch, DegenerateSpan, DimensionMismatch
from .framework import (
    Framework,
    maxwell_count,
    rigidity_matrix,
    rigidity_matrix_pinned,
)
from .counting import AnalysisReport, analyze_census
from .reptheory import CharacterTable, IrrepDecomposition, character_table
from .symmetry import (
    GroupSpec,
    PointGroup,
    SymmetryAction,
    census,
    resolve_group,
    symmetry_action,
)
from .symmetry import vertex_permutation  # noqa: F401  unused; perfbench's tracer looks it up here

__all__ = [
    "numeric_rank",
    "self_stress_basis",
    "mechanism_basis",
    "trivial_motion_basis",
    "classify_by_irrep",
    "intertwining_residual",
    "verify",
    "CheckResult",
    "VerificationReport",
]

# Relative singular-value cutoff for rank decisions.
RANK_TOL = 1e-10
# Singular values of projected orthonormal bases are 0 or 1 in exact
# arithmetic; anything above this counts as 1.
CLASSIFY_THRESHOLD = 0.5
# Residual bound for the intertwining and resolution-of-identity checks,
# relative to the max-norm of the rigidity matrix (or to 1 for projectors).
RESIDUAL_TOL = 1e-9


def numeric_rank(matrix: np.ndarray, rel_tol: float = RANK_TOL) -> int:
    """Numerical rank: singular values above rel_tol * s_max * max(shape)."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0] * max(m.shape)))


def _matrix_for(fw: Framework) -> np.ndarray:
    return rigidity_matrix_pinned(fw) if fw.is_pinned else rigidity_matrix(fw)


def _svd_spaces(R: np.ndarray, rel_tol: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(rank, left-kernel rows, kernel rows) of R from a single SVD."""
    rows, cols = R.shape
    if rows == 0:
        return 0, np.zeros((0, 0)), np.eye(cols)
    if cols == 0:
        return 0, np.eye(rows), np.zeros((0, 0))
    U, s, Vt = np.linalg.svd(R, full_matrices=True)
    cutoff = rel_tol * s[0] * max(rows, cols) if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > cutoff))
    return rank, U[:, rank:].T.copy(), Vt[rank:, :].copy()


def trivial_motion_basis(fw: Framework) -> np.ndarray:
    """Orthonormal rigid-body motions: (3, 2v) unpinned, (0, 2v_int) pinned."""
    if fw.is_pinned:
        return np.zeros((0, 2 * len(fw.internal_vertices)))
    v = fw.num_vertices
    pos = fw.positions - fw.positions.mean(axis=0)
    basis = np.zeros((3, 2 * v))
    basis[0, 0::2] = 1.0
    basis[1, 1::2] = 1.0
    basis[2, 0::2] = -pos[:, 1]
    basis[2, 1::2] = pos[:, 0]
    norms = np.linalg.norm(basis, axis=1)
    norms[norms == 0.0] = 1.0
    return basis / norms[:, None]


def self_stress_basis(fw: Framework, rel_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal self-stress basis, shape (s, e): rows are bar-tension
    assignments in equilibrium at every joint."""
    _, stresses, _ = _svd_spaces(_matrix_for(fw), rel_tol)
    return stresses


def mechanism_basis(fw: Framework, rel_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal mechanism basis, shape (m, 2v) or (m, 2*v_int).

    Unpinned: kernel of the rigidity matrix intersected with the orthogonal
    complement of the rigid-body motions (computed in one SVD by stacking the
    motion rows as extra constraints).  Pinned: the kernel itself.
    """
    R = _matrix_for(fw)
    if not fw.is_pinned:
        R = np.vstack([R, trivial_motion_basis(fw)])
    _, _, motions = _svd_spaces(R, rel_tol)
    return motions


def _moving_perm(fw: Framework, vperm: np.ndarray) -> np.ndarray:
    """A joint permutation on the joints with velocity columns: all joints
    when unpinned, else the internal ones reindexed 0..n-1."""
    if not fw.is_pinned:
        return vperm
    internal = np.array(fw.internal_vertices, dtype=int)
    column = np.full(fw.num_vertices, -1)
    column[internal] = np.arange(internal.size)
    return column[vperm[internal]]


def _orthonormal_rows(basis: np.ndarray, rel_tol: float) -> np.ndarray:
    """Orthonormalise basis rows; DegenerateSpan if rank-deficient."""
    if basis.shape[0] == 0:
        return basis
    U, s, Vt = np.linalg.svd(basis, full_matrices=False)
    cutoff = rel_tol * s[0] * max(basis.shape) if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > cutoff))
    if rank < basis.shape[0]:
        raise DegenerateSpan(
            f"basis of {basis.shape[0]} vectors spans only {rank} dimensions"
        )
    return Vt


def classify_by_irrep(
    fw: Framework,
    group: PointGroup,
    basis: np.ndarray,
    center: np.ndarray | Sequence[float] | None = None,
    space: str = "velocity",
    tol: float = 1e-9,
    rel_tol: float = RANK_TOL,
    *,
    action: SymmetryAction | None = None,
) -> dict[str, int]:
    """Split the span of ``basis`` into irrep dimensions.

    ``space`` is "velocity" for motion vectors (length 2v, or 2*v_int when
    pinned) or "edge" for bar-scalar vectors (length e).  Rows are
    orthonormalised first; projecting an orthonormal invariant span yields
    singular values 0/1, so dimensions are counted against a 0.5 threshold.
    The dimensions sum to the basis size, else ClassMismatch is raised (the
    span was not invariant under the group).  A precomputed ``action`` of
    ``group`` on ``fw`` replaces ``center`` and ``tol``.
    """
    table = character_table(group)
    n_rows = basis.shape[0]
    counts: dict[str, int] = {ir.label: 0 for ir in table.irreps}
    if n_rows == 0:
        return counts

    expected = 2 * len(fw.internal_vertices) if fw.is_pinned else 2 * fw.num_vertices
    if space == "velocity":
        if basis.shape[1] != expected:
            raise DimensionMismatch(
                f"velocity vectors must have length {expected}, got {basis.shape[1]}"
            )
    elif space == "edge":
        if basis.shape[1] != fw.num_edges:
            raise DimensionMismatch(
                f"edge vectors must have length {fw.num_edges}, got {basis.shape[1]}"
            )
    else:
        raise ValueError(f"space must be 'velocity' or 'edge', got {space!r}")
    if action is None:
        action = symmetry_action(fw, group, center, tol)

    B = _orthonormal_rows(np.asarray(basis, dtype=float), rel_tol)

    # Characters are constant on a class, so sum the transformed bases per
    # class and project each irrep from the class sums.
    # (g.u)_{perm(i)} = T u_i on velocities, (g.w)_{eperm(b)} = w_b on bars.
    class_sums = np.zeros((len(group.classes),) + B.shape)
    rows = B.shape[0]
    for act in action.ops:
        target = class_sums[act.class_index]
        if space == "velocity":
            perm = _moving_perm(fw, act.vperm)
            moved = B.reshape(rows, -1, 2) @ act.op.matrix.T
            target.reshape(rows, -1, 2)[:, perm, :] += moved
        else:
            target[:, act.eperm] += B

    dims = np.array([ir.dim for ir in table.irreps], dtype=float)
    coeff = np.conj(table.as_matrix()) * (dims / group.order)[:, None]
    if not any(ir.is_complex for ir in table.irreps):
        coeff = coeff.real
    for t, ir in enumerate(table.irreps):
        projected = np.tensordot(coeff[t], class_sums, axes=(0, 0))
        sv = np.linalg.svd(projected, compute_uv=False)
        counts[ir.label] = int(np.sum(sv > CLASSIFY_THRESHOLD))

    if sum(counts.values()) != n_rows:
        raise ClassMismatch(
            f"projected dimensions {counts} sum to {sum(counts.values())}, "
            f"expected {n_rows}: the span is not invariant under {group.name}"
        )
    return counts


def intertwining_residual(
    fw: Framework,
    group: PointGroup,
    center: np.ndarray | Sequence[float] | None = None,
    tol: float = 1e-9,
    *,
    action: SymmetryAction | None = None,
) -> float:
    """Max-norm residual of the rigidity-matrix intertwining identity.

    For every group operation, permuting rows by the bar permutation and
    columns by the joint permutation (with the 2x2 block rotated) must
    reproduce the rigidity matrix exactly; the residual is the largest
    absolute deviation over all operations.  A precomputed ``action`` of
    ``group`` on ``fw`` replaces ``center`` and ``tol``.

    Row b of R holds d_b = p_i - p_j in the columns of its first joint i
    and -d_b in those of j, so the identity reads ±d_{eperm(b)} T = d_b per
    bar, the sign telling whether g maps i to the first joint of
    eperm(b).  Both columns give the same deviation, and bars with no
    velocity columns (both joints pinned) give none.
    """
    if action is None:
        action = symmetry_action(fw, group, center, tol)
    ends = np.array(fw.edges, dtype=int).reshape(-1, 2)
    moving = ~fw.pinned_mask[ends].all(axis=1)
    if not moving.any():
        return 0.0
    d = fw.positions[ends[:, 0]] - fw.positions[ends[:, 1]]
    worst = 0.0
    for act in action.ops:
        T = act.op.matrix
        image = act.eperm
        sign = np.where(ends[image, 0] == act.vperm[ends[:, 0]], 1.0, -1.0)
        x = sign[:, None] * d[image]
        # x @ T as two products and a sum, so every BLAS gives the same floats
        x_t = x[:, :1] * T[0] + x[:, 1:] * T[1]
        worst = max(worst, float(np.max(np.abs(x_t - d)[moving])))
    return worst


def _resolution_residual(
    fw: Framework,
    action: SymmetryAction,
    table: CharacterTable,
    space: str,
) -> float:
    """Max-norm of (sum of irrep projectors) - identity on the given space.

    The sum is sum_g w_g rho(g) / |G| with w_g = sum_i dim_i conj(chi_i(g)).
    rho(g) has one nonzero 2x2 block per joint (velocity) or one 1 per bar
    (edge), so only those entries are summed, operation by operation.
    """
    if space == "velocity":
        n = len(fw.internal_vertices) if fw.is_pinned else fw.num_vertices
        dim = 2 * n
    else:
        dim = fw.num_edges
    if dim == 0:
        return 0.0
    order = action.group.order
    weights = [
        sum(ir.dim * np.conj(ir.characters[cls_idx]) for ir in table.irreps)
        for cls_idx in range(len(action.group.classes))
    ]
    keys: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for act in action.ops:
        weight = weights[act.class_index]
        if weight == 0:
            continue
        if space == "velocity":
            perm = _moving_perm(fw, act.vperm)
            # entry (2 perm[i] + a, 2 i + c) = T[a, c]
            rows = 2 * perm[:, None, None] + np.arange(2)[None, :, None]
            cols = 2 * np.arange(n)[:, None, None] + np.arange(2)[None, None, :]
            entries = np.broadcast_to(act.op.matrix, (n, 2, 2))
        else:
            rows, cols, entries = act.eperm, np.arange(dim), np.ones(dim)
        keys.append((rows * dim + cols).ravel())
        values.append(((weight / order) * entries).ravel())
    where, slot = np.unique(np.concatenate(keys), return_inverse=True)
    total = np.zeros(where.size, dtype=complex)
    np.add.at(total, slot, np.concatenate(values))
    # The identity (weight |G|) puts an entry on every diagonal position.
    total[where // dim == where % dim] -= 1.0
    return float(np.max(np.abs(total)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    residual: float | None = None
    threshold: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "residual": self.residual,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of cross-verifying symbolic counts against the numerics."""

    group_name: str
    pinned: bool
    v: int
    e: int
    k: int
    rank: int
    s: int
    m: int
    decomposition: IrrepDecomposition
    s_by_irrep: dict[str, int] | None
    m_by_irrep: dict[str, int] | None
    checks: tuple[CheckResult, ...]
    analysis: AnalysisReport

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, input_name: str | None = None) -> dict[str, Any]:
        doc: dict[str, Any] = {"schema_version": 1, "kind": "verification"}
        if input_name is not None:
            doc["input"] = input_name
        doc.update(
            {
                "group": self.group_name,
                "pinned": self.pinned,
                "counts": {
                    "v": self.v,
                    "e": self.e,
                    "freedom_number": self.k,
                    "rank": self.rank,
                    "self_stresses": self.s,
                    "mechanisms": self.m,
                },
                "decomposition": self.decomposition.to_dict(),
                "decomposition_str": str(self.decomposition),
                "s_by_irrep": self.s_by_irrep,
                "m_by_irrep": self.m_by_irrep,
                "checks": [c.to_dict() for c in self.checks],
                "passed": self.passed,
            }
        )
        return doc

    def to_text(self, input_name: str | None = None) -> str:
        lines: list[str] = []
        if input_name is not None:
            lines.append(f"input: {input_name}")
        lines.append(
            f"group: {self.group_name}   joints: {self.v}   bars: {self.e}   "
            f"k = {self.k}"
        )
        lines.append(
            f"rank = {self.rank}   self-stresses s = {self.s}   "
            f"mechanisms m = {self.m}   (m - s = {self.m - self.s})"
        )
        lines.append(f"Gamma(m) - Gamma(s) = {self.decomposition}")
        if self.s_by_irrep is not None and self.m_by_irrep is not None:
            lines.append("  irrep  s_i  m_i  m_i - s_i  dim*gamma_i")
            for label, dim, gamma in self.decomposition.terms:
                s_i = self.s_by_irrep.get(label, 0)
                m_i = self.m_by_irrep.get(label, 0)
                lines.append(
                    f"  {label:<6} {s_i:>3}  {m_i:>3}  {m_i - s_i:>9}  "
                    f"{dim * gamma:>11}"
                )
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = ""
            if c.residual is not None:
                extra = f"  (residual {c.residual:.3e}, threshold {c.threshold:.3e})"
            lines.append(f"check {c.name}: {status}{extra}  {c.detail}")
        lines.append(
            "verification PASSED" if self.passed else "verification FAILED"
        )
        return "\n".join(lines) + "\n"


def verify(
    fw: Framework,
    group: GroupSpec | None = None,
    tol: float = 1e-9,
    rel_tol: float = RANK_TOL,
) -> VerificationReport:
    """Cross-verify the symbolic counting rule against the numerics.

    Checks performed:

    1. intertwining: the rigidity matrix commutes with the group action;
    2. projector_resolution: the irrep projectors sum to the identity on
       both the velocity space and the bar space;
    3. count_identity: m - s equals the freedom number k;
    4. per_irrep_identity: m_i - s_i = dim_i * gamma_i for every irrep;
    5. detected_lower_bound: the numerics find at least the detected counts
       in every irrep.

    Raises NotSymmetric / ClassMismatch when the framework fails the census
    under the requested group.
    """
    spec = group if group is not None else GroupSpec("auto")
    pg, center = resolve_group(spec, fw, tol)
    action = symmetry_action(fw, pg, center, tol)
    cen = census(fw, pg, center, tol, action=action)
    analysis = analyze_census(
        cen,
        detected=spec.is_auto,
        num_pinned=len(fw.pinned),
        center=(float(center[0]), float(center[1])),
    )
    table = character_table(pg)
    gamma = analysis.decomposition
    k = maxwell_count(fw)

    R = _matrix_for(fw)
    rank, stresses, motions_all = _svd_spaces(R, rel_tol)
    if not fw.is_pinned:
        stacked = np.vstack([R, trivial_motion_basis(fw)])
        _, _, mechanisms = _svd_spaces(stacked, rel_tol)
    else:
        mechanisms = motions_all
    s_count, m_count = stresses.shape[0], mechanisms.shape[0]

    checks: list[CheckResult] = []

    r_norm = float(np.max(np.abs(R))) if R.size else 1.0
    res = intertwining_residual(fw, pg, center, tol, action=action)
    thr = RESIDUAL_TOL * r_norm
    checks.append(
        CheckResult(
            "intertwining",
            res <= thr,
            "rigidity matrix commutes with every group operation",
            residual=res,
            threshold=thr,
        )
    )

    res_v = _resolution_residual(fw, action, table, "velocity")
    res_e = _resolution_residual(fw, action, table, "edge")
    res_p = max(res_v, res_e)
    checks.append(
        CheckResult(
            "projector_resolution",
            res_p <= RESIDUAL_TOL,
            "irrep projectors resolve the identity on velocity and bar spaces",
            residual=res_p,
            threshold=RESIDUAL_TOL,
        )
    )

    checks.append(
        CheckResult(
            "count_identity",
            m_count - s_count == k,
            f"m - s = {m_count} - {s_count} = {m_count - s_count}, k = {k}",
        )
    )

    s_by: dict[str, int] | None = None
    m_by: dict[str, int] | None = None
    classify_err = ""
    try:
        s_by = classify_by_irrep(
            fw, pg, stresses, space="edge", rel_tol=rel_tol, action=action
        )
        m_by = classify_by_irrep(
            fw, pg, mechanisms, space="velocity", rel_tol=rel_tol, action=action
        )
    except (ClassMismatch, DegenerateSpan) as exc:
        classify_err = str(exc)

    if s_by is None or m_by is None:
        checks.append(
            CheckResult("per_irrep_identity", False, f"classification failed: {classify_err}")
        )
        checks.append(
            CheckResult("detected_lower_bound", False, "classification failed")
        )
    else:
        mismatches = []
        for label, dim, coeff in gamma.terms:
            if m_by.get(label, 0) - s_by.get(label, 0) != dim * coeff:
                mismatches.append(
                    f"{label}: m-s = {m_by.get(label, 0) - s_by.get(label, 0)}, "
                    f"dim*gamma = {dim * coeff}"
                )
        checks.append(
            CheckResult(
                "per_irrep_identity",
                not mismatches,
                "; ".join(mismatches) or "m_i - s_i = dim_i * gamma_i for every irrep",
            )
        )
        shortfalls = []
        for label, dim, coeff in gamma.terms:
            if s_by.get(label, 0) < dim * max(0, -coeff):
                shortfalls.append(f"{label}: s_i = {s_by[label]} < {dim * max(0, -coeff)}")
            if m_by.get(label, 0) < dim * max(0, coeff):
                shortfalls.append(f"{label}: m_i = {m_by[label]} < {dim * max(0, coeff)}")
        checks.append(
            CheckResult(
                "detected_lower_bound",
                not shortfalls,
                "; ".join(shortfalls)
                or "numerics meet the symbolic lower bounds in every irrep",
            )
        )

    return VerificationReport(
        group_name=pg.name,
        pinned=fw.is_pinned,
        v=cen.v,
        e=cen.e,
        k=k,
        rank=rank,
        s=s_count,
        m=m_count,
        decomposition=gamma,
        s_by_irrep=s_by,
        m_by_irrep=m_by,
        checks=tuple(checks),
        analysis=analysis,
    )
