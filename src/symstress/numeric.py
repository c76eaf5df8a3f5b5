"""Numerical rigidity analysis and symmetry verification.

This module is the independent numerical side of the counting rule: it
counts self-stresses and mechanisms from the rigidity matrix, irrep by
irrep, and checks the numerics against the symbolic decomposition.

``verify`` counts from symmetry-adapted blocks.  Orthonormal bases of each
irrep's isotypic component of the velocity space (V_i) and of the bar space
(E_i) come from small per-orbit projectors, and R maps V_i into E_i, so the
rank splits into the ranks of the blocks E_i^H R V_i (Kangwai & Guest 2000;
Schulze 2010).  Only singular values are taken, block by block.  The blocks
are exact only when R commutes with the group action, so ``verify`` checks
that first; when it fails, or when its residual could move a block singular
value across the rank cutoff, ``verify`` falls back to one SVD of the whole
matrix with all singular vectors, and classifies the self-stress and
mechanism bases by irrep in the same adapted bases.  ``verify`` builds V_i,
E_i and R's sparse rows once, before it picks a route, and both routes read
them.

Conventions
-----------
* Numerical rank counts singular values above rel_tol * sigma_max * max(rows,
  cols); the default rel_tol is 1e-10.  On the block route sigma_max is the
  largest singular value of any block, which is R's largest.
* Self-stresses are left-kernel vectors of the rigidity matrix (one scalar
  per bar); mechanisms are kernel vectors orthogonal to the rigid-body
  motions (for pinned frameworks the kernel itself).
* A symmetry operation g acts on velocities by (g.u)_{perm(i)} = T u_i and on
  bar scalars by (g.w)_{eperm(b)} = w_b; the rigidity matrix R intertwines
  the two actions, which is checked explicitly as part of verification.
* ``verify`` shares ``analyze``'s front end, which computes the group's
  :class:`~symstress.symmetry.SymmetryAction` (every operation's joint and
  bar permutation) once for the census; ``verify`` hands the same action to
  the intertwining check and the adapted bases.  Called alone, each of those
  builds its own.
  The intertwining check works on the bar list, so it costs O(|G| * e).
* The irrep projectors sum to the identity on any representation exactly
  when the character table's columns satisfy sum_i d_i conj(chi_i(g)) =
  |G| delta_{g,E}, so the projector check tests that identity on the table
  and never touches the framework.
* The isotypic bases are built orbit by orbit: each joint or bar orbit's
  coordinates are invariant, so an irrep's projector splits into one small
  block per orbit.  Orbits of one size are batched, and no projector on the
  whole space is formed.  Tables with complex irreps (Cn, n >= 3) give
  complex Hermitian projectors and complex blocks.
* Each block E_i^H R V_i is assembled from (row, column, value) triples:
  E_i's entry at a bar meets V_i's entries (one per vector and joint) at the
  bar's two joints.  The cost is O(entries of E_i x most entries at a joint),
  and no dense intermediate (V_i or R V_i) is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from .errors import ClassMismatch, DegenerateSpan, DimensionMismatch
from .framework import Framework, rigidity_matrix, rigidity_matrix_pinned, rigidity_rows
from .counting import AnalysisReport, _analysis
from .reptheory import CharacterTable, IrrepDecomposition, character_table
from .symmetry import GroupSpec, PointGroup, SymmetryAction, symmetry_action
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

# One irrep's isotypic basis: (coords, values) pairs from ``_isotypic_bases``.
_Parts = list[tuple[np.ndarray, np.ndarray]]


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
    block = fw.velocity_blocks
    return block[vperm[block >= 0]]


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
    orthonormalised first, and irrep i's dimension counts the singular
    values of B V_i, with V_i an orthonormal basis of its isotypic component
    (the bases the block route uses).  They are the cosines of the principal
    angles between span(B) and that component, 0 or 1 for an invariant span,
    so they are counted against a 0.5 threshold.  The dimensions sum to the
    basis size, else ClassMismatch is raised (the span was not invariant
    under the group).  A precomputed ``action`` of ``group`` on ``fw``
    replaces ``center`` and ``tol``.
    """
    table = character_table(group)
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
    if basis.shape[0] == 0:
        return {ir.label: 0 for ir in table.irreps}
    if action is None:
        action = symmetry_action(fw, group, center, tol)
    B = _orthonormal_rows(np.asarray(basis, dtype=float), rel_tol)
    return _classify(B, table, _isotypic(fw, action, table, space))


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


def _scatter(at: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount(at, values, size)`` for real or complex values."""
    if np.iscomplexobj(values):
        return np.bincount(at, values.real, size) + 1j * np.bincount(at, values.imag, size)
    return np.bincount(at, values, size)


def _entries(parts: _Parts, f: int) -> tuple[int, tuple[np.ndarray, ...]]:
    """The number of basis vectors in ``_isotypic_bases`` parts with fibre f,
    and their entries as (point, vector, f values) arrays."""
    shapes = np.array([values.shape for _, values in parts], dtype=int).reshape(-1, 2)
    count = int(shapes[:, 0].sum())
    vector = np.repeat(np.arange(count), np.repeat(shapes[:, 1] // f, shapes[:, 0]))
    point = np.concatenate([c[:, ::f].ravel() // f for c, _ in parts] + [np.zeros(0, dtype=np.intp)])
    value = np.concatenate([v.reshape(-1, f) for _, v in parts] + [np.zeros((0, f))])
    return count, (point, vector, value)


def _isotypic_bases(perms: np.ndarray, mats: np.ndarray, coeff: np.ndarray) -> list[_Parts]:
    """Orthonormal bases of the isotypic components of a permutation action.

    The group permutes n points, each carrying an f-dimensional fibre:
    operation g (row g of ``perms``, shape (|G|, n)) sends coordinate (j, c)
    to sum_a mats[g, a, c] (perms[g, j], a).  Row i of ``coeff`` holds
    (d_i/|G|) conj(chi_i(g)) per operation, so sum_g coeff[i, g] rho(g) is
    irrep i's projector.  It maps each orbit's coordinates to themselves, so
    it is computed one orbit at a time, orbits of one size in one batch, and
    each orbit's eigenvectors with eigenvalue above 1/2 are kept.

    Returns, per irrep, one (coords, values) pair per orbit size: row r of
    both is one basis vector, values[r] at global coordinates coords[r]
    (coordinate (j, a) is j * f + a; each point's f coordinates adjacent).
    """
    n = perms.shape[1]
    f = mats.shape[-1]
    bases: list[_Parts] = [[] for _ in coeff]
    # Each orbit is {g(j)}: its smallest point names it and its size is the
    # number of distinct images.  Sorting by (name, point) lines orbits up.
    name = perms.min(axis=0)
    size = 1 + np.count_nonzero(np.diff(np.sort(perms, axis=0), axis=0), axis=0)
    order = np.lexsort((np.arange(n), name))
    local = np.empty(n, dtype=np.intp)
    fibre = np.arange(f)
    irreps = coeff.shape[0]
    for k in np.unique(size):
        members = order[size[order] == k].reshape(-1, k)
        local[members] = np.arange(k)
        orbits, width = members.shape[0], k * f
        coords = (members[:, :, None] * f + fibre).reshape(orbits, width)
        # One width x width block per irrep and orbit.  rho(g) puts
        # mats[g, a, c] at row (local image of l, a), column (l, c).
        block = (np.arange(irreps)[:, None] * orbits + np.arange(orbits))
        block = block[:, None, :, None, None, None]
        row = local[perms[:, members]][..., None, None] * f + fibre[:, None]
        col = np.arange(k)[:, None, None] * f + fibre
        at = ((block * width + row) * width + col).ravel()
        entries = (coeff[:, :, None, None] * mats)[:, :, None, None]
        entries = np.broadcast_to(entries, (irreps,) + row.shape[:3] + (f, f)).ravel()
        projector = _scatter(at, entries, irreps * orbits * width * width)
        values, vectors = np.linalg.eigh(projector.reshape(-1, width, width))
        hit, j = np.nonzero(values > CLASSIFY_THRESHOLD)
        irrep, orbit = np.divmod(hit, orbits)
        kept_coords, kept = coords[orbit], vectors[hit, :, j]
        for t in range(irreps):
            mine = irrep == t
            bases[t].append((kept_coords[mine], kept[mine]))
    return bases


def _isotypic(
    fw: Framework, action: SymmetryAction, table: CharacterTable, space: str
) -> list[_Parts]:
    """Per irrep, the ``_isotypic_bases`` parts of its isotypic component of
    the velocity space (``space="velocity"``) or of the bar space ("edge")."""
    ops = action.ops
    dims = np.array([ir.dim for ir in table.irreps], dtype=float)
    chars = table.as_matrix()[:, [act.class_index for act in ops]]
    coeff = np.conj(chars) * (dims / action.group.order)[:, None]
    if not any(ir.is_complex for ir in table.irreps):
        coeff = coeff.real
    if space == "velocity":
        n = int(np.count_nonzero(fw.velocity_blocks >= 0))
        vperms = np.array([_moving_perm(fw, act.vperm) for act in ops]).reshape(len(ops), n)
        return _isotypic_bases(vperms, np.array([act.op.matrix for act in ops]), coeff)
    eperms = np.array([act.eperm for act in ops]).reshape(len(ops), fw.num_edges)
    return _isotypic_bases(eperms, np.ones((len(ops), 1, 1)), coeff)


def _dim_in(B: np.ndarray, parts: _Parts) -> int:
    """The number of singular values of B V_i above CLASSIFY_THRESHOLD, for
    orthonormal rows B and the isotypic basis V_i given as ``parts``."""
    if not len(B) or not parts:
        return 0
    product = np.hstack([np.einsum("rkc,kc->rk", B[:, coords], values) for coords, values in parts])
    sv = np.linalg.svd(product, compute_uv=False) if product.size else np.zeros(0)
    return int(np.sum(sv > CLASSIFY_THRESHOLD))


def _classify(B: np.ndarray, table: CharacterTable, bases: list[_Parts]) -> dict[str, int]:
    """Per irrep, the dimension of the span of the orthonormal rows B in its
    isotypic component, whose basis is ``bases[i]`` from ``_isotypic``.  The
    dimensions sum to len(B), else ClassMismatch is raised (the span was not
    invariant under the group)."""
    counts = {ir.label: _dim_in(B, parts) for ir, parts in zip(table.irreps, bases)}
    if sum(counts.values()) != len(B):
        raise ClassMismatch(
            f"projected dimensions {counts} sum to {sum(counts.values())}, "
            f"expected {len(B)}: the span is not invariant under {table.group.name}"
        )
    return counts


def _max_entry(blocks: np.ndarray, d: np.ndarray, n: int) -> float:
    """max |R| from R's rows as ``rigidity_rows`` gives them; 1.0 when R has
    no entries."""
    if not blocks.size or not n:
        return 1.0
    return float(np.max(np.abs(d[(blocks >= 0).any(axis=1)]), initial=0.0))


@dataclass(frozen=True)
class _Counts:
    """The numeric side of a verification: rank, totals, per-irrep counts
    (None when classification failed, with the reason in ``error``)."""

    rank: int
    s: int
    m: int
    s_by_irrep: dict[str, int] | None
    m_by_irrep: dict[str, int] | None
    error: str = ""


def _adapted_blocks(
    fw: Framework, velocity: list[_Parts], bar: list[_Parts], blocks: np.ndarray, d: np.ndarray
) -> Iterator[np.ndarray]:
    """Yield, per irrep i, the block E_i^H R V_i, scattered from (row,
    column, value) triples by one ``bincount``.  ``velocity`` and ``bar``
    are the isotypic bases from ``_isotypic``; ``blocks`` and ``d`` are R's
    rows from ``rigidity_rows``."""
    n = int(np.count_nonzero(fw.velocity_blocks >= 0))
    # Pinned ends read the zero row n of the per-joint tables below.
    first, second = np.where(blocks < 0, n, blocks).T
    for v_parts, e_parts in zip(velocity, bar):
        cols, (joint, col, value) = _entries(v_parts, 2)
        rows, (bars, row, weight) = _entries(e_parts, 1)
        # Joint j's velocity entries go to row j of two tables, zero-padded.
        order = np.argsort(joint, kind="stable")
        joint, col, value = joint[order], col[order], value[order]
        count = np.bincount(joint, minlength=n)
        slot = np.arange(joint.size) - (np.cumsum(count) - count)[joint]
        at_col = np.zeros((n + 1, int(count.max(initial=0))), dtype=np.intp)
        at_val = np.zeros(at_col.shape + (2,), dtype=value.dtype)
        at_col[joint, slot], at_val[joint, slot] = col, value
        # Entry (row, col) gains conj(E_i[b, row]) d_b . (V_i[j1, col] -
        # V_i[j2, col]) for each bar b = (j1, j2) and each entry at its ends.
        j1, j2 = first[bars], second[bars]
        at = (row * cols)[:, None] + np.hstack([at_col[j1], at_col[j2]])
        ends = np.hstack([at_val[j1], -at_val[j2]])
        pair = np.einsum("ba,bka->bk", weight.conj() * d[bars], ends)
        yield _scatter(at.ravel(), pair.ravel(), rows * cols).reshape(rows, cols)


def _block_counts(
    fw: Framework,
    table: CharacterTable,
    velocity: list[_Parts],
    bar: list[_Parts],
    rows: tuple[np.ndarray, np.ndarray, int],
    rel_tol: float,
    residual: float,
) -> _Counts | None:
    """Counts from the blocks E_i^H R V_i of R in symmetry-adapted bases.

    When R intertwines the action it maps V_i into E_i and nothing else, so
    rank_i = rank of the block, s_i = dim E_i - rank_i and m_i = dim V_i -
    rank_i - t_i.  t_i = ``_dim_in`` of the rigid-body motions and V_i, the
    dimension of their part in V_i; pinned frameworks have none, so t_i = 0.
    ``_adapted_blocks`` builds the blocks one at a time from
    orbit-local triples: each entry of E_i at a bar meets V_i's entries at
    the bar's two joints, so a block costs O(entries of E_i x most entries
    at a joint) besides its rows x cols, and no e x cols array is formed.  Only
    singular values are computed; the rank cutoff is the full matrix's,
    rel_tol * sigma_max * max(e, cols) with sigma_max the largest block
    singular value.

    ``velocity`` and ``bar`` are the isotypic bases V_i and E_i from
    ``_isotypic`` and ``rows`` is R from ``rigidity_rows``, all built once
    per ``verify``.  ``residual`` is the intertwining residual.  Returns
    None when it is large enough that some rank decision could differ in R
    itself.
    """
    blocks, d, n = rows
    sigmas, shapes = [], []
    for block in _adapted_blocks(fw, velocity, bar, blocks, d):
        sigmas.append(np.linalg.svd(block, compute_uv=False) if block.size else np.zeros(0))
        shapes.append(block.shape)

    top = max((float(sv[0]) for sv in sigmas if sv.size), default=0.0)
    size = max(fw.num_edges, 2 * n)
    cutoff = rel_tol * top * size if top > 0 else 0.0
    # Each operation moves an entry of R by at most the residual, and R's rows
    # have 4 entries and its columns one per bar at the joint, so R is within
    # 4 * residual * sqrt(max degree) of its diagonal blocks in 2-norm.  Its
    # singular values, and with them the cutoff, move by no more than that.
    moving_ends = blocks[blocks >= 0]
    degree = np.bincount(moving_ends).max() if moving_ends.size else 0
    slack = 4.0 * residual * np.sqrt(degree) * (1.0 + rel_tol * size)
    if any(np.any(np.abs(sv - cutoff) < slack) for sv in sigmas):
        return None
    ranks = [int(np.sum(sv > cutoff)) for sv in sigmas]
    trivial = trivial_motion_basis(fw)
    rigid = [_dim_in(trivial, parts) for parts in velocity]
    labels = [ir.label for ir in table.irreps]
    s_by = {lab: de - r for lab, (de, _), r in zip(labels, shapes, ranks)}
    m_by = {lab: dv - r - t for lab, (_, dv), r, t in zip(labels, shapes, ranks, rigid)}
    return _Counts(sum(ranks), sum(s_by.values()), sum(m_by.values()), s_by, m_by)


def _full_counts(
    fw: Framework, table: CharacterTable, velocity: list[_Parts], bar: list[_Parts], rel_tol: float
) -> _Counts:
    """Counts from one SVD of the whole rigidity matrix, with its left kernel
    (the self-stresses), its kernel and the rigid-body motions classified by
    irrep in the block route's bases ``velocity`` and ``bar``, built once per
    ``verify``.  The SVD's bases and the motions are orthonormal, so they go
    to ``_classify`` as they are.  m = dim ker R - (number of rigid-body
    motions), and m_i = k_i - t_i with k_i and t_i the kernel's and the
    motions' irrep dimensions, the block route's rule.  Valid whether or not
    R intertwines the action; ``verify`` uses it when intertwining fails."""
    rank, stresses, kernel = _svd_spaces(_matrix_for(fw), rel_tol)
    trivial = trivial_motion_basis(fw)
    s_by: dict[str, int] | None = None
    m_by: dict[str, int] | None = None
    error = ""
    try:
        s_by = _classify(stresses, table, bar)
        k_by, t_by = (_classify(basis, table, velocity) for basis in (kernel, trivial))
        m_by = {label: k_by[label] - t_by[label] for label in k_by}
    except ClassMismatch as exc:
        error = str(exc)
    return _Counts(rank, stresses.shape[0], kernel.shape[0] - trivial.shape[0], s_by, m_by, error)


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
       any representation, which is the character table's identity
       sum_i d_i conj(chi_i(g)) = |G| delta_{g,E}, checked class by class;
    3. count_identity: m - s equals the freedom number k;
    4. per_irrep_identity: m_i - s_i = dim_i * gamma_i for every irrep;
    5. detected_lower_bound: the numerics find at least the detected counts
       in every irrep.

    The counts come from the symmetry-adapted blocks of the rigidity matrix
    (see ``_block_counts``) when it passes the intertwining check, and from
    one SVD of the whole matrix with projection-classified bases otherwise,
    or when the residual is large enough to move a block singular value
    across the rank cutoff.

    Raises NotSymmetric / ClassMismatch when the framework fails the census
    under the requested group, and ValueError for a single unpinned joint
    (see ``maxwell_count``).
    """
    analysis, action = _analysis(fw, group, tol)
    pg, k, gamma = action.group, analysis.k, analysis.decomposition
    table = character_table(pg)
    velocity, bar = (_isotypic(fw, action, table, space) for space in ("velocity", "edge"))
    rows = rigidity_rows(fw, fw.velocity_blocks)

    checks: list[CheckResult] = []

    res = intertwining_residual(fw, pg, action=action)
    thr = RESIDUAL_TOL * _max_entry(*rows)
    counts = _block_counts(fw, table, velocity, bar, rows, rel_tol, res) if res <= thr else None
    if counts is None:
        counts = _full_counts(fw, table, velocity, bar, rel_tol)
    s_count, m_count = counts.s, counts.m
    s_by, m_by = counts.s_by_irrep, counts.m_by_irrep
    checks.append(
        CheckResult(
            "intertwining",
            res <= thr,
            "rigidity matrix commutes with every group operation",
            residual=res,
            threshold=thr,
        )
    )

    # sum_i d_i conj(chi_i(g)) / |G| - delta_{g,E} per class; E is class 0.
    dims = np.array([ir.dim for ir in table.irreps], dtype=float)
    weights = dims @ np.conj(table.as_matrix()) / pg.order
    weights[0] -= 1.0
    res_p = float(np.max(np.abs(weights)))
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

    if s_by is None or m_by is None:
        checks.append(
            CheckResult("per_irrep_identity", False, f"classification failed: {counts.error}")
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
        v=analysis.v,
        e=analysis.e,
        k=k,
        rank=counts.rank,
        s=s_count,
        m=m_count,
        decomposition=gamma,
        s_by_irrep=s_by,
        m_by_irrep=m_by,
        checks=tuple(checks),
        analysis=analysis,
    )
