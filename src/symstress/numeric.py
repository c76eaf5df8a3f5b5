"""Numerical rigidity analysis and symmetry verification.

This module is the independent numerical side of the counting rule: it
counts self-stresses and mechanisms from the rigidity matrix, irrep by
irrep, and checks the numerics against the symbolic decomposition.

``verify`` counts from symmetry-adapted blocks.  Orthonormal bases of each
irrep's isotypic component of the velocity space (V_i) and of the bar space
(E_i) come from a few columns of its projector per orbit type, and R maps
V_i into E_i, so the rank splits into the ranks of the blocks E_i^H R V_i
(Kangwai & Guest 2000; Schulze 2010).  R also commutes with the reference
mirror sigma, so a 2-D irrep's component splits into a sigma-even and a
sigma-odd half whose blocks have the same singular values; the block route
builds only the even halves, a quarter of the whole block's entries, and
counts each of their ranks d_i times.  Only singular values are taken, one
SVD per bitwise-distinct connected component of a block's exact non-zeros:
on an axis-aligned quad grid, one per path along a grid line, and one for
all the congruent paths of a block whose sub-blocks have the same bytes.
The blocks are exact only when R commutes with the group action, so
``verify`` checks that first; when it fails, or when its residual could
move a block singular value across the rank cutoff, ``verify`` falls back
to one SVD of the whole matrix with all singular vectors, and classifies
the self-stress and mechanism bases by irrep in the whole components'
bases, the even halves together with the odd halves.  The rigid-body
motions are counted per irrep on both routes by reducing their character,
tr M_g + det M_g, which ``reptheory`` owns.  ``verify`` builds
the even halves of V_i and E_i and R's sparse rows once, before it picks a
route, and the fallback adds the odd halves only when it runs.

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
  :class:`~symstress.symmetry.SymmetryAction` (the group, the centre and
  every operation's joint and bar permutation, stacked) once for the
  census; ``verify`` hands the same action, and only the action, to the
  intertwining check and the adapted bases, which read the group from it.
  ``classify_by_irrep`` and ``intertwining_residual`` take an ``action``
  the same way, or build their own from a group.  The intertwining check
  works on the bar list and every operation at once, so it costs
  O(|G| * e) in one pass.
* The irrep projectors sum to the identity on any representation exactly
  when the character table's columns satisfy sum_i d_i conj(chi_i(g)) =
  |G| delta_{g,E}, so the projector check tests that identity on the table
  and never touches the framework.
* The isotypic bases are built once per orbit type, and no projector is
  formed: each joint or bar orbit's coordinates are invariant, so an
  irrep's projector P_i maps each orbit to itself, the same way on orbits
  with conjugate stabilisers (a type).  Its image on an orbit is spanned by
  the columns of the orbit's first member, and for a half of a 2-D irrep
  those of the member the rotation r by 2 pi / n reaches too (the transfer
  operators of Fassler & Stiefel 1992): at most 2f columns, each scattered
  from its |G| entries.  On each piece (below) P_i's trace there, an exact
  integer, says how many vectors to keep, and a Gram ``eigh`` of at most
  2f x 2f orthonormalises them; one fixed orthogonal mix then spreads each
  kept vector over the piece's whole image, so the adapted blocks split
  where the projector's eigenvectors split them.  The projector check
  comes first: a table that fails it builds no bases.  Tables with complex
  irreps (Cn, n >= 3) give complex columns.  The types of one orbit size
  are the distinct stabilisers of the orbits' first members, found by a
  1-D ``np.unique`` of one byte key per orbit.
* Both the type's columns and the adapted blocks are split exactly into
  connected components: a type's coordinates into the pieces of its union
  pattern sum_g |rho(g)| != 0, whose columns are orthonormalised together,
  one batched Gram ``eigh`` per Gram width, and an adapted block into the
  components of the bipartite graph of its non-zero entries, one batched
  SVD per component shape over its bitwise-distinct sub-blocks, whose
  singular values serve every copy.  Only exact zeros separate, and only
  equal bytes share an SVD, so the split changes no value beyond rounding.
  When every operation matrix has a zero entry (axis-aligned C1, Cs, C2,
  C2v, C4, C4v), the x and y velocities can fall into different pieces, and
  then the adapted blocks of an axis-aligned quad grid split along its grid
  lines.  Nothing is labelled where nothing can split: a group with a
  zero-free operation matrix, or a block with fewer than ``_SPLIT_MIN``
  rows or columns.
* Each block E_i^H R V_i is assembled from (row, column, value) triples,
  from per-joint tables of every irrep built in one pass, with the x and y
  values in separate tables:
  E_i's entry at a bar meets V_i's entries (one per vector and joint) at the
  bar's two joints, and the triples whose value is an exact zero (about
  half on an axis-aligned grid) are dropped.  The cost is O(entries of E_i
  x most entries at a joint), and no dense intermediate (V_i or R V_i) is
  formed.  Nor is the rows x cols block itself on the split path (at least
  ``_SPLIT_MIN`` rows and columns): its triples are summed per entry, its components labelled from
  the non-zero sums, and each component's sub-block filled from its own
  sums, bitwise the entries a dense scatter would give.  A smaller block is
  scattered densely, and a block of one component is filled densely from
  its sums.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from .errors import ClassMismatch, DegenerateSpan, DimensionMismatch
from .framework import Framework, _check_tolerance, rigidity_matrix_pinned, rigidity_rows
from .counting import RANK_TOL, AnalysisReport, _analysis
from .reptheory import CharacterTable, IrrepDecomposition, _motion_character, character_table, reduce
from .symmetry import SYM_TOL, GroupSpec, PointGroup, SymmetryAction, _action_for, _times_sigma
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

# Singular values of projected orthonormal bases are 0 or 1 in exact
# arithmetic; anything above this counts as 1.
CLASSIFY_THRESHOLD = 0.5
# Residual bound for the intertwining and resolution-of-identity checks,
# relative to the max-norm of the rigidity matrix (or to 1 for projectors).
RESIDUAL_TOL = 1e-9
# Blocks with fewer rows or columns than this take one dense SVD without
# labelling their components (``_singular_values``).  Labelling costs about
# 0.1 ms a block; below about 80 rows a pinned grid's dense block SVD costs
# no more than its paths' together.
_SPLIT_MIN = 96

# One irrep's isotypic basis: (coords, values) pairs from ``_isotypic_bases``.
_Parts = list[tuple[np.ndarray, np.ndarray]]


def numeric_rank(matrix: np.ndarray, rel_tol: float = RANK_TOL) -> int:
    """Numerical rank: singular values above rel_tol * s_max * max(shape).
    ValueError for a ``rel_tol`` that is not a finite number >= 0."""
    _check_tolerance("rel_tol", rel_tol)
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _cutoff(rel_tol, s[0], m.shape)))


def _cutoff(rel_tol: float, s_max: float, shape: tuple[int, ...]) -> float:
    """The rank cutoff for a matrix of this shape and largest singular value."""
    return rel_tol * s_max * max(shape)


def _svd_spaces(R: np.ndarray, rel_tol: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(rank, left-kernel rows, kernel rows) of R from a single SVD."""
    rows, cols = R.shape
    if rows == 0:
        return 0, np.zeros((0, 0)), np.eye(cols)
    if cols == 0:
        return 0, np.eye(rows), np.zeros((0, 0))
    U, s, Vt = np.linalg.svd(R, full_matrices=True)
    rank = int(np.sum(s > _cutoff(rel_tol, s[0], R.shape)))
    return rank, U[:, rank:].T.copy(), Vt[rank:, :].copy()


def trivial_motion_basis(fw: Framework) -> np.ndarray:
    """Orthonormal rigid-body motions: (3, 2v) unpinned, (0, 2v_int) pinned."""
    if fw.is_pinned:
        return np.zeros((0, 2 * int(np.count_nonzero(fw.velocity_blocks >= 0))))
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
    assignments in equilibrium at every joint.  ValueError for a
    ``rel_tol`` that is not a finite number >= 0."""
    _check_tolerance("rel_tol", rel_tol)
    _, stresses, _ = _svd_spaces(rigidity_matrix_pinned(fw), rel_tol)
    return stresses


def mechanism_basis(fw: Framework, rel_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal mechanism basis, shape (m, 2v) or (m, 2*v_int).

    Unpinned: kernel of the rigidity matrix intersected with the orthogonal
    complement of the rigid-body motions (computed in one SVD by stacking the
    motion rows as extra constraints).  Pinned: the kernel itself, as there
    are no motion rows to stack.  ValueError for a ``rel_tol`` that is not
    a finite number >= 0.
    """
    _check_tolerance("rel_tol", rel_tol)
    R = np.vstack([rigidity_matrix_pinned(fw), trivial_motion_basis(fw)])
    _, _, motions = _svd_spaces(R, rel_tol)
    return motions


def _moving_perm(fw: Framework, vperm: np.ndarray) -> np.ndarray:
    """A joint permutation (or one per row of ``vperm``) on the joints with
    velocity columns: all joints when unpinned, else the internal ones
    reindexed 0..n-1."""
    block = fw.velocity_blocks
    return block[vperm[..., block >= 0]]


def _orthonormal_rows(basis: np.ndarray, rel_tol: float) -> np.ndarray:
    """Orthonormalise basis rows; DegenerateSpan if rank-deficient."""
    if basis.shape[0] == 0:
        return basis
    U, s, Vt = np.linalg.svd(basis, full_matrices=False)
    # No singular values when the rows have no columns.
    rank = int(np.sum(s > _cutoff(rel_tol, s.max(initial=0.0), basis.shape)))
    if rank < basis.shape[0]:
        raise DegenerateSpan(
            f"basis of {basis.shape[0]} vectors spans only {rank} dimensions"
        )
    return Vt


def classify_by_irrep(
    fw: Framework,
    group: PointGroup | None = None,
    basis: np.ndarray | None = None,
    center: np.ndarray | Sequence[float] | None = None,
    space: str = "velocity",
    tol: float = SYM_TOL,
    rel_tol: float = RANK_TOL,
    *,
    action: SymmetryAction | None = None,
) -> dict[str, int]:
    """Split the span of ``basis`` into irrep dimensions.

    ``space`` is "velocity" for motion vectors (length 2v, or 2*v_int when
    pinned) or "edge" for bar-scalar vectors (length e).  Rows are
    orthonormalised first, and irrep i's dimension counts the singular
    values of B V_i, with V_i an orthonormal basis of its isotypic component
    (the block route's sigma-even half with the sigma-odd half).  They are
    the cosines of the principal angles between span(B) and that component,
    0 or 1 for an invariant span, so they are counted against a 0.5
    threshold.  The dimensions sum to the
    basis size, else ClassMismatch is raised (the span was not invariant
    under the group).  A precomputed ``action`` on ``fw`` replaces
    ``group``, ``center`` and ``tol``; a ``group`` given with it must be its
    group.  ValueError for that mismatch, or for a ``tol`` (when used) or
    ``rel_tol`` that is not a finite number >= 0.
    """
    _check_tolerance("rel_tol", rel_tol)
    if basis is None:
        raise TypeError("classify_by_irrep needs a basis")
    expected = 2 * int(np.count_nonzero(fw.velocity_blocks >= 0))
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
    action = _action_for(fw, group, center, tol, action)
    table = character_table(action.group)
    if basis.shape[0] == 0:
        return {ir.label: 0 for ir in table.irreps}
    B = _orthonormal_rows(np.asarray(basis, dtype=float), rel_tol)
    whole = _whole(fw, action, table, space, _isotypic(fw, action, table, space))
    return _classify(B, table, whole)


def intertwining_residual(
    fw: Framework,
    group: PointGroup | None = None,
    center: np.ndarray | Sequence[float] | None = None,
    tol: float = SYM_TOL,
    *,
    action: SymmetryAction | None = None,
) -> float:
    """Max-norm residual of the rigidity-matrix intertwining identity.

    For every group operation, permuting rows by the bar permutation and
    columns by the joint permutation (with the 2x2 block rotated) must
    reproduce the rigidity matrix exactly; the residual is the largest
    absolute deviation over all operations.  A precomputed ``action`` on
    ``fw`` replaces ``group``, ``center`` and ``tol``; a ``group`` given with
    it must be its group (ValueError otherwise).

    Row b of R holds d_b = p_i - p_j in the columns of its first joint i
    and -d_b in those of j, so the identity reads ±d_{eperm(b)} T = d_b per
    bar, the sign telling whether g maps i to the first joint of
    eperm(b).  Both columns give the same deviation, and bars with no
    velocity columns (both joints pinned) give none.
    """
    action = _action_for(fw, group, center, tol, action)
    first, second = fw.ends.T
    pinned = fw.pinned_mask
    moving = ~(pinned[first] & pinned[second])
    if not moving.any():
        return 0.0
    x, y = fw.x, fw.y
    dx, dy = x[first] - x[second], y[first] - y[second]
    # Every operation at once, on the moving bars, x and y kept apart; d of
    # the image bar is negated where g sends i to its second joint.
    image = action.eperms[:, moving]
    flip = first[image] != action.vperms[:, first[moving]]
    ix, iy = dx[image], dy[image]
    np.negative(ix, out=ix, where=flip)
    np.negative(iy, out=iy, where=flip)
    # (ix, iy) @ T as two products and a sum, so every BLAS gives the same floats
    T = action.matrices[:, :, :, None]
    worst = 0.0
    for a, d_a in enumerate((dx, dy)):
        deviation = ix * T[:, 0, a]
        deviation += iy * T[:, 1, a]
        deviation -= d_a[moving]
        worst = max(worst, float(np.abs(deviation).max()))
    return worst


def _scatter(at: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount(at, values, size)`` for real or complex values."""
    if np.iscomplexobj(values):
        return np.bincount(at, values.real, size) + 1j * np.bincount(at, values.imag, size)
    return np.bincount(at, values, size)


def _entries(bases: list[_Parts], f: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Per irrep, the number of basis vectors in its ``_isotypic_bases``
    parts with fibre f; and the entries of every irrep, irrep by irrep, as
    (irrep, point, vector, f values) arrays, vectors numbered within their
    irrep."""
    parts = [(i, coords, values) for i, irrep in enumerate(bases) for coords, values in irrep]
    shapes = np.array([values.shape for _, _, values in parts], dtype=np.intp).reshape(-1, 2)
    owner = np.repeat(np.array([i for i, _, _ in parts], dtype=np.intp), shapes[:, 0])
    count = np.bincount(owner, minlength=len(bases))
    vector = np.arange(len(owner)) - (np.cumsum(count) - count)[owner]
    per_vector = np.repeat(shapes[:, 1] // f, shapes[:, 0])
    point = np.concatenate([c[:, ::f].ravel() // f for _, c, _ in parts] + [np.zeros(0, dtype=np.intp)])
    value = np.concatenate([v.reshape(-1, f) for _, _, v in parts] + [np.zeros((0, f))])
    return count, (np.repeat(owner, per_vector), point, np.repeat(vector, per_vector), value)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first of each bitwise-distinct row of an array (a row
    is everything at one index of the first axis: a vector, a matrix), and
    each row's distinct-row number, from a stable sort of one ``np.void`` of
    each row's bytes.  Rows are never compared by value: a 1-ulp difference
    or the sign of a zero keeps two apart.  The distinct rows are numbered
    in the order of their bytes, which for rows of uint8 is ``np.unique(rows,
    axis=0, return_index=True, return_inverse=True)``'s order, and the
    inverse is 1-D."""
    flat = np.ascontiguousarray(rows).reshape(len(rows), -1)
    keys = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel()
    # Each key's place is that of the first equal key in the sort: np.unique's
    # result without its elementwise comparison of neighbouring void keys,
    # which took 8 times as long on the sub-blocks of a 136 x 135 grid.
    order = np.argsort(keys, kind="stable")
    place = np.searchsorted(keys, keys, sorter=order)
    head = np.zeros(len(keys), dtype=bool)
    head[place] = True
    return order[head], np.cumsum(head)[place] - 1


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Connected-component labels of the graph on nodes 0..n-1 with edges
    (u[k], v[k]): each node's label is the smallest node of its component.

    Every node points at a smaller or equal one, and a root at itself.  Each
    round hooks the larger root of every edge whose ends have different
    roots onto the smaller one, then jumps pointers until every node points
    at a root; no order other than the nodes' own enters."""
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            return label
        lu, lv = lu[apart], lv[apart]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def _pieces(tables: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Piece labels, numbered from 0, of the coordinates of orbit types: the
    connected components of each type's union pattern sum_g |rho(g)| != 0.

    ``tables`` (types, |G|, k) holds each type's local table (operation,
    member) -> image member, and coordinate (l, a) of type t is node
    (t * k + l) * f + a.  rho(g) links (l, a) to (g(l), b) wherever
    mats[g, b, a] is not an exact zero."""
    types, _, k = tables.shape
    f = mats.shape[-1]
    g, b, a = np.nonzero(mats)
    base = np.arange(types)[:, None, None] * k
    src = (base + np.arange(k)) * f + a[:, None]
    dst = (base + tables[:, g]) * f + b[:, None]
    label = _components(np.broadcast_to(src, dst.shape).ravel(), dst.ravel(), types * k * f)
    return np.unique(label, return_inverse=True)[1]


def _isotypic_bases(perms: np.ndarray, mats: np.ndarray, coeff: np.ndarray, partner: bool) -> list[_Parts]:
    """Orthonormal bases of the images of projectors of a permutation action.

    The group permutes n points, each carrying an f-dimensional fibre:
    operation g (row g of ``perms``, shape (|G|, n)) sends coordinate (j, c)
    to sum_a mats[g, a, c] (perms[g, j], a).  Row i of ``coeff`` holds one
    coefficient per operation, such that P_i = sum_g coeff[i, g] rho(g) is an
    orthogonal projector that maps each orbit's coordinates to themselves: a
    1-D irrep's projector, (d_i/|G|) conj(chi_i(g)), or a sigma-parity half
    of a 2-D irrep's (see ``_isotypic``).  A whole 2-D irrep's projector is
    not one of these: its columns below do not span its image.
    Members are labelled from the group action, so orbits with conjugate
    stabilisers share one local table (operation, member) -> image member;
    the vectors built for one orbit of a type serve every orbit of it.

    The image of P_i on an orbit is spanned by a few of its columns, the
    transfer-operator construction (Fassler & Stiefel 1992; Kangwai & Guest
    2000).  For a 1-D irrep P_i rho(g) = chi_i(g) P_i, so the columns
    P_i e_(0, a) of the orbit's first member 0 and each fibre coordinate a
    span it.  For the sigma-even half of a C_nv irrep E_k, the transfer
    operator P_11 with P_11 rho(g) = D_11(g) P_11 + D_12(g) P_12, the columns
    of members 0 and r(0) do, r the rotation by 2 pi / n, because D_12(r) =
    -sin(2 pi k / n) != 0; the sigma-odd half likewise.  With ``partner``
    every row takes both members' columns, r being operation 1.  Each
    column is scattered from its |G| entries, coeff[i, g] mats[g][:, a] at
    member g(m), for every row and type at once.

    A type's coordinates split into the connected components (pieces) of
    its union pattern (``_pieces``) when every operation matrix has an
    exact zero, as the axis-aligned operations of C1, Cs, C2, C2v, C4 and
    C4v do; otherwise each type is one piece.  P_i maps each piece to
    itself, so a column lies in the piece of the coordinate it comes from,
    and every piece holds a coordinate of member 0.  On each piece P_i has
    rank round(sum_g coeff[i, g] tr_p rho(g)), its trace there, read from
    the members g fixes; that many vectors are kept, from the top
    eigenpairs (lambda, u) of the Gram matrix of the piece's columns C (at
    most 2f x 2f), as C u / sqrt(lambda): orthonormal, and with exact zeros
    outside the piece, so the blocks of ``_adapted_blocks`` inherit them.
    No eigenvalue is compared with a threshold.  Gram matrices of one width
    share one batched ``eigh``.  The kept vectors are then mixed by
    ``_spreads``, so each spreads over the piece's whole image, as the
    eigenvectors of the piece's projector do: columns with disjoint
    supports (on the C4v grid, E's columns each lie on one pair of parallel
    grid lines) would otherwise give vectors that split the adapted blocks
    finer than the image does.  Raises DegenerateSpan when a trace asks for
    more vectors than the piece has columns, or the columns span fewer
    dimensions than the trace: ``coeff`` was not a projector of this kind.

    Returns, per row of ``coeff``, one (coords, values) pair per orbit size:
    row r of both is one basis vector, values[r] at global coordinates
    coords[r] (coordinate (j, a) is j * f + a; each point's f coordinates
    adjacent).
    """
    n, f = perms.shape[1], mats.shape[-1]
    split = bool((mats == 0).any(axis=(1, 2)).all())
    bases: list[_Parts] = [[] for _ in coeff]
    # Orbits {g(j)}, named by their smallest point and of size |G| / |stabiliser|,
    # start at the member whose stabiliser, as packed bits, sorts first, so
    # the start's stabiliser depends only on the orbit's type; member l is the
    # l-th point the operations reach from there.
    fixed = perms == np.arange(n)
    stabiliser = np.packbits(fixed, axis=0)
    name = perms.min(axis=0)
    size = len(perms) // np.count_nonzero(fixed, axis=0)
    order = np.lexsort((*stabiliser, name))
    local = np.empty(n, dtype=np.intp)
    fibre = np.arange(f)
    for k in np.flatnonzero(np.bincount(size)):
        members = order[size[order] == k].reshape(-1, k)
        reach = np.argmax(perms[:, members[:, :1]] == members, axis=0)
        members = np.take_along_axis(members, np.argsort(reach, axis=1), axis=1)
        local[members] = np.arange(k)
        coords = (members[:, :, None] * f + fibre).reshape(-1, k * f)
        # The start's stabiliser fixes the orbit's local table.
        first, kind = _distinct_rows(stabiliser[:, members[:, 0]].T)
        tables = local[perms[:, members[first]]].swapaxes(0, 1)
        types, width = len(first), k * f
        piece = _pieces(tables, mats) if split else np.repeat(np.arange(types), width)
        pieces = int(piece.max()) + 1
        t, g, l = np.nonzero(tables == np.arange(k))
        at = g[:, None] * pieces + piece[(t * k + l)[:, None] * f + fibre]
        trace = np.bincount(at.ravel(), mats[g][:, fibre, fibre].ravel(), len(mats) * pieces)
        rank = np.rint((coeff @ trace.reshape(len(mats), pieces)).real)
        row, kept_type, kept = _transfer_vectors(tables, mats, coeff, piece, rank, partner)
        # Each kept vector serves every orbit of its type, row by row.
        by_row = np.argsort(row, kind="stable")
        count = np.bincount(kind, minlength=types)
        copies = count[kept_type[by_row]]
        total = np.cumsum(copies)
        orbit = np.argsort(kind, kind="stable")[
            np.repeat(np.cumsum(count)[kept_type[by_row]] - total, copies) + np.arange(copies.sum())
        ]
        coords, kept = coords[orbit], kept[by_row][np.repeat(np.arange(len(by_row)), copies)]
        ends = np.cumsum(np.bincount(row, count[kept_type], len(coeff)).astype(np.intp))
        for i, (lo, hi) in enumerate(zip([0, *ends[:-1].tolist()], ends.tolist())):
            if hi > lo:
                bases[i].append((coords[lo:hi], kept[lo:hi]))
    return bases


def _transfer_vectors(
    tables: np.ndarray, mats: np.ndarray, coeff: np.ndarray, piece: np.ndarray, rank: np.ndarray, partner: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orthonormal vectors ``_isotypic_bases`` keeps for the orbit types
    of one size, ``tables`` (types, |G|, k): ``rank[i, p]`` of them for row i
    of ``coeff`` on piece p (``piece`` labels each type's k * f
    coordinates), from the columns of member 0, and of r(0) with
    ``partner``.  Returns per vector its row of ``coeff``, its type, and its
    values at the type's coordinates."""
    types, _, k = tables.shape
    f = mats.shape[-1]
    width, cols = k * f, f * (1 + partner)
    fibres = np.tile(np.arange(f), 1 + partner)
    # Column c of type t comes from coordinate (source[t, c], fibres[c]), and
    # gains coeff[i, g] mats[g][:, fibres[c]] at the member g sends it to.
    source = np.zeros((types, cols), dtype=np.intp)
    if partner:
        source[:, f:] = tables[:, 1, :1]
    image = np.take_along_axis(tables, source[:, None, :], axis=2)[..., None] * f + np.arange(f)
    slot = np.arange(len(coeff) * types).reshape(-1, types, 1, 1, 1) * cols
    at = (slot + np.arange(cols)[:, None]) * width + image
    entries = coeff[:, None, :, None, None] * mats[:, :, fibres].swapaxes(1, 2)
    shape = (len(coeff), types, cols, width)
    columns = _scatter(at.ravel(), np.broadcast_to(entries, at.shape).ravel(), math.prod(shape)).reshape(shape)
    gram = columns.conj() @ columns.swapaxes(-1, -2)
    # The columns of each piece, pieces of one column count together.
    owner = piece[(np.arange(types)[:, None] * k + source) * f + fibres].ravel()
    by_piece = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner, minlength=rank.shape[1])
    none = np.zeros(0, dtype=np.intp)
    found = [(none, none, np.zeros((0, width), dtype=columns.dtype))]
    for q in np.flatnonzero(np.bincount(sizes)):
        mine = np.flatnonzero(sizes == q)
        flat = by_piece[(np.cumsum(sizes) - sizes)[mine][:, None] + np.arange(q)]
        kinds, col = flat[:, 0] // cols, flat % cols
        values, vectors = np.linalg.eigh(gram[:, kinds[:, None, None], col[:, :, None], col[:, None, :]])
        keep = rank[:, mine].astype(np.intp)
        bad = (keep < 0) | (keep > q)
        if bad.any():
            raise DegenerateSpan(f"a projector's trace asks for {keep[bad][0]} vectors from {q} columns")
        kept_pair = np.arange(q) >= q - keep[..., None]
        if (values[kept_pair] <= 0).any():
            raise DegenerateSpan("a projector's columns span fewer dimensions than its trace")
        scale = np.zeros(values.shape)
        scale[kept_pair] = 1 / np.sqrt(values[kept_pair])
        mix = (vectors * scale[..., None, :]) @ _spreads(q)[keep]
        i, p, j = np.nonzero(kept_pair)
        chosen = columns[i[:, None], kinds[p][:, None], col[p]]
        found.append((i, kinds[p], np.einsum("nc,ncx->nx", mix[i, p, :, j], chosen)))
    return tuple(np.concatenate(parts) for parts in zip(*found))  # type: ignore[return-value]


def _spreads(q: int) -> np.ndarray:
    """Per r = 0 .. q, a fixed real orthogonal q x q matrix that keeps the
    first q - r coordinates and mixes the last r by the reflection
    I - 2 v v^T / (v^T v), v = (1, 2, .., r), which has no zero entry for
    r >= 2: orthonormal vectors times it span the same space, and each is a
    combination of all of them."""
    v = np.maximum(np.arange(q) - q + 1 + np.arange(q + 1)[:, None], 0.0)
    norms = np.maximum(np.einsum("ra,ra->r", v, v), 1.0)
    return np.eye(q) - 2 * v[:, :, None] * v[:, None, :] / norms[:, None, None]


def _isotypic(
    fw: Framework, action: SymmetryAction, table: CharacterTable, space: str, parity: int = 1
) -> list[_Parts]:
    """Per irrep, the ``_isotypic_bases`` parts of one parity half of its
    isotypic component of the velocity space (``space="velocity"``) or of
    the bar space ("edge").

    The halves are the eigenspaces of rho(sigma) for the reference mirror
    sigma, the first mirror of the action, after its n rotations:
    ``parity=1`` the sigma-even half, ``parity=-1`` the sigma-odd one.
    Only 2-D irreps (those of C_nv) are split.  Their projector P_i
    commutes with rho(sigma), so P_i (1 +- rho(sigma)) / 2 projects onto a
    half, with coefficient row (c_i(g) +- c_i(g sigma)) / 2, and each half
    holds one of the two partners of every copy of the irrep: dim V_i / 2.
    The product g sigma is index arithmetic on the group's powers
    (``symmetry._times_sigma``).  A 1-D irrep's whole component is its even half,
    and its odd half is empty.  The two halves' parts together are a basis
    of the whole component.
    """
    mats = action.matrices
    dims = np.array([ir.dim for ir in table.irreps])
    chars = table.as_matrix()[:, action.classes]
    coeff = np.conj(chars) * (dims / action.group.order)[:, None]
    if not chars.imag.any():
        coeff = coeff.real
    split = dims == 2
    if split.any():
        coeff[split] = (coeff[split] + parity * coeff[split][:, _times_sigma(action.group)]) / 2
    built = np.flatnonzero(split | (parity > 0))
    bases: list[_Parts] = [[] for _ in table.irreps]
    if not built.size:
        return bases
    if space == "velocity":
        perms, fibre = _moving_perm(fw, action.vperms), mats
    else:
        perms, fibre = action.eperms, np.ones((len(mats), 1, 1))
    for i, parts in zip(built, _isotypic_bases(perms, fibre, coeff[built], bool(split.any()))):
        bases[i] = parts
    return bases


def _whole(
    fw: Framework, action: SymmetryAction, table: CharacterTable, space: str, even: list[_Parts]
) -> list[_Parts]:
    """Per irrep, the parts of its whole isotypic component: the sigma-even
    half ``even`` from ``_isotypic`` and the sigma-odd half."""
    return [e + o for e, o in zip(even, _isotypic(fw, action, table, space, -1))]


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


def _rigid_motions(fw: Framework, table: CharacterTable) -> np.ndarray:
    """Per irrep, how often it occurs in the rigid-body motions: none when
    pinned, else the reduction of their character (reptheory's
    ``_motion_character``).  The motions span an invariant space, so this
    is the count classifying ``trivial_motion_basis`` by irrep gives,
    divided by the irrep's dimension."""
    if fw.is_pinned:
        return np.zeros(len(table.irreps), dtype=int)
    return np.array([coeff for _, _, coeff in reduce(_motion_character(table.group), table).terms])


def _max_entry(blocks: np.ndarray, d: np.ndarray, n: int) -> float:
    """max |R| from R's rows as ``rigidity_rows`` gives them; 1.0 when R has
    no entries."""
    if not blocks.size or not n:
        return 1.0
    rows = (blocks[:, 0] >= 0) | (blocks[:, 1] >= 0)
    return max(float(np.abs(d[rows, k]).max(initial=0.0)) for k in (0, 1))


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


def _joint_tables(velocity: list[_Parts], n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Per irrep, the number of vectors in its velocity basis; and three
    tables of every irrep's entries at once, one row per slot: irrep i's
    entries at joint j are the columns, x values and y values at column
    i (n + 1) + j, zero-padded, and column i (n + 1) + n stays zero for
    pinned ends."""
    cols, (irrep, joint, col, value) = _entries(velocity, 2)
    key = irrep * (n + 1) + joint
    order = np.argsort(key, kind="stable")
    key, col, value = key[order], col[order], value[order]
    count = np.bincount(key, minlength=len(cols) * (n + 1))
    slot = np.arange(key.size) - (np.cumsum(count) - count)[key]
    at_col = np.zeros((int(count.max(initial=0)), len(count)), dtype=np.intp)
    at_x, at_y = (np.zeros(at_col.shape, dtype=value.dtype) for _ in range(2))
    at_col[slot, key], at_x[slot, key], at_y[slot, key] = col, value[:, 0], value[:, 1]
    return cols, (at_col, at_x, at_y)


def _adapted_blocks(
    fw: Framework, velocity: list[_Parts], bar: list[_Parts], blocks: np.ndarray, d: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield, per irrep i, the block E_i^H R V_i as (rows, cols, at,
    values): entry at[k] of the flat rows x cols block gains values[k],
    duplicates summed in the order given (``_singular_values``).  Triples
    whose value is an exact zero, the padding among them, are dropped: a
    ``bincount`` sum starts at +0.0 and is never -0.0, so a +0.0 or -0.0
    term changes no entry.  ``velocity`` and ``bar`` are the isotypic bases
    from ``_isotypic``; ``blocks`` and ``d`` are R's rows from
    ``rigidity_rows``.  The per-joint tables of all irreps are built in one
    pass, and the triples irrep by irrep from them, each value bitwise
    conj(E) (d_x V_x + d_y V_y) summed from +0.0 as a dot product over (x, y)
    pairs would."""
    n = int(np.count_nonzero(fw.velocity_blocks >= 0))
    # Pinned ends read the zero column of each irrep's per-joint tables.
    first, second = (np.ascontiguousarray(end) for end in np.where(blocks < 0, n, blocks).T)
    dx, dy = np.ascontiguousarray(d[:, 0]), np.ascontiguousarray(d[:, 1])
    cols, (at_col, at_x, at_y) = _joint_tables(velocity, n)
    # Entry (row, col) gains conj(E_i[b, row]) d_b . (V_i[j1, col] -
    # V_i[j2, col]) for each bar b = (j1, j2) and each entry at its ends: the
    # x product plus the y product, negated at j2, bitwise (-p) + (-q), and
    # then + 0.0, so a zero part is +0.0, as in a sum that starts at +0.0.
    # The triples of a bar entry are its slots at j1, then its slots at j2.
    for i, e_parts in enumerate(bar):
        (rows,), (_, bars, row, weight) = _entries([e_parts], 1)
        ends = [i * (n + 1) + first[bars], i * (n + 1) + second[bars]]
        w = weight[:, 0].conj()
        at = np.concatenate([np.take(at_col, end, axis=1) for end in ends])
        at += row * cols[i]
        pair = np.concatenate([np.take(at_x, end, axis=1) for end in ends]) * (w * dx[bars])
        pair += np.concatenate([np.take(at_y, end, axis=1) for end in ends]) * (w * dy[bars])
        np.negative(pair[len(at_col) :], out=pair[len(at_col) :])
        at, pair = at.T.ravel(), pair.T.ravel()
        live = np.flatnonzero(pair)
        yield int(rows), int(cols[i]), at[live], pair[live] + 0.0


def _singular_values(rows: int, cols: int, at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The min(rows, cols) singular values, in descending order, of the
    rows x cols block whose flat entry at[k] gains values[k].

    A block with fewer than ``_SPLIT_MIN`` rows or columns is scattered
    densely by one ``bincount`` and takes one SVD.  A larger one is never
    formed whole.  Its entries are the sums of the triples at each flat
    index, added in the order given as ``bincount`` adds them, so each is
    bitwise the dense block's.  Rows and columns joined by a non-zero sum
    (no threshold) form a bipartite graph, and the block is block-diagonal
    up to a permutation of rows and columns, one diagonal block per connected component, so its
    singular values are the components' together.  A block of one component
    is filled densely from its sums and takes one SVD; otherwise each
    component's sums are scattered into a zero sub-block, its rows and
    columns in ascending order, and the bitwise-distinct sub-blocks of one
    shape (``_distinct_rows``; the first of each, in order) take one
    batched SVD, whose values serve every copy: the congruent grid lines of
    a block share one SVD, and every value is the one an SVD of each copy
    gives.  The values that a component's non-square shape or an empty row
    or column leaves out are exact zeros.
    """
    if min(rows, cols) < _SPLIT_MIN:
        block = _scatter(at, values, rows * cols).reshape(rows, cols)
        return np.linalg.svd(block, compute_uv=False) if block.size else np.zeros(0)
    keys, inverse = np.unique(at, return_inverse=True)
    sums = _scatter(inverse, values, len(keys))
    keys, sums = keys[sums != 0], sums[sums != 0]
    r, c = np.divmod(keys, cols)
    heads, piece = np.unique(_components(r, rows + c, rows + cols), return_inverse=True)
    # Per component: its shape, and each row's and column's index in it.
    sides = (piece[:rows], piece[rows:])
    shape = np.stack([np.bincount(side, minlength=len(heads)) for side in sides], axis=1)
    full = shape.min(axis=1) > 0
    if np.count_nonzero(full) == 1:
        block = np.zeros(rows * cols, dtype=sums.dtype)
        block[keys] = sums
        return np.linalg.svd(block.reshape(rows, cols), compute_uv=False)
    local = [np.empty(rows, dtype=np.intp), np.empty(cols, dtype=np.intp)]
    for index, side, size in zip(local, sides, shape.T):
        start = np.repeat(np.cumsum(size) - size, size)
        index[np.argsort(side, kind="stable")] = np.arange(len(side)) - start
    # One key per shape, ascending as (rows, cols) pairs are: the components
    # of each shape lie together in ``by_shape`` and their entries together
    # in ``by_entry``, both in their own ascending order.
    key = shape[:, 0] * (cols + 1) + shape[:, 1]
    by_shape = np.flatnonzero(full)[np.argsort(key[full], kind="stable")]
    starts = np.flatnonzero(np.diff(key[by_shape], prepend=-1))
    same = np.diff(np.append(starts, len(by_shape)))
    slot = np.empty(len(heads), dtype=np.intp)
    slot[by_shape] = np.arange(len(by_shape)) - np.repeat(starts, same)
    part_key = key[piece[r]]
    by_entry = np.argsort(part_key, kind="stable")
    ends = np.searchsorted(part_key[by_entry], key[by_shape[starts]], side="right")
    sigmas = [np.zeros(min(rows, cols) - int(shape.min(axis=1).sum()))]
    for k, count, mine in zip(by_shape[starts], same, np.split(by_entry, ends[:-1])):
        sub_blocks = np.zeros((count, *shape[k]), dtype=sums.dtype)
        sub_blocks[slot[piece[r[mine]]], local[0][r[mine]], local[1][c[mine]]] = sums[mine]
        # The first of each set of copies, in their own order, take the SVD.
        first, copy = _distinct_rows(sub_blocks)
        order = np.argsort(first)
        sv = np.linalg.svd(sub_blocks[first[order]], compute_uv=False)
        sigmas.append(sv[np.argsort(order)[copy]].ravel())
    return np.sort(np.concatenate(sigmas))[::-1]


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
    rank_i - t_i, with t_i the dimension of the rigid-body motions' part in
    V_i (pinned frameworks have none).  R also commutes with the reference
    mirror sigma, so it maps each sigma-parity half of V_i into the same half
    of E_i, and for a 2-D irrep the two halves' blocks have the same singular
    values (Schur's lemma; Kangwai & Guest 2000).  ``velocity`` and ``bar``
    are the sigma-even halves from ``_isotypic``, and only their blocks are
    built: with d_i the irrep's dimension (a 1-D irrep's even half is its
    whole component), rank_i = d_i rank_+, s_i = d_i (rows_+ - rank_+) and
    m_i = d_i (cols_+ - rank_+ - t_+).  The motions span an invariant space,
    whose even half holds t_+ = t_i / d_i, the irrep's multiplicity in them
    (``_rigid_motions``).

    ``_adapted_blocks`` yields the blocks one at a time as orbit-local
    triples: each entry of E_i at a bar meets V_i's entries at the bar's two
    joints, so a block costs O(entries of E_i x most entries at a joint),
    and no e x cols array is formed.  Each block's shape (rows_+, cols_+)
    comes with its triples.  Only singular values are computed, one SVD per
    connected component of a block's exact non-zeros (``_singular_values``,
    which forms the rows x cols block only when it is small or of one
    component); a row or column with no non-zero adds no singular value but
    still counts in rows_+ or cols_+.
    The rank cutoff is the full matrix's, rel_tol * sigma_max * max(e,
    cols) with sigma_max the largest block singular value, and the halves
    hold every singular value of R, each counted once rather than d_i
    times.

    ``velocity``, ``bar`` and ``rows`` (R from ``rigidity_rows``) are built
    once per ``verify``.  ``residual`` is the intertwining residual.
    Returns None when it is large enough that some rank decision could
    differ in R itself.
    """
    blocks, d, n = rows
    sigmas, shapes = [], []
    for block in _adapted_blocks(fw, velocity, bar, blocks, d):
        sigmas.append(_singular_values(*block))
        shapes.append(block[:2])

    top = max((float(sv[0]) for sv in sigmas if sv.size), default=0.0)
    size = max(fw.num_edges, 2 * n)
    cutoff = _cutoff(rel_tol, top, (size,))
    # Each operation moves an entry of R by at most the residual, and R's rows
    # have 4 entries and its columns one per bar at the joint, so R is within
    # 4 * residual * sqrt(max degree) of its diagonal blocks in 2-norm.  Its
    # singular values, and with them the cutoff, move by no more than that.
    moving_ends = blocks[blocks >= 0]
    degree = np.bincount(moving_ends).max() if moving_ends.size else 0
    slack = 4.0 * residual * np.sqrt(degree) * (1.0 + rel_tol * size)
    if any(np.any(np.abs(sv - cutoff) < slack) for sv in sigmas):
        return None
    ranks, s_by, m_by = [], {}, {}
    for ir, sv, (de, dv), t in zip(table.irreps, sigmas, shapes, _rigid_motions(fw, table)):
        r = int(np.sum(sv > cutoff))
        ranks.append(ir.dim * r)
        s_by[ir.label] = ir.dim * (de - r)
        m_by[ir.label] = ir.dim * (dv - r - int(t))
    return _Counts(sum(ranks), sum(s_by.values()), sum(m_by.values()), s_by, m_by)


def _full_counts(
    fw: Framework, table: CharacterTable, velocity: list[_Parts] | None, bar: list[_Parts] | None, rel_tol: float
) -> _Counts:
    """Counts from one SVD of the whole rigidity matrix, with its left kernel
    (the self-stresses) and its kernel classified by irrep in the whole
    components' bases ``velocity`` and ``bar`` (``_whole`` of the block
    route's even halves).  The SVD's bases are orthonormal, so they go to
    ``_classify`` as they are.  m = dim ker R - (number of rigid-body
    motions), and m_i = k_i - t_i with k_i the kernel's irrep dimension and
    t_i the motions' (``_rigid_motions``), the block route's rule.  Valid
    whether or not R intertwines the action; ``verify`` uses it when
    intertwining fails, and without bases (None) when the character table's
    projectors do not resolve the identity, which leaves the per-irrep
    counts out."""
    rank, stresses, kernel = _svd_spaces(rigidity_matrix_pinned(fw), rel_tol)
    s_by: dict[str, int] | None = None
    m_by: dict[str, int] | None = None
    error = "the irrep projectors do not resolve the identity"
    if velocity is not None and bar is not None:
        error = ""
        try:
            s_by = _classify(stresses, table, bar)
            k_by = _classify(kernel, table, velocity)
            t_by = zip(table.irreps, _rigid_motions(fw, table))
            m_by = {ir.label: k_by[ir.label] - ir.dim * int(t) for ir, t in t_by}
        except ClassMismatch as exc:
            error = str(exc)
    motions = 0 if fw.is_pinned else 3  # two translations and a rotation, none when pinned
    return _Counts(rank, stresses.shape[0], kernel.shape[0] - motions, s_by, m_by, error)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    residual: float | None = None
    threshold: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


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
    tol: float = SYM_TOL,
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
    across the rank cutoff.  When the projector check fails no isotypic
    basis is built: the counts come from the whole matrix, and the
    per-irrep checks fail.

    Raises NotSymmetric / ClassMismatch when the framework fails the census
    under the requested group, and ValueError for a single unpinned joint
    (see ``maxwell_count``) or a ``tol`` or ``rel_tol`` that is not a finite
    number >= 0.
    """
    _check_tolerance("rel_tol", rel_tol)
    analysis, action = _analysis(fw, group, tol)
    pg, k, gamma = action.group, analysis.k, analysis.decomposition
    table = character_table(pg)
    # sum_i d_i conj(chi_i(g)) / |G| - delta_{g,E} per class; E is class 0.
    dims = np.array([ir.dim for ir in table.irreps], dtype=float)
    weights = dims @ np.conj(table.as_matrix()) / pg.order
    weights[0] -= 1.0
    res_p = float(np.max(np.abs(weights)))
    rows = rigidity_rows(fw, fw.velocity_blocks)

    checks: list[CheckResult] = []

    res = intertwining_residual(fw, action=action)
    thr = RESIDUAL_TOL * _max_entry(*rows)
    if res_p > RESIDUAL_TOL:
        # No isotypic bases: they are built from the projectors' traces and columns.
        counts = _full_counts(fw, table, None, None, rel_tol)
    else:
        velocity, bar = (_isotypic(fw, action, table, space) for space in ("velocity", "edge"))
        counts = _block_counts(fw, table, velocity, bar, rows, rel_tol, res) if res <= thr else None
        if counts is None:
            velocity = _whole(fw, action, table, "velocity", velocity)
            bar = _whole(fw, action, table, "edge", bar)
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
        # Both routes count every irrep, so s_by and m_by hold every label.
        mismatches = []
        for row in analysis.irreps:
            diff = m_by[row.label] - s_by[row.label]
            if diff != row.dim * row.gamma:
                mismatches.append(f"{row.label}: m-s = {diff}, dim*gamma = {row.dim * row.gamma}")
        checks.append(
            CheckResult(
                "per_irrep_identity",
                not mismatches,
                "; ".join(mismatches) or "m_i - s_i = dim_i * gamma_i for every irrep",
            )
        )
        shortfalls = []
        for row in analysis.irreps:
            if s_by[row.label] < row.s_detected:
                shortfalls.append(f"{row.label}: s_i = {s_by[row.label]} < {row.s_detected}")
            if m_by[row.label] < row.m_detected:
                shortfalls.append(f"{row.label}: m_i = {m_by[row.label]} < {row.m_detected}")
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
