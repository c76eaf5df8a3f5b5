"""Planar point groups, symmetry detection, and the symmetry census.

Supported groups are the cyclic rotation groups C_n (about a centre point)
and the dihedral-type groups C_nv (n rotations and n mirror lines).  C_1 is
the trivial group and C_s = C_1v is a single mirror.

Conventions
-----------
* Mirror and rotation operations act about an explicit centre point.
* Mirror axis angles are measured from the +x axis; "Cs:90" on the CLI is a
  vertical mirror.
* Conjugacy classes are listed canonically: identity first, rotation classes
  by increasing step (the half-turn class is labelled "C2"), then the
  reference mirror class, then the remaining mirror class.
* For C_2v the reference mirror class is labelled "sigma_h" and the other
  "sigma_v"; for even n >= 4 they are "sigma_v" (containing the reference
  axis) and "sigma_d".  Odd n has a single class "sigma".
* The census counts, per conjugacy class, how many joints and how many bars
  are fixed (mapped to themselves) by the operations of that class.  A bar
  fixed by a mirror either lies in the mirror line or is perpendicular to and
  centred on it; a bar fixed by the half-turn is centred on the centre point.
* A :class:`SymmetryAction` is the one carrier of a group acting on a
  framework: its group, read-only centre, and every operation's joint and
  bar permutation, stacked as (|G|, v) and (|G|, e) arrays with the
  operation matrices and class indices, so each consumer (the census, the
  numeric checks, the renderer) reads all operations in one array pass and
  takes the group from the action.  It is built once.  Only the two
  generators, the rotation r by 2 pi / n and the reference mirror s, are
  matched joint by joint, and the identity is not matched at all.  Every
  other operation is r^t or r^t s, t its power (``PointGroup.powers``, set
  by ``group_elements``, the one place that knows the canonical order).
  Its joint permutation is composed from the generators', as arrays, and
  accepted when one vectorised check of the stacked rotations, and one of
  the stacked mirrors, finds each joint's image within the tolerance of
  the joint it is sent to.  The check passes only when no two joints are
  within twice the tolerance of each other (the crowding guard), and an
  operation it rejects is matched directly, so crowded joints take the
  same path with every non-identity operation matched.  Bar permutations
  are composed the same way, so only directly matched operations look
  their bars up.
* ``resolve_action`` computes the action ``analyze``, ``verify`` and
  ``render`` share (through ``counting._resolve``, their one front end): for
  an auto-detected group, the generators detection matched feed the
  action, so each is matched once per call.  One matcher
  (``_Generated``) is built per resolve.  It holds the joint index
  (``_JointIndex``: the joints sorted by projection, the absolute tolerance
  and the matching window), the bar lookup and the read-only centre, and
  makes every direct match of detection and of the action.  Matching reads
  the framework's x and y columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .errors import ClassMismatch, DimensionMismatch, NotSymmetric
from .framework import (
    Framework,
    _check_tolerance,
    _is_number,
    _range_pairs,
    bbox_diagonal,
    maxwell_count,
    maxwell_count_of,
    require_distinct_joints,
)

__all__ = [
    "SymmetryOperation",
    "ConjugacyClass",
    "PointGroup",
    "GroupSpec",
    "SymmetryCensus",
    "rotation_op",
    "mirror_op",
    "identity_op",
    "group_elements",
    "apply_op",
    "vertex_permutation",
    "edge_permutation",
    "SymmetryAction",
    "symmetry_action",
    "census",
    "make_census",
    "detect_groups",
    "parse_group_arg",
    "group_spec_from_json",
    "group_spec_to_json",
    "resolve_group",
    "resolve_action",
]

# Default relative tolerance for matching joints to their symmetry images.
SYM_TOL = 1e-9

_SNAP_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

# Joints are matched to images along this direction first.  Its slope is
# irrational, so joints in one lattice row or column project apart.
_MATCH_DIRECTION = np.array([math.cos(0.5377), math.sin(0.5377)])


def _snap(x: float) -> float:
    """Snap near-exact trigonometric values so quarter- and third-turn
    operations are exact in double arithmetic."""
    for v in _SNAP_VALUES:
        if abs(x - v) < 1e-14:
            return v
    return x


@dataclass(frozen=True)
class SymmetryOperation:
    """A single orthogonal operation: identity, rotation, or mirror.

    ``angle`` is the rotation angle in radians for rotations, the axis angle
    (mod pi) for mirrors, and 0.0 for the identity.  ``matrix`` is the 2x2
    orthogonal matrix acting on coordinates relative to the centre.
    """

    kind: str  # "identity" | "rotation" | "mirror"
    angle: float
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return float(self.matrix[0, 0] + self.matrix[1, 1])

    @property
    def det(self) -> float:
        m = self.matrix
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def identity_op() -> SymmetryOperation:
    return SymmetryOperation("identity", 0.0, np.eye(2))


def rotation_op(angle: float) -> SymmetryOperation:
    """Counter-clockwise rotation by ``angle`` radians about the centre."""
    c = _snap(math.cos(angle))
    s = _snap(math.sin(angle))
    return SymmetryOperation("rotation", angle, np.array([[c, -s], [s, c]]))


def mirror_op(axis_angle: float) -> SymmetryOperation:
    """Reflection in the line through the centre at ``axis_angle`` radians."""
    a = axis_angle % math.pi
    c = _snap(math.cos(2 * a))
    s = _snap(math.sin(2 * a))
    return SymmetryOperation("mirror", a, np.array([[c, s], [s, -c]]))


@dataclass(frozen=True)
class ConjugacyClass:
    label: str
    kind: str  # "identity" | "rotation" | "mirror"
    operations: tuple[SymmetryOperation, ...]
    # Rotation classes carry the representative step j (of n); 0 otherwise.
    step: int = 0

    @property
    def size(self) -> int:
        return len(self.operations)

    @property
    def trace(self) -> float:
        """Trace of the 2x2 coordinate action (equal across the class)."""
        return self.operations[0].trace

    @property
    def det(self) -> float:
        """Determinant of the coordinate action: +1 rotations, -1 mirrors."""
        return self.operations[0].det


def _rotation_class_label(n: int, j: int) -> str:
    g = math.gcd(j, n)
    n_red, j_red = n // g, j // g
    if n_red == 2:
        return "C2"
    if j_red == 1:
        return f"C{n_red}"
    return f"C{n_red}^{j_red}"


@dataclass(frozen=True)
class PointGroup:
    """A planar point group C_n or C_nv with its conjugacy classes.

    ``powers`` is read-only and holds, per operation in canonical order, the
    power t that ``group_elements`` built it as.  The first n operations are
    the rotations r^t by 2 pi t / n, the identity and then r (for n > 1)
    first.  The others are the mirrors r^t s, the reference mirror s first:
    r^t s is the mirror whose axis lies pi t / n beyond the reference axis.
    """

    family: str  # "Cn" | "Cnv"
    n: int
    mirror_angle: float = 0.0  # reference mirror axis (radians), Cnv only
    classes: tuple[ConjugacyClass, ...] = field(default=(), compare=False)
    powers: np.ndarray = field(default=(), compare=False)

    def __post_init__(self) -> None:
        powers = np.array(self.powers, dtype=np.intp)
        powers.setflags(write=False)
        object.__setattr__(self, "powers", powers)

    @property
    def name(self) -> str:
        if self.family == "Cn":
            return "C1" if self.n == 1 else f"C{self.n}"
        return "Cs" if self.n == 1 else f"C{self.n}v"

    @property
    def order(self) -> int:
        return self.n if self.family == "Cn" else 2 * self.n

    def class_labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.classes)

    def operations(self) -> tuple[SymmetryOperation, ...]:
        return tuple(op for c in self.classes for op in c.operations)

    def __repr__(self) -> str:
        return f"PointGroup({self.name}, mirror_angle={self.mirror_angle:.6g})"


def group_elements(family: str, n: int, mirror_angle: float = 0.0) -> PointGroup:
    """Construct a point group with classes in canonical order.

    ``family`` is "Cn" (cyclic rotations) or "Cnv" (rotations plus n
    mirrors); ``n`` >= 1.  For C_nv, ``mirror_angle`` fixes the reference
    mirror axis; the remaining mirrors sit at multiples of pi/n from it.
    """
    if family not in ("Cn", "Cnv"):
        raise ValueError(f"unknown group family {family!r}")
    if n < 1:
        raise ValueError(f"group index n must be >= 1, got {n}")

    classes: list[ConjugacyClass] = [
        ConjugacyClass("E", "identity", (identity_op(),))
    ]
    powers = [0]
    if family == "Cn":
        for j in range(1, n):
            op = rotation_op(2 * math.pi * j / n)
            classes.append(
                ConjugacyClass(_rotation_class_label(n, j), "rotation", (op,), step=j)
            )
            powers.append(j)
        return PointGroup("Cn", n, 0.0, tuple(classes), powers)

    # Cnv: paired rotation classes {j, n-j}, then the half turn, then mirrors.
    for j in range(1, (n + 1) // 2):
        ops = (rotation_op(2 * math.pi * j / n), rotation_op(2 * math.pi * (n - j) / n))
        classes.append(
            ConjugacyClass(_rotation_class_label(n, j), "rotation", ops, step=j)
        )
        powers += [j, n - j]
    if n % 2 == 0:
        classes.append(
            ConjugacyClass("C2", "rotation", (rotation_op(math.pi),), step=n // 2)
        )
        powers.append(n // 2)
    # Mirror k, at pi k / n beyond the reference axis, is r^k s.
    mirrors = [mirror_op(mirror_angle + k * math.pi / n) for k in range(n)]
    if n % 2 == 1:
        classes.append(ConjugacyClass("sigma", "mirror", tuple(mirrors)))
        powers += range(n)
    else:
        ref_label, alt_label = ("sigma_h", "sigma_v") if n == 2 else ("sigma_v", "sigma_d")
        classes.append(ConjugacyClass(ref_label, "mirror", tuple(mirrors[0::2])))
        classes.append(ConjugacyClass(alt_label, "mirror", tuple(mirrors[1::2])))
        powers += [*range(0, n, 2), *range(1, n, 2)]
    return PointGroup("Cnv", n, mirror_angle % math.pi, tuple(classes), powers)


def _times_sigma(group: PointGroup) -> np.ndarray:
    """Per operation g of the C_nv ``group``, in canonical order, the index
    of g sigma, sigma the reference mirror.  In ``group_elements``' order
    the first n operations are r^t and the others r^t sigma, t the power
    (``PointGroup.powers``), so g sigma is r^t sigma or r^t, since sigma
    sigma is the identity."""
    n = group.n
    # Key t for r^t and n + t for r^t sigma; g sigma has key (key + n) mod 2n.
    key = np.arange(2 * n) // n * n + group.powers
    return np.argsort(key)[(key + n) % (2 * n)]


def _images(
    mats: np.ndarray, dx: np.ndarray, dy: np.ndarray, center: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The x and y coordinates of the images, under each operation matrix of
    ``mats`` (ops, 2, 2) about ``center``, of the points at offsets (dx, dy)
    from it: two (ops, points) arrays.  Each coordinate is one sum of two
    products, so every BLAS gives the same floats."""
    m = mats.reshape(mats.shape + (1,) * np.ndim(dx))
    return (m[:, 0, 0] * dx + m[:, 0, 1] * dy) + center[0], (m[:, 1, 0] * dx + m[:, 1, 1] * dy) + center[1]


def apply_op(
    op: SymmetryOperation, positions: np.ndarray, center: np.ndarray | Sequence[float]
) -> np.ndarray:
    """Apply the operation about ``center`` to an array of points (v, 2)."""
    pos = np.asarray(positions, dtype=float)
    ctr = np.asarray(center, dtype=float)
    x, y = _images(op.matrix[None], pos[..., 0] - ctr[0], pos[..., 1] - ctr[1], ctr)
    return np.stack([x[0], y[0]], axis=-1)


class _JointIndex:
    """The joints of ``fw`` sorted for matching at tolerance ``tol``: built
    once per resolve and shared by every match it makes.

    ``order`` sorts the joints by their projection on ``_MATCH_DIRECTION``
    and ``proj`` holds the sorted projections.  ``tol_abs`` is ``tol``
    times the bounding-box diagonal (1 for a single point), ``magnitude``
    the largest absolute coordinate, and ``window`` the matching window,
    ``tol_abs`` plus a rounding allowance for images near the joints.
    ``uncrowded`` is true when every gap between sorted projections exceeds
    twice the window, so no image has two joints within the tolerance.
    A projection is one sum of two products, so every BLAS gives the same
    floats.  Every match is made through one, so it validates ``tol``:
    ValueError unless it is a finite number >= 0.
    """

    def __init__(self, fw: Framework, tol: float) -> None:
        self.fw, self.tol = fw, _check_tolerance("tol", tol)
        scale = bbox_diagonal(fw.positions)
        self.tol_abs = tol * (scale if scale > 0 else 1.0)
        proj = _project(fw.x, fw.y)
        self.order = np.argsort(proj, kind="stable")
        self.proj = proj[self.order]
        self.magnitude = float(np.abs(fw.positions).max(initial=0.0))
        self.window = self.tol_abs + 8 * np.finfo(float).eps * (2 * self.magnitude)
        self.uncrowded = bool(np.all(np.diff(self.proj) > 2 * self.window))


def _project(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The projections of the points (x, y) on ``_MATCH_DIRECTION``."""
    return x * _MATCH_DIRECTION[0] + y * _MATCH_DIRECTION[1]


def _nearest_joints(
    index: _JointIndex, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each image (x[k], y[k]), the nearest joint closer than
    ``index.tol_abs`` and its distance; distance inf where no joint is that
    close.

    Each image is compared only with the joints whose projection lies
    within the tolerance, plus a rounding allowance, of its own: a run of
    ``index.order``, found by two binary searches with the images taken in
    projection order.  Its nearest candidate has the run's minimum
    distance, one ``np.minimum.reduceat`` over the runs, and of equal
    distances is the first in projection order.  An image with a NaN
    coordinate matches no joint.
    """
    fw = index.fw
    target = _project(x, y)
    images = max(float(np.abs(x).max(initial=0.0)), float(np.abs(y).max(initial=0.0)))
    slack = index.tol_abs + 8 * np.finfo(float).eps * (index.magnitude + images)
    # Binary searches for ascending targets branch predictably: sorting
    # first made the two searches about three times faster on a
    # 1256-joint grid.
    rank = np.argsort(target)
    target = target[rank]
    lo = np.searchsorted(index.proj, target - slack, "left")
    counts = np.searchsorted(index.proj, target + slack, "right") - lo

    nearest = np.zeros(len(x), dtype=int)
    dist = np.full(len(x), np.inf)
    # Blocks never split an owner, so each image sees all its candidates.
    for owner, member in _range_pairs(lo, counts):
        image, cand = rank[owner], index.order[member]
        d = np.sqrt((x[image] - fw.x[cand]) ** 2 + (y[image] - fw.y[cand]) ** 2)
        start = _run_starts(owner)
        least = np.minimum.reduceat(d, np.flatnonzero(start))
        hit = np.flatnonzero(d == least[np.cumsum(start) - 1])
        first = hit[_run_starts(owner[hit])]
        nearest[image[first]] = cand[first]
        dist[image[first]] = d[first]
    return nearest, dist


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True where a run of equal ``keys`` begins."""
    start = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    return start


def vertex_permutation(
    fw: Framework,
    op: SymmetryOperation,
    center: np.ndarray | Sequence[float] | None = None,
    tol: float = SYM_TOL,
    *,
    index: _JointIndex | None = None,
) -> np.ndarray:
    """The joint permutation induced by ``op``: perm[i] = image joint of i.

    Matching is nearest-neighbour with an absolute tolerance of ``tol`` times
    the bounding-box diagonal, over a joint index (``_JointIndex``) of
    ``fw``: ``index`` when given, built at ``tol``, else one built here.
    Images are computed column by column, and a bijection is one in which
    every joint is hit once (``np.bincount``).  Raises NotSymmetric when an
    image has no matching joint, when two joints collide onto one, or when
    a pinned joint maps to an unpinned one (or vice versa), and ValueError
    when two joints sit at the same point.
    """
    ctr = fw.centroid() if center is None else np.asarray(center, dtype=float)
    if index is None:
        index = _JointIndex(fw, tol)
    x, y = _images(op.matrix[None], fw.x - ctr[0], fw.y - ctr[1], ctr)
    x, y = x[0], y[0]
    perm, dist = _nearest_joints(index, x, y)
    tol_abs = index.tol_abs
    bad = np.flatnonzero(dist > tol_abs)
    if bad.size:
        i = int(bad[0])
        nearest = np.sqrt((fw.x - x[i]) ** 2 + (fw.y - y[i]) ** 2).min()
        raise NotSymmetric(
            f"joint {i} has no image match under {op.kind} "
            f"(nearest joint is {nearest:.3g} away, tolerance {tol_abs:.3g})"
        )
    if np.count_nonzero(np.bincount(perm, minlength=fw.num_vertices)) != fw.num_vertices:
        require_distinct_joints(fw.positions)
        raise NotSymmetric(
            f"operation {op.kind} maps two joints onto the same joint"
        )
    pinned = fw.pinned_mask
    crossed = np.flatnonzero(pinned != pinned[perm])
    if crossed.size:
        raise NotSymmetric(
            f"operation {op.kind} maps joint {int(crossed[0])} across the "
            "pinned/unpinned boundary"
        )
    return perm


class _BarLookup:
    """Finds bars by their endpoints in one sorted array of bar keys, each
    key min(i, j) * v + max(i, j) formed from the two end columns."""

    def __init__(self, fw: Framework) -> None:
        self.v = fw.num_vertices
        self.ends = fw.ends
        self.first, self.second = fw.ends.T
        keys = self._keys(self.first, self.second)
        self.rows = np.argsort(keys, kind="stable")
        self.keys = keys[self.rows]

    def _keys(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.minimum(i, j) * self.v + np.maximum(i, j)

    def permutation(self, vperm: np.ndarray) -> np.ndarray:
        """The bar permutation induced by a joint permutation."""
        a, b = vperm[self.first], vperm[self.second]
        wanted = self._keys(a, b)
        # Ascending keys make the binary search branch predictably, as in
        # ``_nearest_joints``.
        by_key = np.argsort(wanted)
        at = np.empty_like(by_key)
        at[by_key] = np.searchsorted(self.keys, wanted[by_key])
        np.minimum(at, max(len(self.keys) - 1, 0), out=at)
        missing = np.flatnonzero(self.keys[at] != wanted)
        if missing.size:
            row = int(missing[0])
            i, j = self.ends[row]
            raise NotSymmetric(
                f"bar ({i}, {j}) maps to ({a[row]}, {b[row]}), which is not a bar"
            )
        return self.rows[at]


def edge_permutation(fw: Framework, vperm: np.ndarray) -> np.ndarray:
    """The bar permutation induced by a joint permutation.

    Raises NotSymmetric if some bar's image is not a bar.
    """
    return _BarLookup(fw).permutation(np.asarray(vperm))


@dataclass(frozen=True)
class SymmetryAction:
    """A point group acting on one framework about ``center``.

    The action is held as stacked arrays, one row per operation of the
    group in canonical class order: ``vperms`` (|G|, v) and ``eperms`` (|G|,
    e) the joint and bar permutations, ``matrices`` (|G|, 2, 2) the
    operation matrices and ``classes`` (|G|,) the class indices.  Row g is
    operation ``group.operations()[g]``: it sends joint i to joint
    ``vperms[g, i]`` and bar b to bar ``eperms[g, b]``.  The stacks and
    the centre are read-only.
    """

    group: PointGroup
    center: np.ndarray
    vperms: np.ndarray
    eperms: np.ndarray
    matrices: np.ndarray
    classes: np.ndarray


# An operation's (joint permutation, bar permutation), or a stack of them.
_Perms = tuple[np.ndarray, np.ndarray]


class _Generated:
    """The one matcher of a resolve: it holds the joint index
    (``_JointIndex``) of ``fw`` at ``tol``, the bar lookup (``_BarLookup``)
    and a read-only copy of ``center``, and every direct match goes through
    it.  Joint and bar permutations are composed from those of two
    generators: the rotation r by 2 pi / n and a reference mirror s.
    ``rotations(n)`` gives the stacked pairs of r^0 .. r^(n-1) and
    ``reflections`` those of the mirrors r^k s; the joint and bar
    permutations of a product ab are a's indexed by b's.

    A composed pair is accepted for an operation only when every joint's
    image lies within the matching tolerance of the joint it is sent to, by
    the float formula ``vertex_permutation`` uses, and when the joint index
    is uncrowded: every gap between the sorted projections on
    ``_MATCH_DIRECTION`` exceeds twice the matching window.  Then no image
    has two joints within the tolerance, so an accepted joint permutation is
    the one ``vertex_permutation`` would return.  It is a bijection that
    keeps pins on pins, and its bar permutation is the one the bar lookup
    would find, because the generators' permutations are and do.
    ``accepted`` checks a stack of operations in one pass, with the x and
    y coordinates in separate (operations, joints) arrays; when the joints
    are crowded it rejects every row.  An operation the check rejects is
    matched directly (``matched``), over the same index and bar lookup, so
    one resolve sorts the joints and the bar keys once.  Which power of r,
    and which mirror r^k s, an operation is comes from the group
    (``PointGroup.powers``), never from its angle or matrix.

    Detection seeds an instance with the generators it matched (``r`` and
    ``mirror``); ``_act`` checks each seed like any composed pair before it
    uses it.
    """

    def __init__(self, fw: Framework, tol: float, center: np.ndarray | Sequence[float]) -> None:
        self.fw = fw
        self.index = _JointIndex(fw, tol)
        self.bars = _BarLookup(fw)
        self.center = np.array(center, dtype=float)
        self.center.setflags(write=False)
        self.r: _Perms | None = None
        self.mirror: _Perms | None = None

    def rotations(self, count: int) -> _Perms:
        """The stacked pairs of r^0 .. r^(count-1), each r^m composed as
        r^(m-1) r; r's must be known when count > 1."""
        stacks = []
        for size, gen in ((self.fw.num_vertices, 0), (self.fw.num_edges, 1)):
            stack = np.empty((count, size), dtype=np.intp)
            stack[0] = np.arange(size)
            for m in range(1, count):
                stack[m] = stack[m - 1][self.r[gen]]  # type: ignore[index]
            stacks.append(stack)
        return stacks[0], stacks[1]

    def reflections(self, rotations: _Perms) -> _Perms:
        """The pairs of r^k s for the stacked pairs of r^k ``rotations``."""
        s_v, s_e = self.mirror  # type: ignore[misc]
        return rotations[0][:, s_v], rotations[1][:, s_e]

    def accepted(self, mats: np.ndarray, vperms: np.ndarray) -> np.ndarray:
        """Per operation matrix of ``mats`` (ops, 2, 2), whether the joint
        permutation in the same row of ``vperms`` passes the check."""
        if not self.index.uncrowded:
            return np.zeros(len(mats), dtype=bool)
        c, px, py = self.center, self.fw.x, self.fw.y
        x, y = _images(mats, px - c[0], py - c[1], c)
        dx, dy = x - px[vperms], y - py[vperms]
        return np.all(np.sqrt(dx**2 + dy**2) <= self.index.tol_abs, axis=1)

    def checked(self, ops: Sequence[SymmetryOperation], mats: np.ndarray, perms: _Perms, start: int) -> _Perms:
        """The stacked pairs ``perms`` composed for ``ops``, with each row
        from ``start`` on that ``accepted`` rejects replaced, in order, by
        direct matching; the rows before ``start`` are already verified."""
        vperms, eperms = perms
        for g in start + np.flatnonzero(~self.accepted(mats[start:], vperms[start:])):
            vperms[g], eperms[g] = self.matched(ops[g])
        return vperms, eperms

    def matched(self, op: SymmetryOperation, perms: _Perms | None = None) -> _Perms:
        """``perms`` if accepted for ``op``; else ``vertex_permutation``'s
        joint permutation and the bar permutation the bar lookup finds for
        it."""
        if perms is not None and self.accepted(op.matrix[None], perms[0][None])[0]:
            return perms
        vperm = vertex_permutation(self.fw, op, self.center, self.index.tol, index=self.index)
        return vperm, self.bars.permutation(vperm)

    def tried(self, op: SymmetryOperation) -> _Perms | None:
        """``matched(op)``, or None if ``op`` is not a symmetry."""
        try:
            return self.matched(op)
        except NotSymmetric:
            return None


def _act(group: PointGroup, gen: _Generated) -> SymmetryAction:
    """``group``'s action about ``gen.center``: ``symmetry_action`` with the
    generators ``gen`` may already hold.

    In canonical order the identity and r come first, then the other
    rotations, then s and the other mirrors.  The identity is not matched:
    its permutations are ``arange``, and only coincident joints, which no
    matching tells apart, raise there (ValueError).  r and s are each taken
    from the seed when it passes the check and matched directly otherwise.
    Every other rotation r^t is composed from r, and every other mirror
    r^t s from r and s, with t read from ``group.powers``, as arrays, and
    each of the two stacks is checked in one ``gen.accepted`` pass; an
    operation it rejects is matched directly, in canonical order, so the
    first operation that is not a symmetry raises as direct matching of
    every non-identity operation would.  Crowded joints take the same
    path: the check rejects every composed row, so each non-identity
    operation is matched directly, once.
    """
    n, ops, powers = group.n, group.operations(), group.powers
    mats = np.array([op.matrix for op in ops])
    classes = np.repeat(np.arange(len(group.classes)), group.class_sizes())
    # Coincident joints raise before r is matched; uncrowded joints are distinct.
    if not gen.index.uncrowded:
        require_distinct_joints(gen.fw.positions)
    if n > 1:
        gen.r = gen.matched(ops[1], gen.r)
    # Each stack starts with the rows that are already verified: r^0 and r
    # among the rotations, s among the mirrors.
    rotations = gen.rotations(n)
    turns = powers[:n]
    vperms, eperms = gen.checked(ops[:n], mats[:n], (rotations[0][turns], rotations[1][turns]), 2)
    if len(ops) > n:
        gen.mirror = gen.matched(ops[n], gen.mirror)
        steps = powers[n:]
        mirrored = gen.reflections((rotations[0][steps], rotations[1][steps]))
        mirror_v, mirror_e = gen.checked(ops[n:], mats[n:], mirrored, 1)
        vperms, eperms = np.concatenate([vperms, mirror_v]), np.concatenate([eperms, mirror_e])
    for stack in (vperms, eperms, mats, classes):
        stack.setflags(write=False)
    return SymmetryAction(group, gen.center, vperms, eperms, mats, classes)


def symmetry_action(
    fw: Framework,
    group: PointGroup,
    center: np.ndarray | Sequence[float] | None = None,
    tol: float = SYM_TOL,
) -> SymmetryAction:
    """Compute every operation's joint and bar permutation once.

    Only the generators are matched joint by joint (``vertex_permutation``)
    and have their bars looked up: the rotation by 2 pi / n and the
    reference mirror, the first rotation and the first mirror in canonical
    class order.  The identity is not matched, so it holds at any
    tolerance, even 0, where its image (p - c) + c can miss p by one
    rounding.  Every other operation's joint and bar permutations
    are composed from the generators', and accepted by one vectorised
    displacement check per stack of rotations or mirrors (see
    ``_Generated`` and ``_act``); when the check fails, or when two joints
    are too close for it to decide, that operation is matched directly.
    Raises NotSymmetric at the first non-identity operation, in canonical
    order, that is not a symmetry of the framework, with the message direct
    matching gives, and ValueError, before any matching, when two joints
    coincide.  The action's centre is a read-only copy of ``center``
    (default the joint centroid).
    ``resolve_action`` gives the same action for a group spec.
    """
    ctr = fw.centroid() if center is None else center
    return _act(group, _Generated(fw, tol, ctr))


def _action_for(
    fw: Framework,
    group: PointGroup | None,
    center: np.ndarray | Sequence[float] | None,
    tol: float,
    action: SymmetryAction | None,
) -> SymmetryAction:
    """The action a consumer given ``group``, ``center``, ``tol`` and
    ``action`` works with: ``action`` when given, else ``symmetry_action(fw,
    group, center, tol)``.  ValueError when ``group`` is given and is not
    ``action.group``, TypeError when neither is given."""
    if action is None:
        if group is None:
            raise TypeError("a group or an action is needed")
        return symmetry_action(fw, group, center, tol)
    if group is not None and group != action.group:
        raise ValueError(f"group {group!r} is not the action's group {action.group!r}")
    return action


@dataclass(frozen=True)
class SymmetryCensus:
    """Fixed-element counts of a framework under a point group.

    ``v`` is the number of counted joints (internal joints only when
    ``pinned`` is true), ``e`` the number of bars.  ``fixed_vertices`` and
    ``fixed_edges`` hold one count per conjugacy class in canonical order;
    the identity entries always equal v and e.
    """

    group: PointGroup
    v: int
    e: int
    pinned: bool
    fixed_vertices: tuple[int, ...]
    fixed_edges: tuple[int, ...]
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        ncls = len(self.group.classes)
        if len(self.fixed_vertices) != ncls or len(self.fixed_edges) != ncls:
            raise DimensionMismatch(
                f"census needs one count per class ({ncls}), got "
                f"{len(self.fixed_vertices)} / {len(self.fixed_edges)}"
            )
        if self.fixed_vertices[0] != self.v or self.fixed_edges[0] != self.e:
            raise ValueError("identity class must fix every joint and bar")
        if any(c < 0 for c in self.fixed_vertices + self.fixed_edges):
            raise ValueError("census counts must be non-negative")

    @property
    def freedom_number(self) -> int:
        """k = mechanisms - self-stresses."""
        return maxwell_count_of(self.v, self.e, self.pinned)

    def _class_index(self, label: str) -> int | None:
        for idx, cls in enumerate(self.group.classes):
            if cls.label == label:
                return idx
        return None

    @property
    def v_c(self) -> int:
        """Joints fixed by the rotations (at the centre point)."""
        best = 0
        for idx, cls in enumerate(self.group.classes):
            if cls.kind == "rotation":
                best = max(best, self.fixed_vertices[idx])
        return best

    @property
    def e_2(self) -> int:
        """Bars fixed by the half-turn (centred on the centre point)."""
        idx = self._class_index("C2")
        return self.fixed_edges[idx] if idx is not None else 0

    def mirror_labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.group.classes if c.kind == "mirror")

    def e_sigma(self, label: str | None = None) -> int:
        """Bars fixed per mirror of the given mirror class (default: the
        unique mirror class)."""
        return self._mirror_count(self.fixed_edges, label)

    def v_sigma(self, label: str | None = None) -> int:
        """Joints fixed per mirror of the given mirror class."""
        return self._mirror_count(self.fixed_vertices, label)

    def _mirror_count(self, counts: tuple[int, ...], label: str | None) -> int:
        labels = self.mirror_labels()
        if not labels:
            raise ValueError(f"group {self.group.name} has no mirror classes")
        if label is None:
            if len(labels) > 1:
                raise ValueError(
                    f"group {self.group.name} has mirror classes {labels}; "
                    "specify one"
                )
            label = labels[0]
        idx = self._class_index(label)
        if idx is None or self.group.classes[idx].kind != "mirror":
            raise ValueError(f"no mirror class labelled {label!r}")
        return counts[idx]

    def to_dict(self) -> dict[str, Any]:
        return {
            "group": self.group.name,
            "v": self.v,
            "e": self.e,
            "pinned": self.pinned,
            "classes": [
                {
                    "label": cls.label,
                    "size": cls.size,
                    "fixed_vertices": self.fixed_vertices[i],
                    "fixed_edges": self.fixed_edges[i],
                }
                for i, cls in enumerate(self.group.classes)
            ],
        }


def census(
    fw: Framework,
    group: PointGroup | None = None,
    center: np.ndarray | Sequence[float] | None = None,
    tol: float = SYM_TOL,
    *,
    action: SymmetryAction | None = None,
) -> SymmetryCensus:
    """Count fixed joints and bars per conjugacy class.

    Every operation of a class must fix the same number of joints and bars;
    otherwise ClassMismatch is raised.  NotSymmetric propagates from the
    underlying permutation checks.  For pinned frameworks, joint counts cover
    internal joints only (bars are always counted in full).  A precomputed
    ``action`` on ``fw`` replaces ``group``, ``center`` and ``tol``; a
    ``group`` given with it must be its group (ValueError otherwise).  Like
    ``maxwell_count``, raises ValueError for an unpinned framework with fewer
    than two joints.
    """
    maxwell_count(fw)
    action = _action_for(fw, group, center, tol, action)
    counted = ~fw.pinned_mask
    # Per operation, the fixed joints and bars; then each against the first
    # operation of its class.
    vfixed = np.count_nonzero((action.vperms == np.arange(fw.num_vertices)) & counted, axis=1)
    efixed = np.count_nonzero(action.eperms == np.arange(fw.num_edges), axis=1)
    classes = action.classes
    first = np.flatnonzero(np.r_[True, classes[1:] != classes[:-1]])
    differ = (vfixed != vfixed[first][classes]) | (efixed != efixed[first][classes])
    if differ.any():
        bad = classes[np.argmax(differ)]
        per_op = set(zip(vfixed[classes == bad].tolist(), efixed[classes == bad].tolist()))
        raise ClassMismatch(
            f"operations in class {action.group.classes[bad].label} fix differing counts "
            f"(joints, bars): {sorted(per_op)}"
        )

    ctr = action.center
    return SymmetryCensus(
        group=action.group,
        v=int(np.count_nonzero(counted)),
        e=fw.num_edges,
        pinned=fw.is_pinned,
        fixed_vertices=tuple(vfixed[first].tolist()),
        fixed_edges=tuple(efixed[first].tolist()),
        center=(float(ctr[0]), float(ctr[1])),
    )


def make_census(
    family: str,
    n: int,
    v: int,
    e: int,
    pinned: bool = False,
    v_c: int = 0,
    e_2: int = 0,
    v_sigma: int | tuple[int, int] = 0,
    e_sigma: int | tuple[int, int] = 0,
    mirror_angle_deg: float = 0.0,
) -> SymmetryCensus:
    """Build a census directly from counts (no geometry).

    For C_nv with even n, ``v_sigma`` / ``e_sigma`` are pairs
    (reference class, other class); otherwise scalars.  ``mirror_angle_deg``
    orients the reference mirror; it never affects a count.  Like
    ``maxwell_count``, raises ValueError for an unpinned census with fewer
    than two joints.
    """
    maxwell_count_of(v, e, pinned)
    group = group_elements(family, n, math.radians(mirror_angle_deg))
    fixed_v: list[int] = []
    fixed_e: list[int] = []
    mirror_pairs: list[tuple[int, int]] = []
    if family == "Cnv" and n % 2 == 0:
        if not isinstance(v_sigma, tuple) or not isinstance(e_sigma, tuple):
            raise ValueError(
                f"C{n}v has two mirror classes; pass v_sigma/e_sigma as pairs"
            )
        mirror_pairs = [tuple(v_sigma), tuple(e_sigma)]  # type: ignore[list-item]
    mirror_seen = 0
    for cls in group.classes:
        if cls.kind == "identity":
            fixed_v.append(v)
            fixed_e.append(e)
        elif cls.kind == "rotation":
            fixed_v.append(v_c)
            fixed_e.append(e_2 if cls.label == "C2" else 0)
        else:
            if mirror_pairs:
                fixed_v.append(mirror_pairs[0][mirror_seen])
                fixed_e.append(mirror_pairs[1][mirror_seen])
                mirror_seen += 1
            else:
                fixed_v.append(int(v_sigma))  # type: ignore[arg-type]
                fixed_e.append(int(e_sigma))  # type: ignore[arg-type]
    return SymmetryCensus(
        group=group,
        v=v,
        e=e,
        pinned=pinned,
        fixed_vertices=tuple(fixed_v),
        fixed_edges=tuple(fixed_e),
    )


# ---------------------------------------------------------------------------
# Symmetry detection
# ---------------------------------------------------------------------------


def _divisors_desc(n: int) -> list[int]:
    return [d for d in range(n, 1, -1) if n % d == 0]


def _radius_shells(radii: np.ndarray, joints: np.ndarray, tol_abs: float) -> tuple[int, list[int]]:
    """Radius shells of ``joints``: sorted by radius, a new shell starts
    where a radius exceeds the one before it by more than tol_abs.
    Rotations and mirrors permute each shell.  Returns the gcd of the shell
    sizes and the first smallest shell, as joint indices by radius."""
    order = joints[np.argsort(radii[joints])]
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(radii[order]) > tol_abs) + 1, [order.size]])
    sizes = np.diff(bounds)
    k = int(np.argmin(sizes))
    return math.gcd(*sizes.tolist()), order[bounds[k] : bounds[k + 1]].tolist()


# A detected group as the arguments of ``group_elements``: (family, n, mirror angle).
_GroupKey = tuple[str, int, float]


def _detect(fw: Framework, tol: float) -> tuple[list[_GroupKey], _Generated]:
    """``detect_groups`` without building the groups: the sorted keys of the
    listed groups and the ``_Generated`` about the centroid that made every
    match.

    The ``_Generated`` is seeded with the generators detection matched, the
    largest rotation and the first mirror found; ``_act`` checks them
    against the group it acts with before it uses them.
    """
    gen = _Generated(fw, tol, fw.centroid())
    center, tol_abs = gen.center, gen.index.tol_abs

    ox, oy = fw.x - center[0], fw.y - center[1]
    radii = np.hypot(ox, oy)
    off_center = np.where(radii > tol_abs)[0]
    if off_center.size == 0:
        return [("Cn", 1, 0.0)], gen

    # Maximal rotation order divides every shell size.
    g, shell = _radius_shells(radii, off_center, tol_abs)
    rot_order = 1
    for cand in _divisors_desc(g):
        perms = gen.tried(rotation_op(2 * math.pi / cand))
        if perms is not None:
            rot_order = cand
            gen.r = perms
            break

    # Candidate mirror axes from the smallest shell: an axis either passes
    # through a shell joint or bisects a pair of them.
    angles = [math.atan2(oy[i], ox[i]) for i in shell]
    cand_angles: list[float] = []
    for ai in range(len(angles)):
        for aj in range(ai, len(angles)):
            cand_angles.append(((angles[ai] + angles[aj]) / 2) % math.pi)
    r_shell = float(radii[shell[0]])
    ang_tol = max(tol_abs / r_shell, 1e-12)
    cand_angles.sort()
    dedup: list[float] = []
    for a in cand_angles:
        if not dedup or (a - dedup[-1] > ang_tol and (math.pi - a + dedup[0]) > ang_tol):
            dedup.append(a)
    # The first mirror found, m0, is matched directly.  A later candidate
    # within ang_tol of its image under a rotation r^k first tries r^k m0,
    # all such candidates in one check; the others, and those the check
    # rejects, are matched directly in ascending order.
    mirrors: list[float] = []
    for first, a in enumerate(dedup):
        perms = gen.tried(mirror_op(a))
        if perms is not None:
            gen.mirror = perms
            mirrors.append(a)
            break
    if mirrors:
        later = dedup[first + 1 :]
        step = math.pi / rot_order
        turns = [round((a - mirrors[0]) / step) for a in later]
        near = [i for i, (a, k) in enumerate(zip(later, turns)) if abs(a - mirrors[0] - k * step) <= ang_tol]
        accepted = np.zeros(len(later), dtype=bool)
        if near:
            rotations = gen.rotations(rot_order)
            steps = [turns[i] % rot_order for i in near]
            composed = gen.reflections((rotations[0][steps], rotations[1][steps]))
            mats = np.array([mirror_op(later[i]).matrix for i in near])
            accepted[near] = gen.accepted(mats, composed[0])
        for a, good in zip(later, accepted):
            if good or gen.tried(mirror_op(a)) is not None:
                mirrors.append(a)

    # Enumerate subgroups from the verified generators.  With rotation order
    # N and mirrors present, the N mirror axes are evenly spaced by pi/N
    # (sorted ascending), and the C_nv subgroups for n | N are generated by
    # the rotation through 2*pi/n together with any one of the first N/n
    # axes; axes beyond that repeat subgroups already listed.
    entries: list[tuple[tuple[float, int, float], _GroupKey]] = []
    for n_div in _divisors_desc(rot_order):
        entries.append(((-float(n_div), 1, 0.0), ("Cn", n_div, 0.0)))
    if mirrors:
        if len(mirrors) == rot_order:
            for n_div in _divisors_desc(rot_order) + [1]:
                for r in range(rot_order // n_div):
                    ref = mirrors[r]
                    entries.append(((-2.0 * n_div, 0, ref), ("Cnv", n_div, ref)))
        else:
            for ref in mirrors:
                entries.append(((-2.0, 0, ref), ("Cnv", 1, ref)))
    entries.append(((-1.0, 1, 0.0), ("Cn", 1, 0.0)))
    entries.sort(key=lambda item: item[0])
    # (family, n) fixes the group's name: keep the first key per name and
    # reference axis, as deduplicating the built groups did.
    keys: list[_GroupKey] = []
    seen: set[tuple[str, int, float]] = set()
    for _, (family, n, ref) in entries:
        name = (family, n, round(ref % math.pi, 9))
        if name not in seen:
            seen.add(name)
            keys.append((family, n, ref))
    return keys, gen


def detect_groups(
    fw: Framework, tol: float = SYM_TOL
) -> list[tuple[PointGroup, np.ndarray]]:
    """Detect point groups of the framework about its joint centroid.

    Returns candidate (group, centre) pairs sorted maximal-first: descending
    group order, C_nv before C_n at equal order, then ascending reference
    mirror angle.  The trivial group C_1 is always last.  Every pair holds
    the same read-only centre.  Only the centroid is tried as a centre; a
    framework symmetric about a different point only (possible when extra
    massless joints shift the centroid) must be given its group explicitly.

    Rotation orders are tested by direct matching, largest first.  So is
    each candidate mirror axis up to the first that holds, m0.  A later
    candidate within the angular tolerance of m0 + k pi / N, for the
    rotation order N found, first tries the permutation composed from the
    rotation's and m0's, accepted by the displacement check and crowding
    guard of ``symmetry_action``; any other candidate, or one whose composed
    permutation fails the check (every one, when the joints are crowded),
    is matched directly, through the one ``_Generated`` of the call.  The
    list is the one direct matching of every candidate gives.  Every listed
    group is built; ``resolve_group`` and ``resolve_action`` build only the
    first.
    """
    keys, gen = _detect(fw, tol)
    return [(group_elements(*key), gen.center) for key in keys]


# ---------------------------------------------------------------------------
# Group specifications (CLI strings and JSON descriptors)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """A declared symmetry group: family, index, centre, mirror angle.

    ``family`` is one of "C1", "Cs", "Cn", "Cnv", or "auto" (detect).  The
    centre defaults to the joint centroid when None.  Angles are degrees
    from the +x axis.
    """

    family: str
    n: int = 1
    center: tuple[float, float] | None = None
    mirror_angle_deg: float = 0.0

    @property
    def is_auto(self) -> bool:
        return self.family == "auto"


# Each declared family: the group family it builds (``group_elements``),
# whether it takes an index n, and whether it takes a mirror angle.
_FAMILIES = {
    "C1": ("Cn", False, False),
    "Cs": ("Cnv", False, True),
    "Cn": ("Cn", True, False),
    "Cnv": ("Cnv", True, True),
}


def _family(name: Any) -> tuple[str, bool, bool]:
    """The ``_FAMILIES`` row of declared family ``name``; ValueError for any
    other value.  The membership test compares and never hashes, so an
    unhashable value (a JSON list or object) is rejected the same way."""
    if name not in tuple(_FAMILIES):
        raise ValueError(f'group "family" must be C1, Cs, Cn, or Cnv, got {name!r}')
    return _FAMILIES[name]


def parse_group_arg(text: str) -> GroupSpec:
    """Parse a CLI group argument.

    Grammar: ``auto | C1 | Cs[:angle_deg] | Cn:<n> | Cnv:<n>[:angle_deg]``,
    with n >= 1 and a finite angle, as ``_FAMILIES`` says each family takes.
    """
    head, *args = text.split(":")
    try:
        if text == "auto":
            return GroupSpec("auto")
        _, takes_n, takes_angle = _FAMILIES[head]
        n = int(args.pop(0)) if takes_n else 1
        ang = float(args.pop()) if takes_angle and args else 0.0
        if n >= 1 and math.isfinite(ang) and not args:
            return GroupSpec(head, n=n, mirror_angle_deg=ang)
    except (KeyError, IndexError, ValueError):
        pass
    raise ValueError(
        f"cannot parse group {text!r}; expected "
        "auto | C1 | Cs[:angle_deg] | Cn:<n> | Cnv:<n>[:angle_deg]"
    )


def group_spec_from_json(obj: Any) -> GroupSpec:
    """Parse the "group" field of a framework document.  ``n`` must be a
    positive integer; a family that takes none (``_FAMILIES``) gets 1."""
    if obj == "auto":
        return GroupSpec("auto")
    if not isinstance(obj, dict):
        raise ValueError('"group" must be an object or the string "auto"')
    family = obj.get("family")
    _, takes_n, _ = _family(family)
    n = obj.get("n", 1)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f'group "n" must be a positive integer, got {n!r}')
    center = obj.get("center")
    if center is not None:
        if (
            not isinstance(center, list)
            or len(center) != 2
            or not all(_is_number(t) for t in center)
        ):
            raise ValueError('group "center" must be a pair of finite numbers')
        center = (float(center[0]), float(center[1]))
    ang = obj.get("mirror_angle_deg", 0.0)
    if not _is_number(ang):
        raise ValueError('group "mirror_angle_deg" must be a finite number')
    return GroupSpec(family, n=n if takes_n else 1, center=center, mirror_angle_deg=float(ang))


def group_spec_to_json(spec: GroupSpec) -> Any:
    """Canonical JSON form of a group spec: ``n`` and ``mirror_angle_deg``
    only for a family that takes them (``_FAMILIES``).  ValueError for a
    family that is not declared there."""
    if spec.is_auto:
        return "auto"
    _, takes_n, takes_angle = _family(spec.family)
    doc: dict[str, Any] = {"family": spec.family}
    if takes_n:
        doc["n"] = spec.n
    if spec.center is not None:
        doc["center"] = [spec.center[0], spec.center[1]]
    if takes_angle:
        doc["mirror_angle_deg"] = spec.mirror_angle_deg
    return doc


def resolve_group(
    spec: GroupSpec, fw: Framework | None = None, tol: float = SYM_TOL
) -> tuple[PointGroup, np.ndarray]:
    """Turn a GroupSpec into a concrete (PointGroup, centre) pair.

    "auto" requires a framework and returns the maximal detected group,
    the first of ``detect_groups``' list, and builds no other.  A declared
    family builds the group ``_FAMILIES`` names, with n = 1 when it takes no
    index; ValueError for a family not declared there.  A declared C_n or
    C_nv with more rotations than the framework has joints raises
    NotSymmetric before its n classes are built (see
    ``_require_few_rotations``).
    """
    if spec.is_auto:
        if fw is None:
            raise ValueError("group 'auto' needs a framework to detect from")
        keys, gen = _detect(fw, tol)
        return group_elements(*keys[0]), gen.center
    built, takes_n, _ = _family(spec.family)
    n = spec.n if takes_n else 1
    if spec.center is not None:
        center = np.asarray(spec.center, dtype=float)
    elif fw is not None:
        center = fw.centroid()
    else:
        center = np.zeros(2)
    if fw is not None and takes_n and n > fw.num_vertices:
        _require_few_rotations(fw, n, center, tol)
    return group_elements(built, n, math.radians(spec.mirror_angle_deg)), center


def resolve_action(spec: GroupSpec, fw: Framework, tol: float = SYM_TOL) -> SymmetryAction:
    """The action on ``fw`` of the group ``spec`` names: equal, operation by
    operation, to ``symmetry_action(fw, *resolve_group(spec, fw, tol), tol)``.

    For "auto" the ``_Generated`` detection matched with feeds the action:
    its joint index, bar lookup and centre, and its generators, the
    rotation by 2 pi / n and the reference mirror, so each generator is
    matched once per call; only the first detected group is built.  A
    declared group is resolved and acted on as those two calls do.
    """
    if not spec.is_auto:
        return symmetry_action(fw, *resolve_group(spec, fw, tol), tol)
    keys, gen = _detect(fw, tol)
    return _act(group_elements(*keys[0]), gen)


def _require_few_rotations(fw: Framework, n: int, center: np.ndarray, tol: float) -> None:
    """Raise NotSymmetric for C_n or C_nv with n > v joints.

    The rotation by 2 pi / n is the first operation ``symmetry_action``
    matches, and it is matched here as there, through a ``_Generated``, so
    when it fails it fails with the same message.  When the tolerance
    swallows it, the group is rejected all the same, before its n classes
    are built: an off-centre joint would have n > v images, and a lone
    joint at the centre is held to the same rule.
    """
    _Generated(fw, tol, center).matched(rotation_op(2 * math.pi / n))
    v = fw.num_vertices
    if v > 1:
        raise NotSymmetric(
            f"the rotation by 360/{n} degrees would give an off-centre joint {n} images, "
            f"but the framework has {v} joints"
        )
    raise NotSymmetric(
        f"the declared group has {n} rotations, more than the framework's {v} joint(s)"
    )
