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
* A :class:`SymmetryAction` holds every operation's joint and bar
  permutation for one framework, group, centre and tolerance.  It is built
  once and shared by the census, the numeric checks and the renderer.  Only
  the two generators, the rotation by 2 pi / n and the reference mirror, are
  matched joint by joint.  Every other joint permutation is composed from
  theirs and accepted when one vectorised check finds each joint's image
  within the tolerance of the joint it is sent to.  The composition is
  trusted only when no two joints are within twice the tolerance of each
  other (the crowding guard); otherwise, and wherever the check fails, an
  operation is matched directly.  Bar permutations are composed the same
  way, so only directly matched operations look their bars up.
* ``resolve_action`` is the front end ``analyze``, ``verify`` and ``render``
  share: for an auto-detected group, the generators detection matched feed
  the action, so each is matched once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .errors import ClassMismatch, DimensionMismatch, NotSymmetric
from .framework import (
    Framework,
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
    "OperationAction",
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
    """A planar point group C_n or C_nv with its conjugacy classes."""

    family: str  # "Cn" | "Cnv"
    n: int
    mirror_angle: float = 0.0  # reference mirror axis (radians), Cnv only
    classes: tuple[ConjugacyClass, ...] = field(default=(), compare=False)

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
    if family == "Cn":
        for j in range(1, n):
            op = rotation_op(2 * math.pi * j / n)
            classes.append(
                ConjugacyClass(_rotation_class_label(n, j), "rotation", (op,), step=j)
            )
        return PointGroup("Cn", n, 0.0, tuple(classes))

    # Cnv: paired rotation classes {j, n-j}, then the half turn, then mirrors.
    for j in range(1, (n + 1) // 2):
        ops = (rotation_op(2 * math.pi * j / n), rotation_op(2 * math.pi * (n - j) / n))
        classes.append(
            ConjugacyClass(_rotation_class_label(n, j), "rotation", ops, step=j)
        )
    if n % 2 == 0:
        classes.append(
            ConjugacyClass("C2", "rotation", (rotation_op(math.pi),), step=n // 2)
        )
    mirrors = [mirror_op(mirror_angle + k * math.pi / n) for k in range(n)]
    if n % 2 == 1:
        classes.append(ConjugacyClass("sigma", "mirror", tuple(mirrors)))
    else:
        ref_label, alt_label = ("sigma_h", "sigma_v") if n == 2 else ("sigma_v", "sigma_d")
        classes.append(ConjugacyClass(ref_label, "mirror", tuple(mirrors[0::2])))
        classes.append(ConjugacyClass(alt_label, "mirror", tuple(mirrors[1::2])))
    return PointGroup("Cnv", n, mirror_angle % math.pi, tuple(classes))


def apply_op(
    op: SymmetryOperation, positions: np.ndarray, center: np.ndarray | Sequence[float]
) -> np.ndarray:
    """Apply the operation about ``center`` to an array of points (v, 2)."""
    pos = np.asarray(positions, dtype=float)
    ctr = np.asarray(center, dtype=float)
    return (pos - ctr) @ op.matrix.T + ctr


def _nearest_joints(
    positions: np.ndarray, images: np.ndarray, tol_abs: float
) -> tuple[np.ndarray, np.ndarray]:
    """For each image, the nearest joint closer than ``tol_abs`` and its
    distance; distance inf where no joint is that close.

    Joints are sorted by their projection onto a fixed direction, and each
    image is compared only with the joints whose projection lies within the
    tolerance of its own.
    """
    proj = positions @ _MATCH_DIRECTION
    order = np.argsort(proj, kind="stable")
    proj = proj[order]
    target = images @ _MATCH_DIRECTION
    magnitude = float(np.abs(positions).max(initial=0.0) + np.abs(images).max(initial=0.0))
    slack = tol_abs + 8 * np.finfo(float).eps * magnitude
    lo = np.searchsorted(proj, target - slack, "left")
    counts = np.searchsorted(proj, target + slack, "right") - lo

    nearest = np.zeros(len(images), dtype=int)
    dist = np.full(len(images), np.inf)
    # Blocks never split an owner, so each image sees all its candidates.
    for owner, member in _range_pairs(lo, counts):
        cand = order[member]
        d = np.sqrt(((images[owner] - positions[cand]) ** 2).sum(axis=1))
        pick = np.lexsort((d, owner))
        owner, cand, d = owner[pick], cand[pick], d[pick]
        keep = np.ones(owner.size, dtype=bool)
        keep[1:] = owner[1:] != owner[:-1]
        nearest[owner[keep]] = cand[keep]
        dist[owner[keep]] = d[keep]
    return nearest, dist


def vertex_permutation(
    fw: Framework,
    op: SymmetryOperation,
    center: np.ndarray | Sequence[float] | None = None,
    tol: float = SYM_TOL,
) -> np.ndarray:
    """The joint permutation induced by ``op``: perm[i] = image joint of i.

    Matching is nearest-neighbour with an absolute tolerance of ``tol`` times
    the bounding-box diagonal.  Raises NotSymmetric when an image has no
    matching joint, when two joints collide onto one, or when a pinned joint
    maps to an unpinned one (or vice versa), and ValueError when two joints
    sit at the same point.
    """
    ctr = fw.centroid() if center is None else np.asarray(center, dtype=float)
    pos = fw.positions
    scale = bbox_diagonal(pos)
    tol_abs = tol * (scale if scale > 0 else 1.0)
    images = apply_op(op, pos, ctr)
    perm, dist = _nearest_joints(pos, images, tol_abs)
    bad = np.flatnonzero(dist > tol_abs)
    if bad.size:
        i = int(bad[0])
        nearest = np.sqrt(((pos - images[i]) ** 2).sum(axis=1)).min()
        raise NotSymmetric(
            f"joint {i} has no image match under {op.kind} "
            f"(nearest joint is {nearest:.3g} away, tolerance {tol_abs:.3g})"
        )
    if np.unique(perm).size != fw.num_vertices:
        require_distinct_joints(pos)
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
    """Finds bars by their endpoints in one sorted array of bar keys."""

    def __init__(self, fw: Framework) -> None:
        self.v = fw.num_vertices
        self.ends = fw.ends
        keys = self._keys(self.ends)
        self.rows = np.argsort(keys, kind="stable")
        self.keys = keys[self.rows]

    def _keys(self, ends: np.ndarray) -> np.ndarray:
        return ends.min(axis=1) * self.v + ends.max(axis=1)

    def permutation(self, vperm: np.ndarray) -> np.ndarray:
        """The bar permutation induced by a joint permutation."""
        images = vperm[self.ends]
        wanted = self._keys(images)
        at = np.minimum(np.searchsorted(self.keys, wanted), max(len(self.keys) - 1, 0))
        missing = np.flatnonzero(self.keys[at] != wanted)
        if missing.size:
            row = int(missing[0])
            (i, j), (a, b) = self.ends[row], images[row]
            raise NotSymmetric(
                f"bar ({i}, {j}) maps to ({a}, {b}), which is not a bar"
            )
        return self.rows[at]


def edge_permutation(fw: Framework, vperm: np.ndarray) -> np.ndarray:
    """The bar permutation induced by a joint permutation.

    Raises NotSymmetric if some bar's image is not a bar.
    """
    return _BarLookup(fw).permutation(np.asarray(vperm))


@dataclass(frozen=True)
class OperationAction:
    """One group operation acting on a framework: joint i goes to joint
    ``vperm[i]`` and bar b to bar ``eperm[b]``."""

    class_index: int
    op: SymmetryOperation
    vperm: np.ndarray
    eperm: np.ndarray


@dataclass(frozen=True)
class SymmetryAction:
    """A point group acting on one framework about ``center``.

    ``ops`` holds every operation of the group in canonical class order,
    with its class index and its joint and bar permutations.
    """

    group: PointGroup
    center: np.ndarray
    ops: tuple[OperationAction, ...]


# An operation's (joint permutation, bar permutation).
_Perms = tuple[np.ndarray, np.ndarray]


class _Generated:
    """Joint and bar permutations composed from those of two generators: the
    rotation r by 2 pi / n and a reference mirror s.  ``rotation(j)`` gives
    the pair of r^j and ``reflection(k)`` that of the mirror r^k s; the
    joint and bar permutations of a product ab are a's indexed by b's.

    A composed pair is accepted for an operation only when every joint's
    image lies within the matching tolerance of the joint it is sent to, by
    the float formula ``vertex_permutation`` uses, and when no two joints
    are crowded: every gap between their sorted projections on
    ``_MATCH_DIRECTION`` exceeds twice the matching window.  Then no image
    has two joints within the tolerance, so an accepted joint permutation is
    the one ``vertex_permutation`` would return.  It is a bijection that
    keeps pins on pins, and its bar permutation is the one the bar lookup
    would find, because the generators' permutations are and do.

    Detection seeds an instance with the generators it matched (``rotations``
    beyond the identity and ``mirror``); ``_act`` checks each seed like any
    composed pair before it uses it.
    """

    def __init__(self, fw: Framework, center: np.ndarray, tol: float) -> None:
        self.fw, self.center, self.tol = fw, center, tol
        pos = fw.positions
        scale = bbox_diagonal(pos)
        self.tol_abs = tol * (scale if scale > 0 else 1.0)
        proj = np.sort(pos @ _MATCH_DIRECTION)
        magnitude = 2 * float(np.abs(pos).max(initial=0.0))
        window = self.tol_abs + 8 * np.finfo(float).eps * magnitude
        self.uncrowded = bool(np.all(np.diff(proj) > 2 * window))
        # rotations[j] is r^j's pair; r's is appended once matched.
        self.rotations: list[_Perms] = [(np.arange(fw.num_vertices), np.arange(fw.num_edges))]
        self.mirror: _Perms | None = None

    def rotation(self, j: int) -> _Perms | None:
        """The pair of r^j, or None while r's is unknown."""
        if len(self.rotations) < 2:
            return self.rotations[0] if j == 0 else None
        r_v, r_e = self.rotations[1]
        while len(self.rotations) <= j:
            last_v, last_e = self.rotations[-1]
            self.rotations.append((r_v[last_v], r_e[last_e]))
        return self.rotations[j]

    def reflection(self, k: int) -> _Perms | None:
        """The pair of r^k s, or None while r's or s's is unknown."""
        rot = self.rotation(k)
        if rot is None or self.mirror is None:
            return None
        return rot[0][self.mirror[0]], rot[1][self.mirror[1]]

    def accepts(self, op: SymmetryOperation, perms: _Perms | None) -> bool:
        if perms is None or not self.uncrowded:
            return False
        pos = self.fw.positions
        d = np.sqrt(((apply_op(op, pos, self.center) - pos[perms[0]]) ** 2).sum(axis=1))
        return bool(np.all(d <= self.tol_abs))

    def matched(self, op: SymmetryOperation, perms: _Perms | None, bars: _BarLookup) -> _Perms:
        """``perms`` if accepted for ``op``; else ``vertex_permutation``'s
        joint permutation and the bar permutation ``bars`` finds for it."""
        if self.accepts(op, perms):
            return perms  # type: ignore[return-value]
        vperm = vertex_permutation(self.fw, op, self.center, self.tol)
        return vperm, bars.permutation(vperm)


def _act(group: PointGroup, gen: _Generated, bars: _BarLookup) -> SymmetryAction:
    """``group``'s action about ``gen.center``: ``symmetry_action`` with the
    generators ``gen`` may already hold.  A seeded generator that fails
    ``gen.accepts`` is matched directly instead, and the rotation powers
    composed from a replaced r are dropped."""
    n = group.n
    ops = []
    for idx, cls in enumerate(group.classes):
        for op in cls.operations:
            if op.kind == "mirror":
                k = round((op.angle - group.mirror_angle) % math.pi * n / math.pi) % n
                if k == 0:  # the reference mirror s
                    perms = gen.mirror = gen.matched(op, gen.mirror, bars)
                else:
                    perms = gen.matched(op, gen.reflection(k), bars)
            else:
                j = round(op.angle * n / (2 * math.pi)) % n
                seed = gen.rotation(j)
                perms = gen.matched(op, seed, bars)
                if j == 1 and perms is not seed:  # r itself, matched directly
                    gen.rotations[1:] = [perms]
            ops.append(OperationAction(idx, op, *perms))
    return SymmetryAction(group, gen.center, tuple(ops))


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
    class order.  Every other operation's joint and bar permutations are
    composed from theirs, and accepted by one vectorised displacement check
    (see ``_Generated``); when the check fails, or when two joints are too
    close for it to decide, that operation is matched directly.  Raises
    NotSymmetric at the first operation, in canonical order, that is not a
    symmetry of the framework, with the message direct matching gives.
    ``resolve_action`` gives the same action for a group spec.
    """
    ctr = fw.centroid() if center is None else np.asarray(center, dtype=float)
    return _act(group, _Generated(fw, ctr, tol), _BarLookup(fw))


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
    group: PointGroup,
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
    ``action`` of ``group`` on ``fw`` replaces ``center`` and ``tol``.  Like
    ``maxwell_count``, raises ValueError for an unpinned framework with fewer
    than two joints.
    """
    maxwell_count(fw)
    if action is None:
        action = symmetry_action(fw, group, center, tol)
    counted = ~fw.pinned_mask
    per_class: list[list[tuple[int, int]]] = [[] for _ in group.classes]
    for act in action.ops:
        vfixed = (act.vperm == np.arange(fw.num_vertices)) & counted
        efixed = act.eperm == np.arange(fw.num_edges)
        per_class[act.class_index].append((int(np.sum(vfixed)), int(np.sum(efixed))))
    for cls, per_op in zip(group.classes, per_class):
        if len(set(per_op)) > 1:
            raise ClassMismatch(
                f"operations in class {cls.label} fix differing counts "
                f"(joints, bars): {sorted(set(per_op))}"
            )

    ctr = action.center
    return SymmetryCensus(
        group=group,
        v=int(np.count_nonzero(counted)),
        e=fw.num_edges,
        pinned=fw.is_pinned,
        fixed_vertices=tuple(per_op[0][0] for per_op in per_class),
        fixed_edges=tuple(per_op[0][1] for per_op in per_class),
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


def _matched(
    fw: Framework, bars: _BarLookup, op: SymmetryOperation, center: np.ndarray, tol: float
) -> _Perms | None:
    """The joint and bar permutations of ``op`` if it is a symmetry, else
    None."""
    try:
        vperm = vertex_permutation(fw, op, center, tol)
        return vperm, bars.permutation(vperm)
    except NotSymmetric:
        return None


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


def _detect(fw: Framework, tol: float) -> tuple[list[_GroupKey], _Generated, _BarLookup]:
    """``detect_groups`` without building the groups: the sorted keys of the
    listed groups, a ``_Generated`` about the centroid, and the bar lookup.

    The ``_Generated`` holds the generators detection matched when they are
    those of the first group, the rotation by 2 pi / n and its reference
    mirror (for C_nv); otherwise it is fresh.
    """
    center = fw.centroid()
    pos = fw.positions
    scale = bbox_diagonal(pos)
    tol_abs = tol * (scale if scale > 0 else 1.0)
    bars = _BarLookup(fw)
    gen = _Generated(fw, center, tol)

    offsets = pos - center
    radii = np.hypot(offsets[:, 0], offsets[:, 1])
    off_center = np.where(radii > tol_abs)[0]
    if off_center.size == 0:
        return [("Cn", 1, 0.0)], gen, bars

    # Maximal rotation order divides every shell size.
    g, shell = _radius_shells(radii, off_center, tol_abs)
    rot_order = 1
    for cand in _divisors_desc(g):
        perms = _matched(fw, bars, rotation_op(2 * math.pi / cand), center, tol)
        if perms is not None:
            rot_order = cand
            gen.rotations.append(perms)
            break

    # Candidate mirror axes from the smallest shell: an axis either passes
    # through a shell joint or bisects a pair of them.
    angles = [math.atan2(offsets[i, 1], offsets[i, 0]) for i in shell]
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
    # The first mirror found is matched directly; a later candidate within
    # ang_tol of its image under a rotation r^k first tries r^k s.
    step = math.pi / rot_order
    mirrors: list[float] = []
    for a in dedup:
        op = mirror_op(a)
        if mirrors:
            k = round((a - mirrors[0]) / step)
            if abs(a - mirrors[0] - k * step) <= ang_tol and gen.accepts(
                op, gen.reflection(k % rot_order)
            ):
                mirrors.append(a)
                continue
        perms = _matched(fw, bars, op, center, tol)
        if perms is not None:
            if not mirrors:
                gen.mirror = perms
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
    family, n, ref = keys[0]
    if n != rot_order or (family == "Cnv" and ref != mirrors[0]):
        gen = _Generated(fw, center, tol)
    return keys, gen, bars


def detect_groups(
    fw: Framework, tol: float = SYM_TOL
) -> list[tuple[PointGroup, np.ndarray]]:
    """Detect point groups of the framework about its joint centroid.

    Returns candidate (group, centre) pairs sorted maximal-first: descending
    group order, C_nv before C_n at equal order, then ascending reference
    mirror angle.  The trivial group C_1 is always last.  Only the centroid
    is tried as a centre; a framework symmetric about a different point only
    (possible when extra massless joints shift the centroid) must be given
    its group explicitly.

    Rotation orders are tested by direct matching, largest first.  So is
    each candidate mirror axis up to the first that holds, m0.  A later
    candidate within the angular tolerance of m0 + k pi / N, for the
    rotation order N found, first tries the permutation composed from the
    rotation's and m0's, accepted by the displacement check and crowding
    guard of ``symmetry_action``; any other candidate, or one whose composed
    permutation fails the check, is matched directly.  The list is the one
    direct matching of every candidate gives.  Every listed group is built;
    ``resolve_group`` and ``resolve_action`` build only the first.
    """
    keys, gen, _ = _detect(fw, tol)
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


def _angle(text: str) -> float:
    """A finite mirror angle in degrees; ValueError otherwise."""
    ang = float(text)
    if not math.isfinite(ang):
        raise ValueError
    return ang


def parse_group_arg(text: str) -> GroupSpec:
    """Parse a CLI group argument.

    Grammar: ``auto | C1 | Cs[:angle_deg] | Cn:<n> | Cnv:<n>[:angle_deg]``.
    """
    parts = text.split(":")
    head = parts[0]
    try:
        if head == "auto" and len(parts) == 1:
            return GroupSpec("auto")
        if head == "C1" and len(parts) == 1:
            return GroupSpec("C1")
        if head == "Cs" and len(parts) in (1, 2):
            ang = _angle(parts[1]) if len(parts) == 2 else 0.0
            return GroupSpec("Cs", mirror_angle_deg=ang)
        if head == "Cn" and len(parts) == 2:
            n = int(parts[1])
            if n < 1:
                raise ValueError
            return GroupSpec("Cn", n=n)
        if head == "Cnv" and len(parts) in (2, 3):
            n = int(parts[1])
            if n < 1:
                raise ValueError
            ang = _angle(parts[2]) if len(parts) == 3 else 0.0
            return GroupSpec("Cnv", n=n, mirror_angle_deg=ang)
    except ValueError:
        pass
    raise ValueError(
        f"cannot parse group {text!r}; expected "
        "auto | C1 | Cs[:angle_deg] | Cn:<n> | Cnv:<n>[:angle_deg]"
    )


def group_spec_from_json(obj: Any) -> GroupSpec:
    """Parse the "group" field of a framework document."""
    if obj == "auto":
        return GroupSpec("auto")
    if not isinstance(obj, dict):
        raise ValueError('"group" must be an object or the string "auto"')
    family = obj.get("family")
    if family not in ("C1", "Cs", "Cn", "Cnv"):
        raise ValueError(f'group "family" must be C1, Cs, Cn, or Cnv, got {family!r}')
    n = obj.get("n", 1)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f'group "n" must be a positive integer, got {n!r}')
    if family in ("C1", "Cs"):
        n = 1
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
    return GroupSpec(family, n=n, center=center, mirror_angle_deg=float(ang))


def group_spec_to_json(spec: GroupSpec) -> Any:
    """Canonical JSON form of a group spec."""
    if spec.is_auto:
        return "auto"
    doc: dict[str, Any] = {"family": spec.family}
    if spec.family in ("Cn", "Cnv"):
        doc["n"] = spec.n
    if spec.center is not None:
        doc["center"] = [spec.center[0], spec.center[1]]
    if spec.family in ("Cs", "Cnv"):
        doc["mirror_angle_deg"] = spec.mirror_angle_deg
    return doc


def resolve_group(
    spec: GroupSpec, fw: Framework | None = None, tol: float = SYM_TOL
) -> tuple[PointGroup, np.ndarray]:
    """Turn a GroupSpec into a concrete (PointGroup, centre) pair.

    "auto" requires a framework and returns the maximal detected group,
    the first of ``detect_groups``' list, and builds no other.  A declared
    C_n or C_nv with more rotations than the framework has joints raises
    NotSymmetric before its n classes are built (see
    ``_require_few_rotations``).
    """
    if spec.is_auto:
        if fw is None:
            raise ValueError("group 'auto' needs a framework to detect from")
        keys, gen, _ = _detect(fw, tol)
        return group_elements(*keys[0]), gen.center
    if spec.center is not None:
        center = np.asarray(spec.center, dtype=float)
    elif fw is not None:
        center = fw.centroid()
    else:
        center = np.zeros(2)
    if fw is not None and spec.family in ("Cn", "Cnv") and spec.n > fw.num_vertices:
        _require_few_rotations(fw, spec.n, center, tol)
    ang = math.radians(spec.mirror_angle_deg)
    if spec.family == "C1":
        group = group_elements("Cn", 1)
    elif spec.family == "Cs":
        group = group_elements("Cnv", 1, ang)
    elif spec.family == "Cn":
        group = group_elements("Cn", spec.n)
    else:
        group = group_elements("Cnv", spec.n, ang)
    return group, center


def resolve_action(spec: GroupSpec, fw: Framework, tol: float = SYM_TOL) -> SymmetryAction:
    """The action on ``fw`` of the group ``spec`` names: equal, operation by
    operation, to ``symmetry_action(fw, *resolve_group(spec, fw, tol), tol)``.

    For "auto" the generators detection matched, the rotation by 2 pi / n
    and the reference mirror, and its bar lookup feed the action, so each
    generator is matched once per call; only the first detected group is
    built.  A declared group is resolved and acted on as those two calls do.
    """
    if not spec.is_auto:
        return symmetry_action(fw, *resolve_group(spec, fw, tol), tol)
    keys, gen, bars = _detect(fw, tol)
    return _act(group_elements(*keys[0]), gen, bars)


def _require_few_rotations(fw: Framework, n: int, center: np.ndarray, tol: float) -> None:
    """Raise NotSymmetric for C_n or C_nv with n > v joints.

    The rotation by 2 pi / n is the first operation ``symmetry_action``
    tests after the identity, so when it fails it fails with the same
    message.  When the tolerance swallows it, the group is rejected all the
    same, before its n classes are built: an off-centre joint would have
    n > v images, and a lone joint at the centre is held to the same rule.
    """
    vperm = vertex_permutation(fw, rotation_op(2 * math.pi / n), center, tol)
    _BarLookup(fw).permutation(vperm)
    v = fw.num_vertices
    if v > 1:
        raise NotSymmetric(
            f"the rotation by 360/{n} degrees would give an off-centre joint {n} images, "
            f"but the framework has {v} joints"
        )
    raise NotSymmetric(
        f"the declared group has {n} rotations, more than the framework's {v} joint(s)"
    )
