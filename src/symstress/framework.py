"""Planar bar-joint framework data model, rigidity matrices, and file I/O.

A framework is a finite set of joints at positions in the plane connected by
straight bars.  Joints may be pinned (grounded): pinned joints carry no
velocity unknowns, but bars incident to them still contribute length
constraints.

The JSON file format is::

    {
      "vertices": [{"id": 0, "x": 0.0, "y": 1.5, "pinned": false}, ...],
      "edges": [[0, 1], ...],
      "group": {"family": "Cnv", "n": 4, "center": [0, 0],
                "mirror_angle_deg": 0}        // optional, or the string "auto"
    }

Vertex ids must be exactly 0..v-1.  Serialisation is canonical: parsing a
file and writing it back is byte-stable, floats use repr round-tripping, and
the decimal separator is always "." regardless of locale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DimensionMismatch, SingularMap

__all__ = [
    "Framework",
    "maxwell_count",
    "rigidity_matrix",
    "rigidity_matrix_pinned",
    "affine_span_dim",
    "affine_map",
    "check_planarity",
    "bbox_diagonal",
    "require_distinct_joints",
    "parse_framework_json",
    "framework_to_json",
    "load_framework",
    "save_framework",
]

# Relative tolerance for geometric predicates (planarity, affine span).
GEOM_TOL = 1e-9


@dataclass(frozen=True)
class Framework:
    """A planar bar-joint framework.

    positions : (v, 2) float array of joint coordinates (made read-only).
    edges     : bars as vertex index pairs, kept in input order.
    pinned    : indices of pinned (grounded) joints.
    """

    positions: np.ndarray
    edges: tuple[tuple[int, int], ...]
    pinned: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=float, copy=True)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise DimensionMismatch(
                f"positions must have shape (v, 2), got {pos.shape}"
            )
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

        v = pos.shape[0]
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        seen: set[tuple[int, int]] = set()
        for i, j in edges:
            if not (0 <= i < v and 0 <= j < v):
                raise DimensionMismatch(f"edge ({i}, {j}) out of range for v={v}")
            if i == j:
                raise ValueError(f"edge ({i}, {j}) is a self-loop")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", edges)

        pins = frozenset(int(i) for i in self.pinned)
        for i in pins:
            if not 0 <= i < v:
                raise DimensionMismatch(f"pinned vertex {i} out of range for v={v}")
        object.__setattr__(self, "pinned", pins)

    @property
    def num_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def is_pinned(self) -> bool:
        return len(self.pinned) > 0

    @property
    def pinned_mask(self) -> np.ndarray:
        """Boolean array over the joints, True at pinned ones."""
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[list(self.pinned)] = True
        return mask

    @property
    def internal_vertices(self) -> tuple[int, ...]:
        """Indices of non-pinned joints, ascending."""
        return tuple(i for i in range(self.num_vertices) if i not in self.pinned)

    def centroid(self) -> np.ndarray:
        return self.positions.mean(axis=0)

    def __repr__(self) -> str:  # keep dataclass repr from dumping the array
        return (
            f"Framework(v={self.num_vertices}, e={self.num_edges}, "
            f"pinned={len(self.pinned)})"
        )


def maxwell_count(fw: Framework) -> int:
    """The freedom number k = (#mechanisms) - (#self-stresses).

    Unpinned frameworks: k = 2v - e - 3 (mechanisms counted beyond the three
    rigid-body motions).  Pinned frameworks: k = 2·v_internal - e.
    """
    if fw.is_pinned:
        return 2 * len(fw.internal_vertices) - fw.num_edges
    return 2 * fw.num_vertices - fw.num_edges - 3


def rigidity_matrix(fw: Framework) -> np.ndarray:
    """The e x 2v rigidity matrix, ignoring pins.

    Row for bar (i, j) carries p_i - p_j in the two columns of joint i and
    p_j - p_i in the columns of joint j; the row is invariant under swapping
    the stored endpoint order.  Kernel vectors are infinitesimal motions,
    left-kernel vectors are self-stresses.
    """
    v = fw.num_vertices
    R = np.zeros((fw.num_edges, 2 * v))
    p = fw.positions
    for row, (i, j) in enumerate(fw.edges):
        d = p[i] - p[j]
        R[row, 2 * i : 2 * i + 2] = d
        R[row, 2 * j : 2 * j + 2] = -d
    return R


def rigidity_matrix_pinned(fw: Framework) -> np.ndarray:
    """The e x 2·v_internal rigidity matrix for a pinned framework.

    All bars contribute rows, but only internal (non-pinned) joints have
    velocity columns; coefficients on pinned joints are dropped.  Column
    blocks follow ascending internal vertex index.
    """
    internal = fw.internal_vertices
    col_of = {vi: c for c, vi in enumerate(internal)}
    R = np.zeros((fw.num_edges, 2 * len(internal)))
    p = fw.positions
    for row, (i, j) in enumerate(fw.edges):
        d = p[i] - p[j]
        if i in col_of:
            c = col_of[i]
            R[row, 2 * c : 2 * c + 2] = d
        if j in col_of:
            c = col_of[j]
            R[row, 2 * c : 2 * c + 2] = -d
    return R


def bbox_diagonal(positions: np.ndarray) -> float:
    """Diagonal length of the axis-aligned bounding box of the points."""
    pos = np.asarray(positions, dtype=float)
    if pos.size == 0:
        return 0.0
    span = pos.max(axis=0) - pos.min(axis=0)
    return float(np.hypot(span[0], span[1]))


def require_distinct_joints(positions: np.ndarray) -> None:
    """Raise ValueError naming two joints at exactly the same point.

    The counting theory allows such joints, but no symmetry matching can
    tell them apart, so input files and the symmetry layer reject them.
    """
    pos = np.asarray(positions, dtype=float)
    order = np.lexsort((pos[:, 1], pos[:, 0]))
    same = np.flatnonzero((pos[order[1:]] == pos[order[:-1]]).all(axis=1))
    if same.size:
        k = int(same[0])
        i, j = sorted((int(order[k]), int(order[k + 1])))
        raise ValueError(
            f"joints {i} and {j} coincide at ({pos[i, 0]:g}, {pos[i, 1]:g})"
        )


def affine_span_dim(positions: np.ndarray, tol: float = GEOM_TOL) -> int:
    """Dimension of the affine span of the points: 0, 1, or 2.

    Computed as the numerical rank of the centred coordinate matrix with a
    relative singular-value cutoff.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise DimensionMismatch(f"positions must have shape (v, 2), got {pos.shape}")
    if pos.shape[0] <= 1:
        return 0
    centred = pos - pos.mean(axis=0)
    s = np.linalg.svd(centred, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def affine_map(
    fw: Framework, matrix: np.ndarray, offset: np.ndarray | None = None
) -> Framework:
    """Apply the affine map p -> A p + b to every joint.

    The combinatorics and pins are unchanged.  Raises SingularMap when A is
    singular to numerical tolerance (such a map collapses the framework and
    breaks the rank correspondence that makes affine images comparable).
    """
    A = np.asarray(matrix, dtype=float)
    if A.shape != (2, 2):
        raise DimensionMismatch(f"affine matrix must be 2x2, got {A.shape}")
    b = np.zeros(2) if offset is None else np.asarray(offset, dtype=float)
    if b.shape != (2,):
        raise DimensionMismatch(f"affine offset must have shape (2,), got {b.shape}")
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
        raise SingularMap(f"affine matrix is singular: singular values {s}")
    return Framework(fw.positions @ A.T + b, fw.edges, fw.pinned)


def check_planarity(
    fw: Framework, tol: float = GEOM_TOL
) -> list[tuple[str, Any, Any]]:
    """Find violations of the planar drawing model.

    Returns a list of:

    - ``("crossing", edge_index_a, edge_index_b)`` for a proper interior
      crossing of two bars that share no joint;
    - ``("vertex_on_edge", vertex, edge_index)`` for a joint lying in the
      interior of a bar it does not belong to.

    These are advisory: the counting theory only needs joint positions and
    incidences.  Tolerance is relative to the bounding-box diagonal.
    """
    violations: list[tuple[str, Any, Any]] = []
    p = fw.positions
    e = fw.num_edges
    if e == 0:
        return violations
    scale = bbox_diagonal(p)
    tol_abs = tol * (scale if scale > 0 else 1.0)

    a = np.array([fw.edges[i][0] for i in range(e)])
    b = np.array([fw.edges[i][1] for i in range(e)])
    pa, pb = p[a], p[b]
    d = pb - pa
    lengths = np.hypot(d[:, 0], d[:, 1])
    lengths = np.where(lengths == 0.0, 1.0, lengths)

    # Joint in the interior of a foreign bar: distance to the segment below
    # tol_abs with the projection parameter strictly inside (0, 1) and the
    # joint not within tolerance of either endpoint.
    for vi in range(fw.num_vertices):
        rel = p[vi] - pa
        t = (rel * d).sum(axis=1) / (lengths**2)
        foot = pa + t[:, None] * d
        dist = np.hypot(*(p[vi] - foot).T)
        de1 = np.hypot(*(p[vi] - pa).T)
        de2 = np.hypot(*(p[vi] - pb).T)
        hits = np.where(
            (dist <= tol_abs)
            & (t > 0.0)
            & (t < 1.0)
            & (de1 > tol_abs)
            & (de2 > tol_abs)
        )[0]
        for ei in hits:
            if vi not in fw.edges[ei]:
                violations.append(("vertex_on_edge", vi, int(ei)))

    # Proper crossings, in blocks to bound memory on large frameworks.
    idx_a, idx_b = np.triu_indices(e, k=1)
    share = (
        (a[idx_a] == a[idx_b])
        | (a[idx_a] == b[idx_b])
        | (b[idx_a] == a[idx_b])
        | (b[idx_a] == b[idx_b])
    )
    idx_a, idx_b = idx_a[~share], idx_b[~share]
    block = 200_000
    for start in range(0, idx_a.size, block):
        ia = idx_a[start : start + block]
        ib = idx_b[start : start + block]
        A1, B1 = pa[ia], pb[ia]
        A2, B2 = pa[ib], pb[ib]
        d1, d2 = B1 - A1, B2 - A2
        l1, l2 = lengths[ia], lengths[ib]

        def sdist(pt: np.ndarray, origin: np.ndarray, dvec: np.ndarray, ln: np.ndarray) -> np.ndarray:
            r = pt - origin
            return (dvec[:, 0] * r[:, 1] - dvec[:, 1] * r[:, 0]) / ln

        s1 = sdist(A1, A2, d2, l2)
        s2 = sdist(B1, A2, d2, l2)
        s3 = sdist(A2, A1, d1, l1)
        s4 = sdist(B2, A1, d1, l1)
        crossing = (
            (s1 * s2 < 0)
            & (s3 * s4 < 0)
            & (np.minimum(np.abs(s1), np.abs(s2)) > tol_abs)
            & (np.minimum(np.abs(s3), np.abs(s4)) > tol_abs)
        )
        for w in np.where(crossing)[0]:
            violations.append(("crossing", int(ia[w]), int(ib[w])))
    return violations


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------


def parse_framework_json(text: str) -> tuple[Framework, Any]:
    """Parse a framework JSON document.

    Returns ``(framework, group_field)`` where ``group_field`` is the raw
    "group" value (a dict, the string "auto", or None when absent).  Raises
    ValueError with a readable message on any malformed input.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise ValueError(f"missing required key {key!r}")
    vertices = doc["vertices"]
    edges = doc["edges"]
    if not isinstance(vertices, list) or not vertices:
        raise ValueError('"vertices" must be a non-empty list')
    if not isinstance(edges, list):
        raise ValueError('"edges" must be a list')

    n = len(vertices)
    positions = np.zeros((n, 2))
    pinned: set[int] = set()
    seen_ids: set[int] = set()
    for entry in vertices:
        if not isinstance(entry, dict):
            raise ValueError("each vertex must be an object")
        try:
            vid = entry["id"]
            x = entry["x"]
            y = entry["y"]
        except KeyError as exc:
            raise ValueError(f"vertex missing key {exc}") from None
        if not isinstance(vid, int) or isinstance(vid, bool):
            raise ValueError(f"vertex id must be an integer, got {vid!r}")
        if not 0 <= vid < n or vid in seen_ids:
            raise ValueError(f"vertex ids must be unique and cover 0..{n - 1}")
        seen_ids.add(vid)
        if not isinstance(x, (int, float)) or not isinstance(y, (int, float)):
            raise ValueError(f"vertex {vid} coordinates must be numbers")
        positions[vid] = (float(x), float(y))
        pin = entry.get("pinned", False)
        if not isinstance(pin, bool):
            raise ValueError(f'vertex {vid} "pinned" must be a boolean')
        if pin:
            pinned.add(vid)

    edge_list: list[tuple[int, int]] = []
    for item in edges:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(t, int) and not isinstance(t, bool) for t in item)
        ):
            raise ValueError(f"each edge must be a pair of vertex ids, got {item!r}")
        edge_list.append((item[0], item[1]))

    group = doc.get("group")
    if group is not None and not (isinstance(group, dict) or group == "auto"):
        raise ValueError('"group" must be an object or the string "auto"')
    try:
        fw = Framework(positions, tuple(edge_list), frozenset(pinned))
        require_distinct_joints(fw.positions)
    except (DimensionMismatch, ValueError) as exc:
        raise ValueError(str(exc)) from None
    return fw, group


def framework_to_json(fw: Framework, group: Any = None) -> str:
    """Serialise a framework to the canonical JSON document (byte-stable)."""
    vertices = []
    for i in range(fw.num_vertices):
        vertices.append(
            {
                "id": i,
                "x": float(fw.positions[i, 0]),
                "y": float(fw.positions[i, 1]),
                "pinned": i in fw.pinned,
            }
        )
    doc: dict[str, Any] = {
        "vertices": vertices,
        "edges": [[i, j] for i, j in fw.edges],
    }
    if group is not None:
        doc["group"] = group
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def load_framework(path: str) -> tuple[Framework, Any]:
    with open(path, encoding="utf-8") as fh:
        return parse_framework_json(fh.read())


def save_framework(path: str, fw: Framework, group: Any = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(framework_to_json(fw, group))
