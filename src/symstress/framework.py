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

import itertools
import json
import math
from dataclasses import dataclass, field
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
    ends      : the bars as a read-only int64 (e, 2) array, derived from
                ``edges`` once so array code never converts the tuple.
    x, y      : the joints' coordinates as read-only contiguous columns,
                so array code reads one coordinate without striding.
    pinned_mask : read-only boolean array over the joints, True at pinned
                ones.
    The derived arrays are built once, at construction.
    """

    positions: np.ndarray
    edges: tuple[tuple[int, int], ...]
    pinned: frozenset[int] = frozenset()
    ends: np.ndarray = field(init=False, compare=False)
    x: np.ndarray = field(init=False, compare=False)
    y: np.ndarray = field(init=False, compare=False)
    pinned_mask: np.ndarray = field(init=False, compare=False)

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
        for name, column in (("x", pos[:, 0]), ("y", pos[:, 1])):
            column = np.ascontiguousarray(column)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

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
        ends = np.fromiter(itertools.chain.from_iterable(edges), np.int64, 2 * len(edges))
        ends = ends.reshape(-1, 2)
        ends.setflags(write=False)
        object.__setattr__(self, "ends", ends)

        pins = frozenset(int(i) for i in self.pinned)
        for i in pins:
            if not 0 <= i < v:
                raise DimensionMismatch(f"pinned vertex {i} out of range for v={v}")
        object.__setattr__(self, "pinned", pins)
        mask = np.zeros(v, dtype=bool)
        mask[list(pins)] = True
        mask.setflags(write=False)
        object.__setattr__(self, "pinned_mask", mask)

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
    def velocity_blocks(self) -> np.ndarray:
        """Each joint's velocity-column block: internal joints numbered
        0..n-1 in ascending order, -1 at pinned joints."""
        moving = ~self.pinned_mask
        return np.where(moving, np.cumsum(moving) - 1, -1)

    @property
    def internal_vertices(self) -> tuple[int, ...]:
        """Indices of non-pinned joints, ascending."""
        return tuple(np.flatnonzero(~self.pinned_mask).tolist())

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
    rigid-body motions).  Pinned frameworks: k = 2·v_internal - e.  A single
    unpinned joint has only two rigid-body motions, so the count needs at
    least two joints there and raises ValueError otherwise.
    """
    v = int(np.count_nonzero(fw.velocity_blocks >= 0))
    return maxwell_count_of(v, fw.num_edges, fw.is_pinned)


def maxwell_count_of(v: int, e: int, pinned: bool) -> int:
    """``maxwell_count`` from the counts alone: v joints (internal joints
    when pinned) and e bars."""
    if not pinned and v < 2:
        raise ValueError(
            "an unpinned framework needs at least two joints for the Maxwell "
            f"count, got {v}"
        )
    return 2 * v - e - (0 if pinned else 3)


def rigidity_rows(
    fw: Framework, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The rigidity matrix in sparse form, with joint i's two velocity columns
    in block blocks[i] (-1: no columns): each bar's two endpoint blocks, its
    entries d = p_i - p_j (-d at the second joint), and the number of blocks."""
    ends = fw.ends
    d = fw.positions[ends[:, 0]] - fw.positions[ends[:, 1]]
    return blocks[ends], d, int(np.count_nonzero(blocks >= 0))


def _rigidity(fw: Framework, blocks: np.ndarray) -> np.ndarray:
    """The dense e x 2n form of ``rigidity_rows``."""
    ends, d, n = rigidity_rows(fw, blocks)
    R = np.zeros((fw.num_edges, n, 2))
    bars = np.arange(fw.num_edges)
    first, second = ends.T
    R[bars[first >= 0], first[first >= 0]] = d[first >= 0]
    R[bars[second >= 0], second[second >= 0]] = -d[second >= 0]
    return R.reshape(fw.num_edges, 2 * n)


def rigidity_matrix(fw: Framework) -> np.ndarray:
    """The e x 2v rigidity matrix, ignoring pins.

    Row for bar (i, j) carries p_i - p_j in the two columns of joint i and
    p_j - p_i in the columns of joint j; the row is invariant under swapping
    the stored endpoint order.  Kernel vectors are infinitesimal motions,
    left-kernel vectors are self-stresses.
    """
    return _rigidity(fw, np.arange(fw.num_vertices))


def rigidity_matrix_pinned(fw: Framework) -> np.ndarray:
    """The e x 2·v_internal rigidity matrix, pins honoured.

    All bars contribute rows, but only internal (non-pinned) joints have
    velocity columns; coefficients on pinned joints are dropped.  Column
    blocks follow ascending internal vertex index, so with no pins this is
    ``rigidity_matrix``.
    """
    return _rigidity(fw, fw.velocity_blocks)


def bbox_diagonal(positions: np.ndarray) -> float:
    """Diagonal length of the axis-aligned bounding box of the points."""
    pos = np.asarray(positions, dtype=float)
    if pos.size == 0:
        return 0.0
    x, y = pos[:, 0], pos[:, 1]
    return float(np.hypot(x.max() - x.min(), y.max() - y.min()))


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


# 16,384 pairs keep each block's temporaries on the heap already in use.
def _range_pairs(starts: np.ndarray, counts: np.ndarray, block: int = 16_384):
    """Yield ``(owner, member)`` index arrays pairing each owner k with the
    members ``starts[k] .. starts[k] + counts[k] - 1``, about ``block``
    pairs at a time (more only when one owner has more)."""
    ends = np.cumsum(counts)
    k = 0
    while k < counts.size:
        stop = max(int(np.searchsorted(ends, ends[k] - counts[k] + block, "right")), k + 1)
        c = counts[k:stop]
        owner = np.repeat(np.arange(k, stop), c)
        yield owner, np.arange(owner.size) + np.repeat(starts[k:stop] - np.cumsum(c) + c, c)
        k = stop


def _strip_candidates(lo, hi, points):
    """Candidate pairs for boxes ``lo[k] .. hi[k]`` (closed) and ``points``,
    each given as its pair of x and y columns, as two generators of
    index-array pairs: (box, point) pairs and (box, box) pairs, about
    16 384 at a time (``_range_pairs``).  Every pair that overlaps in x and
    y comes out exactly once, and every pair that comes out overlaps in x.

    The y-range is cut into ns strips.  A box is entered in each strip its
    y-range touches and starts in the strip of its lowest y; a point lies
    in one strip.  Entries and points are sorted by strip, then by x.  In
    each strip a starter meets the later entries, and any other entry the
    later starters, whose lowest x is at most its highest x; a box meets
    the points of each of its strips with x in its x-range.  Of two boxes
    that overlap in y, the strip where the higher-starting one starts is
    touched by the other, since strips grow with y, and a pair meets in no
    other strip.  ns = 1 is a plain x-sweep."""
    (lox, loy), (hix, hiy), (px, py) = lo, hi, points
    e = len(lox)
    y0 = float(loy.min())
    span = float(hiy.max()) - y0
    total = float((hiy - loy).sum())
    ratio = e * span / total if total > 0 else 0.0
    ns = min(math.isqrt(e) + 1, max(1, int(ratio))) if math.isfinite(ratio) else 1

    def strip(y: np.ndarray) -> np.ndarray:
        if ns == 1:
            return np.zeros(len(y), dtype=np.intp)
        return np.clip(np.floor((y - y0) / (span / ns)), 0, ns - 1).astype(np.intp)

    # Each box's rank in x, the rank past the last box starting at or
    # before its highest x, and its first strip and strip count.
    order = np.argsort(lox, kind="stable")
    reach = np.searchsorted(lox[order], hix[order], "right")
    first = strip(loy[order])
    count = strip(hiy[order]) - first + 1
    # One entry per (strip, box), keyed strip * e + rank: distinct integers.
    rank = np.repeat(np.arange(e), count)
    s = first[rank] + np.arange(rank.size) - np.repeat(np.cumsum(count) - count, count)
    key = np.sort(s * e + rank)
    s, rank = np.divmod(key, e)
    starter = s == first[rank]
    starts, bars = key[starter], order[rank]
    # Members: entries k + 1 .. of a starter k, or starters (indices past n)
    # of any other entry, up to the first key beyond the entry's x-range.
    # Each search runs only over the entries that keep its result.
    n, stop, other = key.size, s * e + reach[rank], ~starter
    begin, end = np.arange(1, n + 1), np.empty(n, dtype=np.intp)
    end[starter] = np.searchsorted(key, stop[starter], "left")
    begin[other] = n + np.searchsorted(starts, key[other], "right")
    end[other] = n + np.searchsorted(starts, stop[other], "left")
    members = np.concatenate([bars, bars[starter]])

    # Points keyed strip * v + rank in x, searched over each entry's x-range.
    v = len(px)
    porder = np.argsort(px, kind="stable")
    sx = px[porder]
    pkey = np.sort(strip(py[porder]) * v + np.arange(v))
    left = np.searchsorted(pkey, s * v + np.searchsorted(sx, lox[bars], "left"), "left")
    right = np.searchsorted(pkey, s * v + np.searchsorted(sx, hix[bars], "right"), "left")

    joint_bar = ((bars[k], porder[pkey[m] % v]) for k, m in _range_pairs(left, right - left))
    bar_bar = ((bars[k], members[m]) for k, m in _range_pairs(begin, end - begin))
    return joint_bar, bar_bar


def check_planarity(
    fw: Framework, tol: float = GEOM_TOL
) -> list[tuple[str, Any, Any]]:
    """Find violations of the planar drawing model.

    Returns a list of:

    - ``("crossing", edge_index_a, edge_index_b)`` for a proper interior
      crossing of two bars that share no joint;
    - ``("vertex_on_edge", vertex, edge_index)`` for a joint lying in the
      interior of a bar it does not belong to.

    Joint-on-bar hits come first, by (vertex, edge), then crossings, by
    (edge_a, edge_b) with edge_a < edge_b.  These are advisory: the counting
    theory only needs joint positions and incidences.  Tolerance is relative
    to the bounding-box diagonal.

    The predicates run only on pairs whose boxes overlap.  A bar's box is
    its bounding box widened by the absolute tolerance and a rounding
    allowance.  Candidates come from a sweep on x run inside horizontal
    strips, then a filter on y (``_strip_candidates``): each bar is entered
    in every strip its box touches and starts in the strip of its lowest
    y, each joint lies in one strip, and two bars are paired only in the
    strip where the later of them starts.  The strip count is about the
    y-span over the mean box height, at most sqrt(e) + 1, so a bar has
    about two entries at most; with one strip this is a plain x-sweep.
    The cost is O((v + e) log(v + e) + entries + c) for c candidate pairs,
    and c never exceeds the x-sweep's count, itself at most the v·e +
    e(e - 1)/2 pairs of an all-pairs scan.  At tol below rounding level
    (tol = 0) that scan also reports rounding-noise crossings of collinear
    bars with disjoint boxes; these are not candidates here.

    Boxes and predicates read the framework's x and y columns, one 1-D
    array per coordinate; each predicate is the scan's float formula,
    term by term.
    """
    e = fw.num_edges
    if e == 0:
        return []
    scale = bbox_diagonal(fw.positions)
    tol_abs = tol * (scale if scale > 0 else 1.0)

    x, y = fw.x, fw.y
    a, b = fw.ends.T
    ax, ay, bx, by = x[a], y[a], x[b], y[b]
    dx, dy = bx - ax, by - ay
    lengths = np.hypot(dx, dy)
    lengths = np.where(lengths == 0.0, 1.0, lengths)
    # A few roundings beyond tol_abs: a computed foot point can lie past a
    # bar's end, and a joint's offset from it can round down to tol_abs.
    pad = tol_abs + 4 * np.finfo(float).eps * (tol_abs + np.abs(fw.positions).max())
    lox, hix = np.minimum(ax, bx) - pad, np.maximum(ax, bx) + pad
    loy, hiy = np.minimum(ay, by) - pad, np.maximum(ay, by) + pad
    hits: dict[str, list[np.ndarray]] = {"vertex_on_edge": [], "crossing": []}
    joint_bar, bar_bar = _strip_candidates((lox, loy), (hix, hiy), (x, y))

    # Joint in the interior of a foreign bar: distance to the segment below
    # tol_abs with the projection parameter strictly inside (0, 1) and the
    # joint not within tolerance of either endpoint.
    for ei, vi in joint_bar:
        keep = (loy[ei] <= y[vi]) & (y[vi] <= hiy[ei]) & (vi != a[ei]) & (vi != b[ei])
        vi, ei = vi[keep], ei[keep]
        px, py, qx, qy, ex, ey = x[vi], y[vi], ax[ei], ay[ei], dx[ei], dy[ei]
        rx, ry = px - qx, py - qy
        t = (rx * ex + ry * ey) / (lengths[ei] ** 2)
        dist = np.hypot(px - (qx + t * ex), py - (qy + t * ey))
        de1, de2 = np.hypot(rx, ry), np.hypot(px - bx[ei], py - by[ei])
        hit = (dist <= tol_abs) & (t > 0.0) & (t < 1.0) & (de1 > tol_abs) & (de2 > tol_abs)
        hits["vertex_on_edge"].append(np.stack([vi[hit], ei[hit]]))

    # Proper crossings of bars that share no joint.  Points and vectors are
    # pairs of columns.
    def sdist(pt, origin, dvec, ln):
        return (dvec[0] * (pt[1] - origin[1]) - dvec[1] * (pt[0] - origin[0])) / ln

    for one, other in bar_bar:
        ia, ib = np.minimum(one, other), np.maximum(one, other)
        keep = (loy[ia] <= hiy[ib]) & (loy[ib] <= hiy[ia])
        keep &= (a[ia] != a[ib]) & (a[ia] != b[ib]) & (b[ia] != a[ib]) & (b[ia] != b[ib])
        ia, ib = ia[keep], ib[keep]
        A1, B1, A2, B2 = (ax[ia], ay[ia]), (bx[ia], by[ia]), (ax[ib], ay[ib]), (bx[ib], by[ib])
        d1, d2, l1, l2 = (dx[ia], dy[ia]), (dx[ib], dy[ib]), lengths[ia], lengths[ib]
        s1, s2 = sdist(A1, A2, d2, l2), sdist(B1, A2, d2, l2)
        s3, s4 = sdist(A2, A1, d1, l1), sdist(B2, A1, d1, l1)
        crossing = (
            (s1 * s2 < 0)
            & (s3 * s4 < 0)
            & (np.minimum(np.abs(s1), np.abs(s2)) > tol_abs)
            & (np.minimum(np.abs(s3), np.abs(s4)) > tol_abs)
        )
        hits["crossing"].append(np.stack([ia[crossing], ib[crossing]]))

    violations: list[tuple[str, Any, Any]] = []
    for kind, found in hits.items():
        u, w = np.concatenate(found, axis=1)
        violations += [(kind, int(u[k]), int(w[k])) for k in np.lexsort((w, u))]
    return violations


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------


def _is_number(value: Any) -> bool:
    """Whether a parsed JSON value is a finite number: not a boolean, NaN,
    an infinity or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
        if not (_is_number(x) and _is_number(y)):
            raise ValueError(f"vertex {vid} coordinates must be finite numbers")
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
