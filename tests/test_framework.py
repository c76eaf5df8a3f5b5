"""Framework construction, counting, rigidity matrices, and JSON I/O."""

import json
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symstress import (
    DimensionMismatch,
    Framework,
    SingularMap,
    affine_map,
    affine_span_dim,
    bbox_diagonal,
    catalog,
    check_planarity,
    framework_to_json,
    load_framework,
    maxwell_count,
    parse_framework_json,
    rigidity_matrix,
    rigidity_matrix_pinned,
    save_framework,
)
import symstress.framework as framework
from symstress.framework import GEOM_TOL, _range_pairs, _strip_candidates
from test_numeric import _crowded_square, _ring_cnv

TRIANGLE = Framework([(0.0, 0.0), (2.0, 0.0), (1.0, 1.5)], [(0, 1), (1, 2), (2, 0)])
SQUARE = Framework(
    [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
)


class TestConstruction:
    def test_positions_are_read_only(self):
        with pytest.raises(ValueError):
            TRIANGLE.positions[0, 0] = 99.0

    def test_positions_copied_from_input(self):
        src = np.zeros((3, 2))
        fw = Framework(src, [(0, 1)])
        src[0, 0] = 7.0
        assert fw.positions[0, 0] == 0.0

    def test_bad_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            Framework([(0.0, 0.0, 0.0)], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Framework([(0.0, float("nan"))], [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Framework([(0.0, 0.0), (1.0, 0.0)], [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Framework([(0.0, 0.0), (1.0, 0.0)], [(0, 1), (1, 0)])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(DimensionMismatch):
            Framework([(0.0, 0.0), (1.0, 0.0)], [(0, 2)])

    def test_pinned_out_of_range_rejected(self):
        with pytest.raises(DimensionMismatch):
            Framework([(0.0, 0.0)], [], pinned=[3])

    def test_ends_are_the_edges_as_an_array(self):
        fw = catalog._pinned_quad_grid(6, 5)
        assert fw.ends.dtype == np.int64
        assert np.array_equal(fw.ends, np.array(fw.edges, dtype=np.int64))
        assert fw.ends.shape == (fw.num_edges, 2)

    def test_ends_are_read_only(self):
        with pytest.raises(ValueError):
            TRIANGLE.ends[0, 0] = 2

    def test_columns_and_pinned_mask_are_read_only(self):
        fw = Framework(TRIANGLE.positions, TRIANGLE.edges, pinned=[1])
        for array in (fw.x, fw.y, fw.pinned_mask):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_columns_and_pinned_mask_hold_the_joints(self):
        fw = catalog._pinned_quad_grid(6, 5)
        for column, k in ((fw.x, 0), (fw.y, 1)):
            assert column.flags.c_contiguous and column.dtype == np.float64
            assert np.array_equal(column, fw.positions[:, k])
        assert fw.pinned_mask.dtype == bool
        assert np.flatnonzero(fw.pinned_mask).tolist() == sorted(fw.pinned)
        assert fw.pinned_mask is fw.pinned_mask  # built once, not per access

    def test_ends_without_bars(self):
        fw = Framework([(0.0, 0.0), (1.0, 0.0)], [])
        assert fw.ends.shape == (0, 2)
        assert fw.ends.dtype == np.int64

    def test_internal_vertices_ascending(self):
        fw = Framework(np.zeros((4, 2)) + np.arange(4)[:, None], [], pinned=[2, 0])
        assert fw.internal_vertices == (1, 3)
        assert fw.is_pinned


class TestCounting:
    def test_unpinned_freedom_number(self):
        assert maxwell_count(TRIANGLE) == 2 * 3 - 3 - 3
        assert maxwell_count(SQUARE) == 2 * 4 - 4 - 3

    def test_pinned_freedom_number(self):
        fw = Framework(
            [(0.0, 0.0), (-1.0, -1.0), (1.0, -1.0)],
            [(0, 1), (0, 2)],
            pinned=[1, 2],
        )
        assert maxwell_count(fw) == 2 * 1 - 2

    def test_single_joint(self):
        with pytest.raises(ValueError, match="at least two joints"):
            maxwell_count(Framework([(0.5, 1.0)], []))
        assert maxwell_count(Framework([(0.5, 1.0)], [], pinned=[0])) == 0


GEOMETRIC = [n for n in catalog.names() if catalog.generate(n).framework is not None]


def _per_bar_reference(fw, pinned):
    """The rigidity matrix written bar by bar; pinned joints get no columns
    when ``pinned``."""
    joints = fw.internal_vertices if pinned else range(fw.num_vertices)
    col_of = {vi: c for c, vi in enumerate(joints)}
    R = np.zeros((fw.num_edges, 2 * len(col_of)))
    for row, (i, j) in enumerate(fw.edges):
        d = fw.positions[i] - fw.positions[j]
        if i in col_of:
            R[row, 2 * col_of[i] : 2 * col_of[i] + 2] = d
        if j in col_of:
            R[row, 2 * col_of[j] : 2 * col_of[j] + 2] = -d
    return R


class TestRigidityMatrix:
    def test_shape_and_entries(self):
        R = rigidity_matrix(TRIANGLE)
        assert R.shape == (3, 6)
        p = TRIANGLE.positions
        # Row for edge (i, j) carries p_i - p_j in i's columns and the
        # negation in j's columns.
        i, j = TRIANGLE.edges[0]
        np.testing.assert_allclose(R[0, 2 * i : 2 * i + 2], p[i] - p[j])
        np.testing.assert_allclose(R[0, 2 * j : 2 * j + 2], p[j] - p[i])

    def test_triangle_kernel_is_rigid_motions_only(self):
        R = rigidity_matrix(TRIANGLE)
        assert np.linalg.matrix_rank(R) == 3  # kernel dim 6 - 3 = 3 trivials

    def test_pinned_matrix_drops_pinned_columns(self):
        fw = Framework(
            [(0.0, 1.0), (-1.0, 0.0), (1.0, 0.0)],
            [(0, 1), (0, 2)],
            pinned=[1, 2],
        )
        R = rigidity_matrix_pinned(fw)
        assert R.shape == (2, 2)  # two bars, one internal joint
        assert np.linalg.matrix_rank(R) == 2  # pinned triangle is rigid

    @pytest.mark.parametrize("name", GEOMETRIC + ["grid"])
    def test_bit_equal_to_per_bar_reference(self, name):
        if name == "grid":
            fw = catalog._pinned_quad_grid(6, 5)
        else:
            fw = catalog.generate(name).framework
        for build, pinned in ((rigidity_matrix, False), (rigidity_matrix_pinned, True)):
            R = build(fw)
            assert R.flags.c_contiguous
            ref = _per_bar_reference(fw, pinned)
            assert R.shape == ref.shape
            assert R.tobytes() == ref.tobytes()

    def test_pinned_matrix_without_pins_matches_full_matrix(self):
        np.testing.assert_array_equal(
            rigidity_matrix_pinned(TRIANGLE), rigidity_matrix(TRIANGLE)
        )


class TestGeometryHelpers:
    def test_bbox_diagonal(self):
        assert bbox_diagonal(np.array([[0.0, 0.0], [3.0, 4.0]])) == pytest.approx(5.0)
        assert bbox_diagonal(np.empty((0, 2))) == 0.0

    def test_affine_span_dim(self):
        assert affine_span_dim(np.array([[1.0, 2.0]])) == 0
        assert affine_span_dim(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])) == 1
        assert affine_span_dim(TRIANGLE.positions) == 2

    def test_affine_map_transforms_positions(self):
        fw = affine_map(TRIANGLE, np.array([[2.0, 0.0], [0.0, 1.0]]), offset=(1.0, 0.0))
        np.testing.assert_allclose(fw.positions[:, 0], TRIANGLE.positions[:, 0] * 2 + 1)
        np.testing.assert_allclose(fw.positions[:, 1], TRIANGLE.positions[:, 1])
        assert fw.edges == TRIANGLE.edges

    def test_affine_map_rejects_singular(self):
        with pytest.raises(SingularMap):
            affine_map(TRIANGLE, np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_check_planarity_crossing(self):
        crossed = Framework(
            [(-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)],
            [(0, 1), (2, 3)],
        )
        kinds = [kind for kind, *_ in check_planarity(crossed)]
        assert kinds == ["crossing"]

    def test_check_planarity_vertex_on_edge(self):
        fw = Framework(
            [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
            [(0, 1), (2, 3)],
        )
        kinds = [kind for kind, *_ in check_planarity(fw)]
        assert "vertex_on_edge" in kinds

    def test_check_planarity_clean(self):
        assert check_planarity(TRIANGLE) == []


def _all_pairs_planarity(fw, tol=GEOM_TOL):
    """Reference for check_planarity: every joint against every bar, then
    every pair of bars that share no joint, with the same predicates."""
    violations = []
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

        def sdist(pt, origin, dvec, ln):
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


def _random_framework(rng):
    """3 to 44 joints, scaled by 1e-3..100 and offset by up to 1e3: free
    or lattice-snapped coordinates (exact touches and collinear runs), plus
    joints placed at fractions of random bars."""
    v = int(rng.integers(3, 40))
    pos = rng.uniform(-1, 1, (v, 2))
    if rng.integers(3):
        h = rng.choice([0.25, 0.1, 1 / 3, 0.125])
        pos = np.round(pos / h) * h
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    m = int(rng.integers(1, min(len(pairs), 3 * v) + 1))
    edges = [pairs[k] for k in rng.choice(len(pairs), m, replace=False)]
    for _ in range(int(rng.integers(0, 6))):
        i, j = edges[int(rng.integers(m))]
        t = rng.choice([0.25, 0.5, 0.75, rng.uniform()])
        pos = np.vstack([pos, pos[i] + t * (pos[j] - pos[i])])
    offset = rng.uniform(-1e3, 1e3, 2) * rng.integers(2)
    return Framework(pos * 10 ** rng.uniform(-3, 2) + offset, edges)


def _complete_on_circle(n):
    ang = 2 * np.pi * np.arange(n) / n
    pos = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return Framework(pos, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _mixed_scale(n_short, n_long, seed):
    """Bars of length 1e-4 scattered over the unit square, plus long bars
    from the bottom edge to the top edge."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, (n_short, 2))
    ang = rng.uniform(0, 2 * np.pi, n_short)
    b = a + 1e-4 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    bottom = np.stack([rng.uniform(0, 1, n_long), np.zeros(n_long)], axis=1)
    top = np.stack([rng.uniform(0, 1, n_long), np.ones(n_long)], axis=1)
    s, n = n_short, n_long
    edges = [(i, s + i) for i in range(s)] + [(2 * s + i, 2 * s + n + i) for i in range(n)]
    return Framework(np.vstack([a, b, bottom, top]), edges)


def _near_bar_joints(angle, offset, tol):
    """A bar of length 2 at ``angle`` plus corner joints that fix the
    bounding box, with joints at tol_abs·(1 ± 1e-12) from the bar on both
    sides, along it and beyond its ends."""
    u = np.array([np.cos(angle), np.sin(angle)])
    nrm = np.array([-u[1], u[0]])
    A, B = offset - u, offset + u
    corners = offset + np.array([[-3.0, -3.0], [3.0, 3.0]])
    tol_abs = tol * bbox_diagonal(np.vstack([corners, A, B]))
    pts = []
    for rel in (1 - 1e-12, 1 + 1e-12):
        for side in (-1, 1):
            pts += [A + t * (B - A) + side * rel * tol_abs * nrm for t in (1e-6, 0.3, 0.5, 1 - 1e-6)]
            pts += [end + side * rel * tol_abs * u for end in (A, B)]
    return Framework(np.vstack([corners, A, B, pts]), [(2, 3)])


# Joints, then bars, of a framework whose two bars lie on one line with
# disjoint boxes.  At tol=0 the all-pairs scan reports them as crossing.
_COLLINEAR_PAIR = [
    (0.0005153835021506218, 0.00023083916836239932),
    (0.005670052282745006, 0.002539604290898821),
    (0.010277962030728963, 0.004603477212082754),
    (0.014091463010439958, 0.00631153614495952),
]


class TestPlanarityAgainstAllPairs:
    """check_planarity must return the all-pairs scan's list, order included."""

    @pytest.mark.parametrize("name", GEOMETRIC)
    def test_catalog(self, name):
        fw = catalog.generate(name).framework
        for tol in (GEOM_TOL, 1e-3, 0.0):
            assert check_planarity(fw, tol) == _all_pairs_planarity(fw, tol)

    @pytest.mark.parametrize("tol", [GEOM_TOL, 1e-3, 0.0])
    def test_random_frameworks(self, tol):
        rng = np.random.default_rng(20261018)
        kinds = Counter()
        for _ in range(100):
            fw = _random_framework(rng)
            found = check_planarity(fw, tol)
            assert found == _all_pairs_planarity(fw, tol)
            kinds.update(kind for kind, *_ in found)
        assert kinds["crossing"] > 1000 and kinds["vertex_on_edge"] > 100

    @pytest.mark.parametrize("angle", [0.0, np.pi / 2, np.pi, 0.61, 2.3])
    @pytest.mark.parametrize("offset", [(0.0, 0.0), (1e3, -7e2)])
    @pytest.mark.parametrize("tol", [GEOM_TOL, 1e-3])
    def test_joints_at_the_tolerance(self, angle, offset, tol):
        fw = _near_bar_joints(angle, np.array(offset), tol)
        found = check_planarity(fw, tol)
        assert found == _all_pairs_planarity(fw, tol)
        assert found  # the joints just inside the tolerance are hits

    def test_exact_distance_decides_on_an_axis_bar(self):
        # On the x axis the perpendicular offsets are exact: the joints at
        # tol_abs·(1 - 1e-12) beside the bar hit, those at 1 + 1e-12 do not.
        fw = _near_bar_joints(0.0, np.zeros(2), GEOM_TOL)
        hit = {v for _, v, _ in check_planarity(fw)}
        assert {4, 5, 6, 7, 10, 11, 12, 13} <= hit
        assert hit.isdisjoint({16, 17, 18, 19, 22, 23, 24, 25})

    @pytest.mark.parametrize("frac", [0.7, 0.9, 0.999])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_joint_just_outside_the_tolerance_box(self, frac, transpose):
        # A bar at x = -frac·tol_abs and a joint one ulp beyond
        # fl(x + tol_abs): the joint's offset from the bar rounds to
        # tol_abs, so it is a hit outside the box widened by tol_abs alone.
        corners = [(-1.0, -1.0), (1.0, 1.0)]
        tol_abs = GEOM_TOL * bbox_diagonal(np.array(corners))
        x = -frac * tol_abs
        pts = corners + [(x, -0.01), (x, 0.01), (np.nextafter(x + tol_abs, 1.0), 0.0)]
        if transpose:
            pts = [(q, p) for p, q in pts]
        fw = Framework(pts, [(2, 3)])
        assert check_planarity(fw) == _all_pairs_planarity(fw) == [("vertex_on_edge", 4, 0)]

    def test_t_junctions(self):
        fw = Framework(
            [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, -1.0), (0.5, 0.0)],
            [(0, 1), (2, 3), (4, 5)],
        )
        found = check_planarity(fw)
        assert found == [("vertex_on_edge", 2, 0), ("vertex_on_edge", 5, 0)]
        assert found == _all_pairs_planarity(fw)

    def test_endpoint_one_ulp_off_a_bar(self):
        for y in (np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)):
            fw = Framework(
                [(0.0, 1.0), (2.0, 1.0), (1.0, y), (1.0, 3.0)], [(0, 1), (2, 3)]
            )
            for tol in (GEOM_TOL, 0.0):
                assert check_planarity(fw, tol) == _all_pairs_planarity(fw, tol)
            assert check_planarity(fw) == [("vertex_on_edge", 2, 0)]

    def test_complete_graph_on_a_circle(self):
        fw = _complete_on_circle(24)
        found = check_planarity(fw)
        assert found == _all_pairs_planarity(fw)
        assert len(found) == 10626  # C(24, 4): one crossing per 4 joints

    def test_mixed_scale(self):
        fw = _mixed_scale(300, 60, seed=3)
        found = check_planarity(fw)
        assert found == _all_pairs_planarity(fw)
        assert len(found) > 100

    def test_zero_length_bar_between_coincident_joints(self):
        fw = Framework(
            [(0.0, 0.0), (0.0, 0.0), (-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)],
            [(0, 1), (2, 3), (4, 5), (0, 4)],
        )
        for tol in (GEOM_TOL, 0.0):
            assert check_planarity(fw, tol) == _all_pairs_planarity(fw, tol)
        assert ("vertex_on_edge", 0, 1) in check_planarity(fw)

    def test_all_joints_collinear(self):
        rng = np.random.default_rng(7)
        t = np.sort(rng.uniform(0, 1, 30))
        pos = np.stack([t * np.cos(0.41), t * np.sin(0.41)], axis=1) * 3 + 50
        edges = [(i, i + 1) for i in range(0, 29, 2)] + [(i, i + 3) for i in range(0, 27, 4)]
        fw = Framework(pos, edges)
        for tol in (GEOM_TOL, 1e-3):
            assert check_planarity(fw, tol) == _all_pairs_planarity(fw, tol)

    @pytest.mark.parametrize("block", [1, 3, 7, 200_000])
    def test_candidate_blocks(self, block):
        rng = np.random.default_rng(block)
        counts = rng.integers(0, 6, 40)
        counts[[3, 17]] = 0, 11  # an empty range, and one longer than a block
        starts = rng.integers(0, 100, 40)
        chunks = list(_range_pairs(starts, counts, block))
        owner = np.concatenate([o for o, _ in chunks])
        member = np.concatenate([m for _, m in chunks])
        np.testing.assert_array_equal(owner, np.repeat(np.arange(40), counts))
        want = [s + k for s, c in zip(starts, counts) for k in range(c)]
        np.testing.assert_array_equal(member, want)
        assert all(o.size <= max(block, 11) for o, _ in chunks)

    def test_memory_peak(self):
        # Measured with tracemalloc, which sees numpy's buffers: blocks of
        # 200k candidate pairs peaked at 2.8 MB on this grid, 16k at 1.0 MB.
        fw = catalog._pinned_quad_grid(24, 23)
        check_planarity(fw)
        tracemalloc.start()
        try:
            check_planarity(fw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_rounding_noise_crossings_at_zero_tolerance(self):
        # At tol=0 the all-pairs scan takes rounding noise for a crossing of
        # two collinear bars whose boxes are disjoint; the sweep never pairs
        # them.  Any positive tolerance above rounding level agrees.
        fw = Framework(_COLLINEAR_PAIR, [(0, 1), (2, 3)])
        assert _all_pairs_planarity(fw, 0.0) == [("crossing", 0, 1)]
        assert check_planarity(fw, 0.0) == []
        assert check_planarity(fw) == _all_pairs_planarity(fw) == []


# ---------------------------------------------------------------------------
# Candidates from the strip sweep: every pair of overlapping boxes once, and
# no more candidates than the plain x-sweep forms.
# ---------------------------------------------------------------------------


def _lattice_framework(rng, size=6):
    """Joints on the integer lattice 0..size, some at half steps, and random
    bars among them, so that joints and box edges fall on strip boundaries
    and boxes touch exactly."""
    pos = np.unique(rng.integers(0, 2 * size + 1, (int(rng.integers(4, 40)), 2)) / 2.0, axis=0)
    pairs = [(i, j) for i in range(len(pos)) for j in range(i + 1, len(pos))]
    m = int(rng.integers(1, min(len(pairs), 2 * len(pos)) + 1))
    return Framework(pos, [pairs[k] for k in rng.choice(len(pairs), m, replace=False)])


def _horizontal_bars(rng):
    """Bars on five horizontal lines, with joints of other bars inside
    them: every box is one line high."""
    x = rng.uniform(0, 10, (5, 12))
    pos = np.stack([x.ravel(), np.repeat(np.arange(5.0), 12)], axis=1)
    edges = [(12 * r + i, 12 * r + j) for r in range(5) for i, j in rng.integers(0, 12, (8, 2)) if i != j]
    return Framework(pos, sorted({(min(i, j), max(i, j)) for i, j in edges}))


def _full_height_bars(n=60):
    """n vertical bars from y = 0 to y = 1, crossed by one horizontal bar,
    and a joint on every fifth bar."""
    x = np.arange(n, dtype=float)
    pos = np.vstack([np.stack([x, np.zeros(n)], 1), np.stack([x, np.ones(n)], 1), [(-1, 0.5), (n, 0.5)]])
    pos = np.vstack([pos, np.stack([x[::5], np.full(len(x[::5]), 0.25)], 1)])
    return Framework(pos, [(i, n + i) for i in range(n)] + [(2 * n, 2 * n + 1)])


def _hub(spokes=64):
    """A joint at the centre with a spoke to each rim joint, the rim, and
    chords that cross the spokes."""
    ang = 2 * np.pi * np.arange(spokes) / spokes
    pos = np.vstack([[(0.0, 0.0)], np.stack([np.cos(ang), np.sin(ang)], 1)])
    edges = [(0, 1 + i) for i in range(spokes)] + [(1 + i, 1 + (i + 1) % spokes) for i in range(spokes)]
    edges += [(1 + i, 1 + (i + spokes // 4) % spokes) for i in range(0, spokes, 3)]
    return Framework(pos, edges)


STRIP_CASES = {
    "single-bar": lambda: Framework([(0.0, 0.0), (2.0, 1.0), (1.0, 0.5), (3.0, 0.0)], [(0, 1)]),
    "horizontal": lambda: _horizontal_bars(np.random.default_rng(3)),
    "full-height": _full_height_bars,
    "hub": _hub,
    "zero-span": lambda: Framework([(0.0, 0.0)] * 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "grid-24x23": lambda: catalog._pinned_quad_grid(24, 23),
}


def _x_sweep_count(lo, hi, points):
    """Candidates of the plain x-sweep: each box with the points in its
    x-range, and each box with the boxes after it in x whose lowest x is at
    most its highest.  Arguments as ``_strip_candidates`` takes them, pairs
    of x and y columns."""
    (lox, _), (hix, _), (px, _) = lo, hi, points
    px = np.sort(px)
    joints = np.searchsorted(px, hix, "right") - np.searchsorted(px, lox, "left")
    order = np.argsort(lox, kind="stable")
    reach = np.searchsorted(lox[order], hix[order], "right")
    return int(joints.sum() + (reach - np.arange(1, len(lox) + 1)).sum())


def _candidate_counts(fw, tol=GEOM_TOL):
    """(pairs ``_range_pairs`` yields inside check_planarity, the x-sweep's
    count on the same boxes)."""
    yielded = []

    def counted(starts, counts, *args):
        yielded.append(int(np.sum(counts)))
        return _range_pairs(starts, counts, *args)

    with mock.patch.object(framework, "_range_pairs", counted), mock.patch.object(
        framework, "_strip_candidates", wraps=_strip_candidates
    ) as strips:
        check_planarity(fw, tol)
    return sum(yielded), _x_sweep_count(*strips.call_args.args)


def _brute_force_candidates(lo, hi, points):
    """Every (box, point) pair with the point in the box, and every pair of
    boxes i < j that overlap, closed on every side."""
    inside = (lo[:, None, :] <= points[None]) & (points[None] <= hi[:, None, :])
    overlap = np.triu((lo[:, None, :] <= hi[None]).all(axis=2) & (lo[None] <= hi[:, None, :]).all(axis=2), 1)
    return set(zip(*np.nonzero(inside.all(axis=2)))), set(zip(*np.nonzero(overlap)))


def _assert_strip_candidates(lo, hi, points):
    """``_strip_candidates`` yields each overlapping pair once, only pairs
    that overlap in x, and never a box with itself."""
    joint_bar, bar_bar = _strip_candidates(lo.T, hi.T, points.T)
    jb = [(int(k), int(m)) for ks, ms in joint_bar for k, m in zip(ks, ms)]
    bb = [(int(min(k, m)), int(max(k, m))) for ks, ms in bar_bar for k, m in zip(ks, ms)]
    assert len(set(jb)) == len(jb) and len(set(bb)) == len(bb)
    assert all(lo[k, 0] <= points[m, 0] <= hi[k, 0] for k, m in jb)
    assert all(k != m and lo[k, 0] <= hi[m, 0] and lo[m, 0] <= hi[k, 0] for k, m in bb)
    want_jb, want_bb = _brute_force_candidates(lo, hi, points)
    assert {(k, m) for k, m in jb if lo[k, 1] <= points[m, 1] <= hi[k, 1]} == want_jb
    assert {(k, m) for k, m in bb if lo[k, 1] <= hi[m, 1] and lo[m, 1] <= hi[k, 1]} == want_bb
    return jb, bb


class TestStrips:
    @pytest.mark.parametrize("seed", range(30))
    def test_lattice_frameworks(self, seed):
        fw = _lattice_framework(np.random.default_rng(seed))
        for tol in (GEOM_TOL, 1e-3, 0.0):
            assert check_planarity(fw, tol) == _all_pairs_planarity(fw, tol)

    @pytest.mark.parametrize("name", list(STRIP_CASES))
    def test_cases_against_all_pairs(self, name):
        fw = STRIP_CASES[name]()
        for tol in (GEOM_TOL, 1e-3, 0.0):
            assert check_planarity(fw, tol) == _all_pairs_planarity(fw, tol)

    @pytest.mark.parametrize("seed", range(40))
    def test_lattice_boxes(self, seed):
        # Integer boxes and points: strip boundaries fall on box edges and
        # points, and boxes touch exactly on both axes.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        corner = rng.integers(0, 12, (n, 2)).astype(float)
        size = rng.integers(0, 4, (n, 2)) * (rng.random((n, 2)) < 0.8) + rng.integers(0, 13, (n, 2)) * (rng.random((n, 2)) < 0.1)
        points = rng.integers(-1, 14, (int(rng.integers(1, 50)), 2)).astype(float)
        _assert_strip_candidates(corner, corner + size, points)

    def test_touching_boxes(self):
        # Two boxes that meet only in one corner, and a point at it.
        lo = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 0.0], [0.0, 5.0]])
        hi = np.array([[1.0, 1.0], [2.0, 2.0], [6.0, 6.0], [6.0, 6.0]])
        jb, bb = _assert_strip_candidates(lo, hi, np.array([[1.0, 1.0]]))
        assert {(0, 1), (2, 3)} <= set(bb) and {(0, 0), (1, 0)} <= set(jb)

    @pytest.mark.parametrize("name", list(STRIP_CASES))
    def test_no_more_candidates_than_the_x_sweep(self, name):
        fw = STRIP_CASES[name]()
        for tol in (GEOM_TOL, 1e-3, 0.0):
            strips, sweep = _candidate_counts(fw, tol)
            assert strips <= sweep
            if name in ("full-height", "zero-span"):
                assert strips == sweep  # one strip

    @pytest.mark.parametrize("seed", range(10))
    def test_random_frameworks_take_no_more_candidates(self, seed):
        fw = _random_framework(np.random.default_rng(seed))
        strips, sweep = _candidate_counts(fw)
        assert strips <= sweep

    def test_pinned_grid_takes_a_tenth_of_the_candidates(self):
        strips, sweep = _candidate_counts(catalog._pinned_quad_grid(34, 33))
        assert strips <= sweep / 10


class TestJsonIO:
    def test_round_trip_preserves_framework(self):
        fw = Framework(
            [(0.0, 0.5), (-1.25, 0.0), (1.25, 0.0)],
            [(0, 1), (0, 2)],
            pinned=[1, 2],
        )
        text = framework_to_json(fw)
        back, group_field = parse_framework_json(text)
        assert group_field is None
        np.testing.assert_array_equal(back.positions, fw.positions)
        assert back.edges == fw.edges
        assert back.pinned == fw.pinned

    def test_write_parse_write_is_byte_stable(self):
        text = framework_to_json(SQUARE, group={"family": "Cnv", "n": 4})
        fw, group_field = parse_framework_json(text)
        assert framework_to_json(fw, group=group_field) == text

    @pytest.mark.parametrize(
        "doc",
        [
            "not json at all",
            "[]",
            '{"edges": []}',
            '{"vertices": [], "edges": [[0, 1]]}',
            '{"vertices": [{"id": 0, "x": 0, "y": 0}], "edges": [[0, 0]]}',
            '{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 0, "x": 1, "y": 0}],'
            ' "edges": []}',
            # Booleans, NaN, infinities and integers too large for a float
            # are not coordinates.
            '{"vertices": [{"id": 0, "x": true, "y": 0}], "edges": []}',
            '{"vertices": [{"id": 0, "x": 0, "y": false}], "edges": []}',
            '{"vertices": [{"id": 0, "x": NaN, "y": 0}], "edges": []}',
            '{"vertices": [{"id": 0, "x": 0, "y": -Infinity}], "edges": []}',
            '{"vertices": [{"id": 0, "x": 1' + "0" * 400 + ', "y": 0}], "edges": []}',
        ],
    )
    def test_malformed_documents_raise_value_error(self, doc):
        with pytest.raises(ValueError):
            parse_framework_json(doc)

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "fw.json"
        save_framework(path, SQUARE, group="auto")
        fw, group_field = load_framework(path)
        assert group_field == "auto"
        assert fw.num_vertices == 4
        # Saved files end with a newline and use two-space indentation.
        raw = path.read_text()
        assert raw.endswith("\n")
        assert json.loads(raw)["vertices"][0]["id"] == 0


# ---------------------------------------------------------------------------
# Column-wise planarity against its earlier (n, 2) form: the same candidate
# pairs, the same float formulas, so the same list bit for bit.
# ---------------------------------------------------------------------------


def _planarity_2d(fw, tol=GEOM_TOL):
    """Reference for check_planarity: its predicates as they read (e, 2)
    and (v, 2) arrays by fancy indexing, on the candidates of the same
    strip sweep."""
    p = fw.positions
    e = fw.num_edges
    if e == 0:
        return []
    scale = bbox_diagonal(p)
    tol_abs = tol * (scale if scale > 0 else 1.0)

    a, b = fw.ends.T
    pa, pb = p[a], p[b]
    d = pb - pa
    lengths = np.hypot(d[:, 0], d[:, 1])
    lengths = np.where(lengths == 0.0, 1.0, lengths)
    pad = tol_abs + 4 * np.finfo(float).eps * (tol_abs + np.abs(p).max())
    lo, hi = np.minimum(pa, pb) - pad, np.maximum(pa, pb) + pad
    hits = {"vertex_on_edge": [], "crossing": []}
    joint_bar, bar_bar = _strip_candidates(lo.T, hi.T, p.T)

    for ei, vi in joint_bar:
        keep = (lo[ei, 1] <= p[vi, 1]) & (p[vi, 1] <= hi[ei, 1]) & (vi != a[ei]) & (vi != b[ei])
        vi, ei = vi[keep], ei[keep]
        t = ((p[vi] - pa[ei]) * d[ei]).sum(axis=1) / (lengths[ei] ** 2)
        foot = pa[ei] + t[:, None] * d[ei]
        dist = np.hypot(*(p[vi] - foot).T)
        de1 = np.hypot(*(p[vi] - pa[ei]).T)
        de2 = np.hypot(*(p[vi] - pb[ei]).T)
        hit = (dist <= tol_abs) & (t > 0.0) & (t < 1.0) & (de1 > tol_abs) & (de2 > tol_abs)
        hits["vertex_on_edge"].append(np.stack([vi[hit], ei[hit]]))

    def sdist(pt, origin, dvec, ln):
        r = pt - origin
        return (dvec[:, 0] * r[:, 1] - dvec[:, 1] * r[:, 0]) / ln

    for one, other in bar_bar:
        ia, ib = np.minimum(one, other), np.maximum(one, other)
        keep = (lo[ia, 1] <= hi[ib, 1]) & (lo[ib, 1] <= hi[ia, 1])
        keep &= (a[ia] != a[ib]) & (a[ia] != b[ib]) & (b[ia] != a[ib]) & (b[ia] != b[ib])
        ia, ib = ia[keep], ib[keep]
        A1, B1, A2, B2 = pa[ia], pb[ia], pa[ib], pb[ib]
        d1, d2, l1, l2 = B1 - A1, B2 - A2, lengths[ia], lengths[ib]
        s1, s2 = sdist(A1, A2, d2, l2), sdist(B1, A2, d2, l2)
        s3, s4 = sdist(A2, A1, d1, l1), sdist(B2, A1, d1, l1)
        crossing = (
            (s1 * s2 < 0)
            & (s3 * s4 < 0)
            & (np.minimum(np.abs(s1), np.abs(s2)) > tol_abs)
            & (np.minimum(np.abs(s3), np.abs(s4)) > tol_abs)
        )
        hits["crossing"].append(np.stack([ia[crossing], ib[crossing]]))

    violations = []
    for kind, found in hits.items():
        x, y = np.concatenate(found, axis=1)
        violations += [(kind, int(x[w]), int(y[w])) for w in np.lexsort((y, x))]
    return violations


def _front_end_cases():
    """(id, framework) pairs the column passes are checked on against their
    (n, 2) forms: the catalog, pinned quad grids, the benchmark's spider
    webs for seeds 1 to 10, and the crowded squares."""
    for name in GEOMETRIC:
        yield name, catalog.generate(name).framework
    for cols, rows in ((2, 2), (7, 6), (34, 33)):
        yield f"grid-{cols}x{rows}", catalog._pinned_quad_grid(cols, rows)
    for seed in range(1, 11):
        yield f"ring-cnv-{seed}", _ring_cnv(seed)
    for spacing in (0.5, 6.0):
        yield f"crowded-square-{spacing:g}", _crowded_square(spacing)


@st.composite
def _lattice_frameworks(draw):
    """Joints on a small integer lattice, scaled and shifted, with random
    bars among them, and joints at GEOM_TOL·(1 - 1e-6), GEOM_TOL and
    GEOM_TOL·(1 + 1e-6) bounding-box diagonals from one bar.  Lattice
    joints share coordinates and distances, so one image can lie as far
    from two joints, and a coarse tolerance puts several in its window."""
    size = draw(st.integers(1, 5))
    coord = st.integers(-size, size)
    cells = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=30, unique=True))
    pos = np.array(cells, dtype=float)
    v = len(pos)
    ends = draw(st.lists(st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)), min_size=1, max_size=40))
    edges = sorted({(min(i, j), max(i, j)) for i, j in ends if i != j})
    scale = draw(st.sampled_from([1.0, 0.37, 1e-3, 250.0]))
    pos = pos * scale + draw(st.sampled_from([0.0, 1e3, -0.71]))
    if edges:
        i, j = edges[draw(st.integers(0, len(edges) - 1))]
        tol_abs = GEOM_TOL * bbox_diagonal(pos)
        u = (pos[j] - pos[i]) / np.hypot(*(pos[j] - pos[i]))
        normal = np.array([-u[1], u[0]])
        near = [
            pos[i] + t * (pos[j] - pos[i]) + side * rel * tol_abs * normal
            for t in (0.3, 0.5) for side in (-1, 1) for rel in (1 - 1e-6, 1.0, 1 + 1e-6)
        ]
        pos = np.vstack([pos, near])
    return Framework(pos, edges)


class TestColumnPlanarity:
    """check_planarity gives the list its (n, 2) form gives, bit for bit."""

    @pytest.mark.parametrize("case", list(_front_end_cases()), ids=lambda c: c[0])
    def test_cases(self, case):
        _, fw = case
        for tol in (GEOM_TOL, 1e-3, 0.0):
            assert check_planarity(fw, tol) == _planarity_2d(fw, tol)

    @given(_lattice_frameworks())
    def test_lattice_frameworks(self, fw):
        for tol in (GEOM_TOL, 1e-3, 0.0):
            assert check_planarity(fw, tol) == _planarity_2d(fw, tol)
