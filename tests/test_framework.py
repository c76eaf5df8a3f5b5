"""Framework construction, counting, rigidity matrices, and JSON I/O."""

import json

import numpy as np
import pytest

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
