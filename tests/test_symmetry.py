"""Point groups, permutation matching, censuses, and group detection."""

from unittest import mock

import numpy as np
import pytest

import symstress.symmetry as symmetry
from symstress import (
    SYM_TOL,
    Framework,
    GroupSpec,
    NotSymmetric,
    analyze,
    catalog,
    census,
    detect_groups,
    edge_permutation,
    group_elements,
    make_census,
    mirror_op,
    parse_group_arg,
    resolve_group,
    vertex_permutation,
)
from symstress.framework import _range_pairs
from symstress.symmetry import apply_op

SQUARE = Framework(
    [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
)
RECTANGLE = Framework(
    [(-2.0, -1.0), (2.0, -1.0), (2.0, 1.0), (-2.0, 1.0)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
)
SCALENE = Framework([(0.0, 0.0), (3.0, 0.0), (1.0, 2.0)], [(0, 1), (1, 2), (2, 0)])


class TestGroups:
    @pytest.mark.parametrize(
        "family, n, order", [("Cn", 1, 1), ("Cnv", 1, 2), ("Cn", 4, 4), ("Cnv", 4, 8)]
    )
    def test_group_order(self, family, n, order):
        g = group_elements(family, n)
        assert sum(c.size for c in g.classes) == order

    def test_c4v_class_structure(self):
        g = group_elements("Cnv", 4)
        labels = [c.label for c in g.classes]
        sizes = [c.size for c in g.classes]
        assert labels == ["E", "C4", "C2", "sigma_v", "sigma_d"]
        assert sizes == [1, 2, 1, 2, 2]

    def test_c3v_class_structure(self):
        g = group_elements("Cnv", 3)
        labels = [c.label for c in g.classes]
        sizes = [c.size for c in g.classes]
        assert labels == ["E", "C3", "sigma"]
        assert sizes == [1, 2, 3]

    def test_c2v_mirror_labels(self):
        g = group_elements("Cnv", 2)
        assert [c.label for c in g.classes] == ["E", "C2", "sigma_h", "sigma_v"]

    def test_cyclic_classes_are_singletons(self):
        g = group_elements("Cn", 6)
        assert all(c.size == 1 for c in g.classes)
        assert [c.label for c in g.classes] == ["E", "C6", "C3", "C2", "C3^2", "C6^5"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            group_elements("Dn", 3)


class TestPermutations:
    def test_square_quarter_turn(self):
        g = group_elements("Cn", 4)
        rot = g.classes[1].operations[0]
        center = SQUARE.centroid()
        vperm = vertex_permutation(SQUARE, rot, center)
        # A quarter turn cycles the corners.
        assert sorted(vperm) == [0, 1, 2, 3]
        assert len(set(vperm)) == 4
        eperm = edge_permutation(SQUARE, vperm)
        assert sorted(eperm) == [0, 1, 2, 3]

    def test_rectangle_rejects_quarter_turn(self):
        g = group_elements("Cn", 4)
        rot = g.classes[1].operations[0]
        with pytest.raises(NotSymmetric):
            vertex_permutation(RECTANGLE, rot, RECTANGLE.centroid())

    def test_pins_must_map_to_pins(self):
        fw = Framework(
            [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            [(0, 2), (1, 2)],
            pinned=[0],  # mirror image of joint 0 is the unpinned joint 1
        )
        g = group_elements("Cnv", 1, mirror_angle=np.pi / 2)
        mirror = g.classes[1].operations[0]
        with pytest.raises(NotSymmetric):
            vertex_permutation(fw, mirror, np.array([0.0, 0.5]))


def _brute_force_permutation(fw, op, center):
    """Nearest joint of every image by a full distance table."""
    images = apply_op(op, fw.positions, center)
    dist = np.sqrt(((images[:, None, :] - fw.positions[None, :, :]) ** 2).sum(axis=2))
    return dist.argmin(axis=1), dist.min(axis=1)


class TestMatching:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_nearest_joint(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        group = group_elements("Cnv", n, mirror_angle=float(rng.uniform(0, np.pi)))
        base = rng.normal(size=(int(rng.integers(1, 6)), 2)) * 10.0 ** rng.integers(-3, 4)
        if seed % 2:  # lattice points: many joints share a coordinate
            base = np.round(base)
        points = np.unique(
            np.vstack([apply_op(op, base, (0.0, 0.0)) for op in group.operations()]).round(9),
            axis=0,
        )
        fw = Framework(points, [])
        for op in group.operations():
            perm = vertex_permutation(fw, op, (0.0, 0.0), tol=1e-6)
            reference, _ = _brute_force_permutation(fw, op, (0.0, 0.0))
            assert np.array_equal(perm, reference)

    @pytest.mark.parametrize("block", [1, 5])
    def test_small_match_blocks_find_the_same_joints(self, block, monkeypatch):
        # A block never splits one image's candidates, so its size cannot
        # change a match or a tie.
        monkeypatch.setattr(
            symmetry, "_range_pairs", lambda starts, counts: _range_pairs(starts, counts, block)
        )
        points = np.array([(x, y) for x in range(-3, 4) for y in range(-3, 4)], dtype=float)
        fw = Framework(points, [])
        for op in group_elements("Cnv", 4).operations():
            perm = vertex_permutation(fw, op, (0.0, 0.0), tol=0.2)
            reference, _ = _brute_force_permutation(fw, op, (0.0, 0.0))
            assert np.array_equal(perm, reference)

    def test_reports_nearest_joint_distance(self):
        fw = Framework([(0.0, 0.0), (3.0, 0.0), (1.0, 2.0), (2.0, 2.1)], [])
        mirror = mirror_op(np.pi / 2)
        center = np.array([1.5, 0.0])
        _, dist = _brute_force_permutation(fw, mirror, center)
        with pytest.raises(NotSymmetric) as err:
            vertex_permutation(fw, mirror, center)
        assert str(err.value) == (
            f"joint 2 has no image match under mirror (nearest joint is "
            f"{dist[2]:.3g} away, tolerance {SYM_TOL * np.hypot(3.0, 2.1):.3g})"
        )
        assert "nearest joint is 0.1 away" in str(err.value)

    def test_coincident_joints_are_invalid_input(self):
        fw = Framework([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], [(0, 1), (1, 2)])
        for group in (GroupSpec("C1"), None):
            with pytest.raises(ValueError, match="joints 0 and 2 coincide"):
                analyze(fw, group)


class TestCensus:
    def test_square_under_c4v(self):
        g = group_elements("Cnv", 4)
        cen = census(SQUARE, g, center=SQUARE.centroid())
        assert cen.v == 4 and cen.e == 4
        assert cen.freedom_number == 2 * 4 - 4 - 3
        assert cen.v_c == 0 and cen.e_2 == 0
        # Axis mirrors bisect two bars each; diagonal mirrors pass through
        # two corners each.
        assert cen.e_sigma("sigma_v") == 2 and cen.e_sigma("sigma_d") == 0
        assert cen.v_sigma("sigma_v") == 0 and cen.v_sigma("sigma_d") == 2

    def test_pinned_census_counts_internal_joints_only(self):
        fw = Framework(
            [(0.0, 1.0), (-1.0, 0.0), (1.0, 0.0)],
            [(0, 1), (0, 2)],
            pinned=[1, 2],
        )
        g = group_elements("Cnv", 1, mirror_angle=np.pi / 2)
        cen = census(fw, g, center=np.array([0.0, 0.5]))
        assert cen.pinned
        assert cen.v == 1  # only the apex is internal
        assert cen.freedom_number == 2 * 1 - 2
        assert cen.v_sigma() == 1 and cen.e_sigma() == 0

    def test_single_unpinned_joint_is_rejected(self):
        # Counting three rigid motions on one joint would give k = -1 and a
        # self-stress that does not exist.
        with pytest.raises(ValueError, match="at least two joints"):
            census(Framework([(0.5, 1.0)], []), group_elements("Cn", 1))

    def test_single_pinned_joint_is_counted(self):
        fw = Framework([(0.5, 1.0)], [], pinned=[0])
        cen = census(fw, group_elements("Cn", 1))
        assert cen.pinned and cen.v == 0 and cen.freedom_number == 0

    def test_make_census_round_trips_counts(self):
        cen = make_census(
            "Cnv", 4, v=28, e=56, v_c=0, e_2=0,
            v_sigma=(0, 6), e_sigma=(6, 2),
        )
        assert cen.v_c == 0 and cen.e_2 == 0
        assert cen.v_sigma("sigma_v") == 0 and cen.v_sigma("sigma_d") == 6
        assert cen.e_sigma("sigma_v") == 6 and cen.e_sigma("sigma_d") == 2
        assert cen.freedom_number == 2 * 28 - 56 - 3

    def test_make_census_even_n_requires_pairs(self):
        with pytest.raises(ValueError):
            make_census("Cnv", 2, v=4, e=4, v_sigma=1, e_sigma=1)

    def test_e_sigma_needs_label_when_two_classes(self):
        cen = make_census("Cnv", 2, v=4, e=4, v_sigma=(0, 0), e_sigma=(1, 1))
        with pytest.raises(ValueError):
            cen.e_sigma()

    def test_census_to_dict_lists_classes(self):
        cen = make_census("Cnv", 1, v=6, e=9, v_sigma=2, e_sigma=3)
        rows = cen.to_dict()["classes"]
        assert [r["label"] for r in rows] == ["E", "sigma"]
        assert rows[0]["fixed_vertices"] == 6
        assert rows[1]["fixed_edges"] == 3


class TestDetection:
    def test_square_detects_c4v_first(self):
        groups = [g.name for g, _ in detect_groups(SQUARE)]
        assert groups[0] == "C4v"
        assert "C2v" in groups and "C1" in groups

    def test_rectangle_detects_c2v_first(self):
        groups = [g.name for g, _ in detect_groups(RECTANGLE)]
        assert groups[0] == "C2v"
        assert "C4v" not in groups

    def test_scalene_triangle_is_asymmetric(self):
        groups = [g.name for g, _ in detect_groups(SCALENE)]
        assert groups == ["C1"]

    @pytest.mark.parametrize("name", ["fig3", "fig9a", "fig12b", "quadgrid"])
    def test_one_bar_lookup_per_detection(self, name):
        fw = catalog.generate(name).framework
        with mock.patch.object(symmetry, "_BarLookup", wraps=symmetry._BarLookup) as lookup:
            detect_groups(fw)
        assert lookup.call_count == 1


class TestGroupSpec:
    @pytest.mark.parametrize(
        "text, family, n, angle",
        [
            ("auto", "auto", 1, 0.0),
            ("C1", "C1", 1, 0.0),
            ("Cs", "Cs", 1, 0.0),
            ("Cs:90", "Cs", 1, 90.0),
            ("Cn:4", "Cn", 4, 0.0),
            ("Cnv:4:45", "Cnv", 4, 45.0),
        ],
    )
    def test_parse_group_arg(self, text, family, n, angle):
        spec = parse_group_arg(text)
        assert spec.family == family
        assert spec.n == n
        assert spec.mirror_angle_deg == angle

    @pytest.mark.parametrize("text", ["", "D4", "Cn", "Cn:0", "Cnv:2:up", "Cs:90:1"])
    def test_parse_group_arg_rejects_junk(self, text):
        with pytest.raises(ValueError):
            parse_group_arg(text)

    def test_resolve_explicit_group(self):
        spec = GroupSpec("Cnv", 4)
        group, center = resolve_group(spec, SQUARE)
        assert group.name == "C4v"
        np.testing.assert_allclose(center, [0.0, 0.0], atol=1e-12)

    def test_resolve_cs_maps_to_order_two_group(self):
        group, _ = resolve_group(GroupSpec("Cs", mirror_angle_deg=90.0), RECTANGLE)
        assert group.name == "Cs"
        assert sum(c.size for c in group.classes) == 2

    def test_resolve_auto_detects(self):
        group, _ = resolve_group(GroupSpec("auto"), SQUARE)
        assert group.name == "C4v"

    def test_census_under_wrong_group_raises(self):
        group, center = resolve_group(GroupSpec("Cnv", 4), RECTANGLE)
        with pytest.raises(NotSymmetric):
            census(RECTANGLE, group, center=center)
