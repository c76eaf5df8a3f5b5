"""Point groups, permutation matching, censuses, and group detection."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given

import symstress.symmetry as symmetry
from symstress import (
    SYM_TOL,
    Framework,
    GroupSpec,
    NotSymmetric,
    affine_map,
    analyze,
    catalog,
    census,
    detect_groups,
    edge_permutation,
    group_elements,
    group_spec_from_json,
    make_census,
    mirror_op,
    parse_group_arg,
    resolve_action,
    resolve_group,
    vertex_permutation,
)
from symstress.framework import _range_pairs
from symstress.symmetry import apply_op, symmetry_action
from test_numeric import (
    GENERATED,
    _chiral_ring,
    _count_matchings,
    _crowded_square,
    _direct_detect_groups,
    _ring_cnv,
    _symmetric_frameworks,
)

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



def _loop_shells(radii, joints, tol_abs):
    """Reference for ``symmetry._radius_shells``: a new shell wherever a
    joint's radius exceeds the previous joint's, in sorted order, by more
    than tol_abs; the gcd of the sizes and the first smallest shell."""
    order_idx = joints[np.argsort(radii[joints])]
    shells = [[int(order_idx[0])]]
    for idx in order_idx[1:]:
        if radii[idx] - radii[shells[-1][-1]] > tol_abs:
            shells.append([])
        shells[-1].append(int(idx))
    g = 0
    for shell in shells:
        g = math.gcd(g, len(shell))
    return g, min(shells, key=len)


class TestRadiusShells:
    @pytest.mark.parametrize(
        "make",
        [lambda: catalog.generate(name).framework for name in ("fig3", "fig9a", "fig12b", "quadgrid")]
        + [lambda: catalog._pinned_quad_grid(24, 23), lambda: catalog._pinned_quad_grid(34, 33)],
        ids=["fig3", "fig9a", "fig12b", "quadgrid", "grid-24x23", "grid-34x33"],
    )
    def test_detection_shells_match_the_loop(self, make):
        with mock.patch.object(symmetry, "_radius_shells", wraps=symmetry._radius_shells) as shells:
            detect_groups(make())
        (args, _), = shells.call_args_list
        assert symmetry._radius_shells(*args) == _loop_shells(*args)

    def test_rings(self):
        # n joints on each of several circles: every shell is one ring.
        for n, rings in ((16, (1.0, 2.0, 3.5)), (6, (0.5, 0.75)), (5, (1.0,))):
            ang = np.tile(2 * np.pi * np.arange(n) / n, len(rings))
            radii = np.hypot(*(np.repeat(rings, n) * np.stack([np.cos(ang), np.sin(ang)])))
            joints = np.arange(radii.size)
            got = symmetry._radius_shells(radii, joints, 1e-9)
            assert got == _loop_shells(radii, joints, 1e-9)
            assert got[0] == n and len(got[1]) == n

    @pytest.mark.parametrize("seed", range(20))
    def test_random_radii(self, seed):
        # Radii on a grid of step tol_abs (gaps of exactly tol_abs and of
        # two), or free, over a random subset of the joints.
        rng = np.random.default_rng(seed)
        tol_abs = 0.25
        radii = rng.integers(1, 12, 60) * tol_abs if seed % 2 else rng.uniform(0.5, 4.0, 60)
        joints = np.sort(rng.choice(60, int(rng.integers(1, 61)), replace=False))
        assert symmetry._radius_shells(radii, joints, tol_abs) == _loop_shells(radii, joints, tol_abs)

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_gap_at_the_tolerance(self, step):
        # A gap of exactly tol_abs keeps one shell; one ulp more splits it.
        tol_abs = 0.25
        outer = 1.25 if step == 0 else np.nextafter(1.25, step * np.inf)
        radii = np.array([1.0, 2.0, outer, 1.0, outer, 2.0])
        joints = np.arange(radii.size)
        got = symmetry._radius_shells(radii, joints, tol_abs)
        assert got == _loop_shells(radii, joints, tol_abs)
        assert got == ((2, [0, 3]) if step == 1 else (2, [1, 5]))


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

    @pytest.mark.parametrize(
        "text",
        ["", "D4", "Cn", "Cn:0", "Cnv:2:up", "Cs:90:1", "Cs:nan", "Cs:inf", "Cnv:4:nan", "Cnv:4:-inf"],
    )
    def test_parse_group_arg_rejects_junk(self, text):
        with pytest.raises(ValueError):
            parse_group_arg(text)

    @pytest.mark.parametrize(
        "field",
        [
            {"center": [True, 0]},
            {"center": [float("nan"), 0]},
            {"center": [0, float("inf")]},
            {"center": [10**400, 0]},
            {"mirror_angle_deg": True},
            {"mirror_angle_deg": float("nan")},
            {"mirror_angle_deg": float("-inf")},
        ],
    )
    def test_group_spec_from_json_rejects_non_numbers(self, field):
        with pytest.raises(ValueError):
            group_spec_from_json({"family": "Cs", **field})

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


class TestMoreRotationsThanJoints:
    """A declared C_n or C_nv with n > v is rejected before its n classes
    are built."""

    FIG3 = catalog.generate("fig3").framework

    @pytest.mark.parametrize("family", ["Cn", "Cnv"])
    @pytest.mark.parametrize("n", [7, 12, 1000])
    def test_same_message_as_the_group_action(self, family, n):
        fw = self.FIG3
        with pytest.raises(NotSymmetric) as built:
            symmetry_action(fw, group_elements(family, n), fw.centroid())
        with pytest.raises(NotSymmetric) as early:
            resolve_group(GroupSpec(family, n), fw)
        assert str(early.value) == str(built.value)

    @pytest.mark.parametrize(
        "n, message",
        [
            (
                10**9,
                "joint 3 has no image match under rotation "
                "(nearest joint is 2.04e-08 away, tolerance 7.21e-09)",
            ),
            (
                10**12,
                "the rotation by 360/1000000000000 degrees would give an off-centre "
                "joint 1000000000000 images, but the framework has 6 joints",
            ),
        ],
    )
    def test_huge_n_returns_at_once(self, n, message):
        # Building the group took 1.9 s at n = 100,000; here it is never built.
        with mock.patch.object(symmetry, "group_elements") as build:
            for family in ("Cn", "Cnv"):
                with pytest.raises(NotSymmetric) as exc:
                    resolve_group(GroupSpec(family, n), self.FIG3)
                assert str(exc.value) == message
        assert not build.called

    @pytest.mark.parametrize("spec", [GroupSpec("Cn", 3), GroupSpec("Cnv", 5)])
    def test_one_joint_rejects_more_rotations(self, spec):
        # The joint sits at the centre, so the rotation by 2 pi / n passes.
        fw = Framework([(0.5, 1.0)], [], pinned=[0])
        with mock.patch.object(symmetry, "group_elements") as build:
            with pytest.raises(NotSymmetric) as exc:
                resolve_group(spec, fw)
        assert not build.called
        assert str(exc.value) == (
            f"the declared group has {spec.n} rotations, more than the framework's 1 joint(s)"
        )

    @pytest.mark.parametrize("spec", [GroupSpec("C1"), GroupSpec("Cs", mirror_angle_deg=30.0)])
    def test_one_joint_keeps_a_group_without_rotations(self, spec):
        fw = Framework([(0.5, 1.0)], [], pinned=[0])
        group, center = resolve_group(spec, fw)
        assert census(fw, group, center=center).freedom_number == 0


# ---------------------------------------------------------------------------
# resolve_action: detection's matched generators feed the action.
# ---------------------------------------------------------------------------


def _turned(fw, degrees):
    t = math.radians(degrees)
    return affine_map(fw, [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _action_cases():
    """(id, framework, group spec): every geometric catalog entry auto and
    declared, pinned grids, rings, and a crowded square."""
    for name in catalog.names():
        entry = catalog.generate(name)
        if entry.framework is not None:
            yield name, entry.framework, GroupSpec("auto")
            if entry.group is not None:
                yield f"{name}-declared", entry.framework, entry.group
    for cols, rows in ((24, 23), (34, 33), (21, 21)):
        yield f"grid-{cols}x{rows}", catalog._pinned_quad_grid(cols, rows), GroupSpec("auto")
    yield "grid-34x33-turned", _turned(catalog._pinned_quad_grid(34, 33), 30), GroupSpec("auto")
    for seed in range(1, 6):
        yield f"ring-cnv-{seed}", _ring_cnv(seed), GroupSpec("auto")
    yield "chiral-ring-8", _chiral_ring(8), GroupSpec("auto")
    yield "crowded-square", _crowded_square(0.5), GroupSpec("auto")
    yield "crowded-square-C4v", _crowded_square(0.5), GroupSpec("Cnv", 4, center=(0.0, 0.0))


def _assert_same_action(fw, spec):
    got = resolve_action(spec, fw)
    want = symmetry_action(fw, *resolve_group(spec, fw))
    assert got.group == want.group
    assert got.group.class_labels() == want.group.class_labels()
    assert np.array_equal(got.center, want.center)
    assert len(got.ops) == len(want.ops)
    bars = symmetry._BarLookup(fw)
    for a, b in zip(got.ops, want.ops):
        assert a.class_index == b.class_index
        assert np.array_equal(a.op.matrix, b.op.matrix)
        assert np.array_equal(a.vperm, b.vperm)
        assert np.array_equal(a.eperm, b.eperm)
        assert np.array_equal(a.eperm, bars.permutation(a.vperm))


def _listed(groups):
    return [
        (g.name, g.mirror_angle, g.class_labels(), g.class_sizes(), c.tolist()) for g, c in groups
    ]


def _count_calls(name, fn, *args):
    with mock.patch.object(symmetry, name, wraps=getattr(symmetry, name)) as spy:
        fn(*args)
    return spy.call_count


def _assert_stacks_hold_the_ops(action):
    """Row g of each stack is operation g of ``action.ops``, the permutations
    as views of the rows, and no stack can be written."""
    ops = action.ops
    assert action.vperms.shape[0] == action.eperms.shape[0] == len(ops)
    for g, act in enumerate(ops):
        assert np.shares_memory(act.vperm, action.vperms[g]) and np.array_equal(act.vperm, action.vperms[g])
        assert np.shares_memory(act.eperm, action.eperms[g]) and np.array_equal(act.eperm, action.eperms[g])
        assert np.array_equal(action.matrices[g], act.op.matrix)
        assert action.classes[g] == act.class_index
    assert action.classes.tolist() == [i for i, cls in enumerate(action.group.classes) for _ in cls.operations]
    for stack in (action.vperms, action.eperms, action.matrices, action.classes):
        assert not stack.flags.writeable


class TestResolveAction:
    @pytest.mark.parametrize("case", list(_action_cases()), ids=lambda c: c[0])
    def test_same_as_resolving_then_acting(self, case):
        _, fw, spec = case
        _assert_same_action(fw, spec)

    @pytest.mark.parametrize("case", list(_action_cases()), ids=lambda c: c[0])
    def test_stacks_hold_the_ops(self, case):
        _, fw, spec = case
        _assert_stacks_hold_the_ops(resolve_action(spec, fw))

    @GENERATED
    @given(_symmetric_frameworks())
    def test_generated_frameworks(self, case):
        fw, spec = case
        _assert_same_action(fw, spec)
        _assert_same_action(fw, GroupSpec("auto"))

    @pytest.mark.parametrize(
        "case", [c for c in _action_cases() if c[2].is_auto], ids=lambda c: c[0]
    )
    def test_detected_list_is_unchanged(self, case):
        """The list the enumeration built group by group, kept with direct
        matching in ``test_numeric._direct_detect_groups``."""
        _, fw, _ = case
        assert _listed(detect_groups(fw)) == _listed(_direct_detect_groups(fw, SYM_TOL))
        assert _listed([resolve_group(GroupSpec("auto"), fw)]) == _listed(detect_groups(fw)[:1])

    @pytest.mark.parametrize(
        "make, matchings",
        [(lambda: catalog._pinned_quad_grid(34, 33), 2), (lambda: _ring_cnv(1), 2), (lambda: SQUARE, 2)],
        ids=["grid-pinned", "ring-cnv", "square"],
    )
    def test_generators_matched_once_per_analyze(self, make, matchings):
        fw = make()
        assert _count_calls("vertex_permutation", detect_groups, fw) == matchings
        assert _count_calls("vertex_permutation", analyze, fw) == matchings
        assert _count_calls("_BarLookup", analyze, fw) == 1

    def test_only_the_used_group_is_built(self):
        fw = _ring_cnv(1)
        assert _count_calls("group_elements", detect_groups, fw) == 36
        assert _count_calls("group_elements", analyze, fw) == 1
        assert _count_calls("group_elements", resolve_group, GroupSpec("auto"), fw) == 1


def _seeded(fw, group, center, r_power, mirror_index):
    """A ``_Generated`` for ``group`` seeded with the pairs of r^r_power and
    of the group's mirror ``mirror_index`` in canonical order (0 is the
    reference mirror), taken from ``symmetry_action``."""
    ops = symmetry_action(fw, group, center).ops
    n = group.n
    rotation = next(a for a in ops if a.op.kind == "rotation" and round(a.op.angle * n / (2 * math.pi)) == r_power)
    mirror = [a for a in ops if a.op.kind == "mirror"][mirror_index]
    gen = symmetry._Generated(fw, center, SYM_TOL)
    gen.r = (rotation.vperm, rotation.eperm)
    gen.mirror = (mirror.vperm, mirror.eperm)
    return gen


class TestSeeds:
    """``_act`` uses a seeded generator only when it passes the check."""

    def _act(self, gen, group, monkeypatch):
        calls = _count_matchings(monkeypatch)
        action = symmetry._act(group, gen, symmetry._BarLookup(gen.fw))
        return action, calls

    def _assert_same(self, got, fw, group, center):
        want = symmetry_action(fw, group, center)
        for a, b in zip(got.ops, want.ops, strict=True):
            assert np.array_equal(a.vperm, b.vperm) and np.array_equal(a.eperm, b.eperm)

    def test_right_seeds_are_used(self, monkeypatch):
        fw = _ring_cnv(1)
        group, center = resolve_group(GroupSpec("auto"), fw)
        action, calls = self._act(_seeded(fw, group, center, 1, 0), group, monkeypatch)
        assert calls == []
        self._assert_same(action, fw, group, center)

    def test_wrong_seeds_are_matched_again(self, monkeypatch):
        fw = _ring_cnv(1)
        group, center = resolve_group(GroupSpec("auto"), fw)
        # r seeded with r^3 and s with another mirror: each generator is
        # matched once, every other operation composed from the matched ones.
        action, calls = self._act(_seeded(fw, group, center, 3, 1), group, monkeypatch)
        assert calls == ["rotation", "mirror"]
        self._assert_same(action, fw, group, center)

    @pytest.mark.parametrize("spacing", [0.5, 6.0])
    def test_crowded_seeds_are_never_accepted(self, spacing, monkeypatch):
        fw, group, center = _crowded_square(spacing), group_elements("Cnv", 4), np.zeros(2)
        action, calls = self._act(_seeded(fw, group, center, 1, 0), group, monkeypatch)
        assert len(calls) == 8
        self._assert_same(action, fw, group, center)

    def test_identity_raises_first_at_zero_tolerance(self):
        # At tol = 0 the identity's image (p - c) + c of joint 1 misses p by
        # one rounding, and r's image of joint 3 misses too.  The identity
        # comes first in canonical order, so it is the operation named.
        c, p = np.array([0.7, -0.9]), np.array([[1.4, -1.9], [2.2, 0.2]])
        fw = Framework([tuple(x) for x in np.vstack([p, 2 * c - p])], [(0, 1), (2, 3), (0, 2)])
        group = group_elements("Cn", 2)
        message = r"joint 1 has no image match under identity \(nearest joint is 5\.55e-17 away, tolerance 0\)"
        with pytest.raises(NotSymmetric, match=message):
            vertex_permutation(fw, group.operations()[0], c, tol=0.0)
        with pytest.raises(NotSymmetric, match=message):
            symmetry_action(fw, group, c, tol=0.0)
