"""Numeric rank engine: bases, symmetry classification, verification."""

import functools
import gc
import importlib.util
import json
import math
import tracemalloc
from contextlib import ExitStack
from itertools import zip_longest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import symstress.numeric as numeric
import symstress.symmetry as symmetry
from symstress import (
    Framework,
    GroupSpec,
    analyze,
    catalog,
    census,
    character_table,
    classify_by_irrep,
    detect_groups,
    edge_permutation,
    framework_to_json,
    group_elements,
    group_spec_to_json,
    intertwining_residual,
    maxwell_count,
    mechanism_basis,
    mirror_op,
    numeric_rank,
    reduce,
    resolve_group,
    rigidity_matrix,
    rigidity_matrix_pinned,
    rotation_op,
    self_stress_basis,
    symmetry_action,
    trivial_motion_basis,
    verify,
    vertex_permutation,
)

from symstress.cli import main
from symstress.errors import ClassMismatch, DegenerateSpan, DimensionMismatch, NotSymmetric
from symstress.framework import bbox_diagonal, rigidity_rows

from conftest import corrupt_identity_character

CHECK_NAMES = [
    "intertwining",
    "projector_resolution",
    "count_identity",
    "per_irrep_identity",
    "detected_lower_bound",
]

SQUARE_X = Framework(
    [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)],
    [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)],
)
SQUARE_FRAME = Framework(
    [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
)


def _nz(d):
    """Drop zero entries from a per-irrep count dict."""
    return {k: v for k, v in d.items() if v}


def _moved(fw, shift):
    """``fw`` with joint 0 moved by ``shift`` along x."""
    pos = fw.positions.copy()
    pos[0, 0] += shift
    return Framework(pos, fw.edges, fw.pinned)


class TestRankAndBases:
    def test_numeric_rank(self):
        assert numeric_rank(np.eye(4)) == 4
        m = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        assert numeric_rank(m) == 1
        assert numeric_rank(np.zeros((3, 2))) == 0

    def test_trivial_motions_span_kernel_of_rigid_framework(self):
        fw = Framework([(0.0, 0.0), (2.0, 0.0), (1.0, 1.5)], [(0, 1), (1, 2), (2, 0)])
        T = trivial_motion_basis(fw)
        assert T.shape == (3, 2 * 3)
        # Orthonormal rows annihilated by the rigidity matrix.
        np.testing.assert_allclose(T @ T.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rigidity_matrix(fw) @ T.T, 0.0, atol=1e-12)

    def test_braced_square_has_one_stress_no_mechanism(self):
        S = self_stress_basis(SQUARE_X)
        M = mechanism_basis(SQUARE_X)
        assert S.shape == (1, 6)
        assert M.shape[0] == 0
        # A self-stress is a left-kernel vector of the rigidity matrix.
        np.testing.assert_allclose(S @ rigidity_matrix(SQUARE_X), 0.0, atol=1e-9)

    def test_square_frame_has_one_mechanism_no_stress(self):
        assert self_stress_basis(SQUARE_FRAME).shape[0] == 0
        M = mechanism_basis(SQUARE_FRAME)
        assert M.shape == (1, 8)
        # Mechanisms are orthogonal to the trivial motions.
        T = trivial_motion_basis(SQUARE_FRAME)
        np.testing.assert_allclose(T @ M.T, 0.0, atol=1e-9)

    def test_pinned_bases_use_internal_coordinates(self):
        fw = Framework(
            [(0.0, 1.0), (-1.0, 0.0), (1.0, 0.0)],
            [(0, 1), (0, 2)],
            pinned=[1, 2],
        )
        assert self_stress_basis(fw).shape == (0, 2)  # width = #bars
        assert mechanism_basis(fw).shape == (0, 2)  # width = 2 * internal


class TestClassification:
    def test_braced_square_stress_is_fully_symmetric(self):
        group = group_elements("Cnv", 4)
        S = self_stress_basis(SQUARE_X)
        by = classify_by_irrep(SQUARE_X, group, S, space="edge")
        assert _nz(by) == {"A1": 1}

    def test_square_frame_mechanism_symmetry(self):
        group = group_elements("Cnv", 4)
        M = mechanism_basis(SQUARE_FRAME)
        by = classify_by_irrep(SQUARE_FRAME, group, M, space="velocity")
        assert sum(by.values()) == 1
        assert _nz(by) == {"B2": 1}

    def test_counts_sum_to_basis_size(self):
        entry = catalog.generate("fig12b")
        group, center = resolve_group(entry.group, entry.framework)
        M = mechanism_basis(entry.framework)
        by = classify_by_irrep(entry.framework, group, M, center=center)
        assert sum(by.values()) == M.shape[0] == 14

    def test_basis_rows_need_not_be_orthonormal(self):
        entry = catalog.generate("fig12b")
        group, center = resolve_group(entry.group, entry.framework)
        M = mechanism_basis(entry.framework)
        mixed = 0.1 * np.tril(np.ones((len(M), len(M)))) @ M
        by = classify_by_irrep(entry.framework, group, mixed, center)
        assert by == classify_by_irrep(entry.framework, group, M, center)

    def test_empty_basis_classifies_to_nothing(self):
        group = group_elements("Cnv", 4)
        by = classify_by_irrep(SQUARE_X, group, np.zeros((0, 8)))
        assert _nz(by) == {}

    def test_empty_basis_is_checked_like_any_other(self):
        group = group_elements("Cnv", 4)
        for rows in (0, 1):
            with pytest.raises(DimensionMismatch, match="length 8, got 12"):
                classify_by_irrep(SQUARE_X, group, np.zeros((rows, 12)))
            with pytest.raises(ValueError, match="space must be"):
                classify_by_irrep(SQUARE_X, group, np.zeros((rows, 8)), space="bogus")


class TestIntertwining:
    def test_zero_residual_for_true_symmetry(self):
        group = group_elements("Cnv", 4)
        res = intertwining_residual(SQUARE_X, group, center=np.zeros(2))
        assert res < 1e-12

    def test_residual_grows_with_perturbation(self):
        pos = SQUARE_X.positions.copy()
        pos[0, 0] += 1e-6
        fw = Framework(pos, SQUARE_X.edges)
        group = group_elements("Cnv", 4)
        res = intertwining_residual(fw, group, center=np.zeros(2), tol=1e-4)
        assert res > 1e-8


class TestVerify:
    def test_passing_report(self):
        entry = catalog.generate("fig3")
        rep = verify(entry.framework, entry.group)
        assert rep.passed
        assert [c.name for c in rep.checks] == CHECK_NAMES
        assert all(c.passed for c in rep.checks)
        assert rep.s == 1 and rep.m == 1 and rep.rank == 8
        assert _nz(rep.s_by_irrep) == {"A'": 1}
        assert _nz(rep.m_by_irrep) == {"A''": 1}

    def test_detected_bounds_hold_even_when_count_is_blind(self):
        # A framework whose stress/mechanism pair shares one irrep: the
        # symbolic count detects nothing, but verification still passes.
        entry = catalog.generate("fig10")
        rep = verify(entry.framework, entry.group)
        assert rep.passed
        assert rep.analysis.s_detected == 0
        assert rep.s == 1 and rep.m == 1
        assert _nz(rep.s_by_irrep) == {"A'": 1}
        assert _nz(rep.m_by_irrep) == {"A'": 1}

    def test_failure_on_sloppy_symmetry(self):
        pos = SQUARE_X.positions.copy()
        pos[0, 0] += 1e-6
        fw = Framework(pos, SQUARE_X.edges)
        rep = verify(fw, GroupSpec("Cnv", 4), tol=1e-4)
        assert not rep.passed
        failed = {c.name for c in rep.checks if not c.passed}
        assert "intertwining" in failed

    def test_failed_classification_is_reported(self, tmp_path, capsys):
        # Joint 0 moved by 1e-6 passes the census at tol 1e-2, but the
        # self-stress span is not invariant under C4v.
        entry = catalog.generate("fig12b")
        fw = _moved(entry.framework, 1e-6)
        rep = verify(fw, entry.group, tol=1e-2)
        assert (rep.v, rep.e, rep.rank, rep.s, rep.m) == (52, 96, 88, 8, 13)
        assert [c.passed for c in rep.checks] == [False, True, True, False, False]
        assert rep.checks[CHECK_NAMES.index("per_irrep_identity")].detail == (
            "classification failed: projected dimensions {'A1': 3, 'A2': 0, 'B1': 1, "
            "'B2': 1, 'E': 4} sum to 9, expected 8: the span is not invariant under C4v"
        )
        assert rep.s_by_irrep is None and rep.m_by_irrep is None
        path = tmp_path / "moved.json"
        path.write_text(framework_to_json(fw, group=group_spec_to_json(entry.group)))
        assert main(["verify", str(path), "--tol-sym", "1e-2"]) == 5
        assert "classification failed" in capsys.readouterr().out

    def test_pinned_verification(self):
        fw = Framework(
            [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (2.0, 0.0)],
            [(0, 1), (0, 2), (1, 3)],
            pinned=[2, 3],
        )
        rep = verify(fw)
        assert rep.pinned
        assert rep.k == 2 * 2 - 3
        assert rep.m - rep.s == 1
        assert rep.passed

    @pytest.mark.parametrize(
        "fw",
        [
            Framework([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], []),
            Framework([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1)], pinned=[0, 1, 2]),
        ],
        ids=["no-bars", "no-internal-joints"],
    )
    def test_degenerate_frameworks_verify(self, fw):
        rep = verify(fw, GroupSpec("C1"))
        assert rep.passed
        assert rep.checks[0].residual == 0.0

    def test_single_unpinned_joint_is_rejected(self):
        # One joint has two rigid-body motions, not the three k = 2v - e - 3
        # assumes.
        fw = Framework([(0.5, 1.0)], [])
        for run in (analyze, verify):
            with pytest.raises(ValueError, match="at least two joints"):
                run(fw)

    @pytest.mark.parametrize("keyword", ["tol", "rel_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_is_rejected(self, keyword, value):
        entry = catalog.generate("fig3")
        with pytest.raises(ValueError, match=f"{keyword} must be a finite number >= 0"):
            verify(entry.framework, entry.group, **{keyword: value})
        if keyword == "tol":
            with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
                analyze(entry.framework, entry.group, tol=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_rank_tolerance_is_rejected_by_every_public_function(self, value):
        # Unchecked, fig3 (one self-stress, one mechanism) gave 9 self-stresses
        # at rel_tol=nan and 12 mechanisms at rel_tol=inf.
        entry = catalog.generate("fig3")
        fw = entry.framework
        group, center = resolve_group(entry.group, fw)
        calls = [
            lambda: numeric_rank(np.eye(3), value),
            lambda: self_stress_basis(fw, value),
            lambda: mechanism_basis(fw, value),
            lambda: classify_by_irrep(fw, group, self_stress_basis(fw), center, "edge", rel_tol=value),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="rel_tol must be a finite number >= 0"):
                call()
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            classify_by_irrep(fw, group, self_stress_basis(fw), center, "edge", tol=value)

    def test_single_pinned_joint_verifies(self):
        rep = verify(Framework([(0.5, 1.0)], [], pinned=[0]))
        assert rep.passed
        assert rep.k == rep.s == rep.m == 0

    def test_report_serialization(self):
        entry = catalog.generate("fig2b")
        rep = verify(entry.framework, entry.group)
        doc = rep.to_dict(input_name="fig2b.json")
        assert doc["schema_version"] == 1
        assert doc["kind"] == "verification"
        assert doc["counts"]["rank"] == rep.rank
        assert doc["counts"]["self_stresses"] == rep.s
        assert [c["name"] for c in doc["checks"]] == CHECK_NAMES
        assert "verification PASSED" in rep.to_text()


# ---------------------------------------------------------------------------
# Dense references: the intertwining check as a whole-matrix computation, one
# permutation per operation.  The library computes it on the bar list, and
# must give the same floats.
# ---------------------------------------------------------------------------

GEOMETRIC = [n for n in catalog.names() if catalog.generate(n).framework is not None]


def _moving_perm_dense(fw, vperm):
    internal = fw.internal_vertices
    index_of = {vi: a for a, vi in enumerate(internal)}
    return np.array([index_of[int(vperm[vi])] for vi in internal], dtype=int)


def _dense_intertwining(fw, group, center, tol):
    R = rigidity_matrix_pinned(fw) if fw.is_pinned else rigidity_matrix(fw)
    R3 = R.reshape(R.shape[0], R.shape[1] // 2, 2)
    worst = 0.0
    for op in group.operations():
        vperm = vertex_permutation(fw, op, center, tol)
        eperm = edge_permutation(fw, vperm)
        perm = _moving_perm_dense(fw, vperm) if fw.is_pinned else vperm
        transformed = np.einsum("evd,dc->evc", R3[:, perm, :], op.matrix)
        worst = max(worst, float(np.max(np.abs(transformed[eperm] - R3))))
    return worst


def _reference_cases():
    """(framework, group, centre, tol): every geometric catalog entry under
    its declared group, and a perturbed square with a non-zero residual."""
    for name in GEOMETRIC:
        entry = catalog.generate(name)
        group, center = resolve_group(entry.group, entry.framework)
        yield name, entry.framework, group, center, 1e-9
    yield "sloppy", _moved(SQUARE_X, 1e-6), group_elements("Cnv", 4), np.zeros(2), 1e-4
    yield "sloppy-c4", _moved(SQUARE_X, 3e-7), group_elements("Cn", 4), np.zeros(2), 1e-4


class TestAgainstDenseReferences:
    @pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
    def test_bit_equal_residuals(self, case):
        _, fw, group, center, tol = case
        assert intertwining_residual(fw, group, center, tol) == _dense_intertwining(
            fw, group, center, tol
        )

    def test_perturbed_cases_have_nonzero_residual(self):
        for name, fw, group, center, tol in _reference_cases():
            if name.startswith("sloppy"):
                assert intertwining_residual(fw, group, center, tol) > 1e-8

    def test_shared_action_matches_fresh_one(self):
        entry = catalog.generate("fig12b")
        group, center = resolve_group(entry.group, entry.framework)
        action = symmetry_action(entry.framework, group, center)
        M = mechanism_basis(entry.framework)
        assert classify_by_irrep(entry.framework, group, M, center) == classify_by_irrep(
            entry.framework, group, M, action=action
        )
        assert intertwining_residual(entry.framework, group, center) == intertwining_residual(
            entry.framework, group, action=action
        )


class TestPermutationsOncePerVerify:
    @pytest.mark.parametrize("name", ["fig3", "fig6a", "fig9a", "fig12b", "quadgrid"])
    def test_one_joint_permutation_per_operation(self, name, monkeypatch):
        """One action per verify, which matches only the generators: the
        rotation by 2 pi / n (n > 1) and the reference mirror (C_nv)."""
        entry = catalog.generate(name)
        calls = _count_matchings(monkeypatch)
        rep = verify(entry.framework, entry.group)
        assert rep.passed
        group = resolve_group(entry.group, entry.framework)[0]
        assert calls == ["rotation"] * (group.n > 1) + ["mirror"] * (group.family == "Cnv")


# ---------------------------------------------------------------------------
# Groups the catalog never tests geometrically: chiral Cn rings (complex
# characters) and Cnv wheels (real characters, 2-D irreps).
# ---------------------------------------------------------------------------


def _chiral_ring(n):
    """Two rings of n joints, the inner one turned by 0.3 of a step, each a
    cycle, joined by a zig-zag of 2n bars: C_n symmetric, no mirror."""
    outer = [(np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n)) for k in range(n)]
    turn = 0.3 * 2 * np.pi / n
    inner = [
        (0.5 * np.cos(2 * np.pi * k / n + turn), 0.5 * np.sin(2 * np.pi * k / n + turn))
        for k in range(n)
    ]
    edges = [(k, (k + 1) % n) for k in range(n)]
    edges += [(n + k, n + (k + 1) % n) for k in range(n)]
    edges += [(n + k, k) for k in range(n)] + [(n + k, (k + 1) % n) for k in range(n)]
    return Framework(outer + inner, edges)


def _wheel(n):
    """A hub spoked to a rim of n joints, a cycle when n >= 3: C_nv symmetric."""
    rim = [(np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n)) for k in range(n)]
    edges = [(0, k + 1) for k in range(n)]
    if n >= 3:
        edges += [(k + 1, (k + 1) % n + 1) for k in range(n)]
    return Framework([(0.0, 0.0)] + rim, edges)


class TestUncataloguedGroups:
    @pytest.mark.parametrize(
        "fw, name",
        [(_chiral_ring(n), f"C{n}") for n in (3, 4, 5, 6, 7, 8)]
        + [(_wheel(n), f"C{n}v") for n in (3, 4, 5, 6, 7, 8)],
        ids=lambda x: x if isinstance(x, str) else "",
    )
    def test_detect_and_verify(self, fw, name):
        group, _ = detect_groups(fw)[0]
        assert group.name == name
        rep = verify(fw)
        assert rep.group_name == name
        assert rep.passed, [c.detail for c in rep.checks if not c.passed]
        assert sum(rep.s_by_irrep.values()) == rep.s
        assert sum(rep.m_by_irrep.values()) == rep.m
        # Cn (n >= 3) takes the complex classification path, Cnv the real one.
        complex_table = any(ir.is_complex for ir in character_table(group).irreps)
        assert complex_table == (not name.endswith("v"))


# ---------------------------------------------------------------------------
# Joint permutations composed from the generators' against direct matching:
# every operation matched joint by joint, as before composition.
# ---------------------------------------------------------------------------


def _direct_action(fw, group, center, tol):
    """Each operation's (vperm, eperm) in canonical order, every joint
    permutation from ``vertex_permutation``."""
    perms = []
    for op in group.operations():
        vperm = vertex_permutation(fw, op, center, tol)
        perms.append((vperm, edge_permutation(fw, vperm)))
    return perms


def _composed_action(fw, group, center, tol):
    return [(act.vperm, act.eperm) for act in symmetry_action(fw, group, center, tol).ops]


def _direct_detect_groups(fw, tol):
    """``detect_groups`` with every rotation and mirror candidate matched
    directly."""

    def is_symmetry(op):
        try:
            edge_permutation(fw, vertex_permutation(fw, op, center, tol))
            return True
        except NotSymmetric:
            return False

    center = fw.centroid()
    pos = fw.positions
    scale = bbox_diagonal(pos)
    tol_abs = tol * (scale if scale > 0 else 1.0)
    offsets = pos - center
    radii = np.hypot(offsets[:, 0], offsets[:, 1])
    off_center = np.where(radii > tol_abs)[0]
    if off_center.size == 0:
        return [(group_elements("Cn", 1), center)]
    order_idx = off_center[np.argsort(radii[off_center])]
    shells = [[int(order_idx[0])]]
    for idx in order_idx[1:]:
        if radii[idx] - radii[shells[-1][-1]] > tol_abs:
            shells.append([])
        shells[-1].append(int(idx))
    g = 0
    for shell in shells:
        g = math.gcd(g, len(shell))
    def divisors(n):
        return [d for d in range(n, 1, -1) if n % d == 0]

    rot_order = next(
        (d for d in divisors(g) if is_symmetry(rotation_op(2 * math.pi / d))), 1
    )
    shell = min(shells, key=len)
    angles = [math.atan2(offsets[i, 1], offsets[i, 0]) for i in shell]
    cand_angles = sorted(
        ((angles[ai] + angles[aj]) / 2) % math.pi
        for ai in range(len(angles))
        for aj in range(ai, len(angles))
    )
    ang_tol = max(tol_abs / float(radii[shell[0]]), 1e-12)
    dedup = []
    for a in cand_angles:
        if not dedup or (a - dedup[-1] > ang_tol and (math.pi - a + dedup[0]) > ang_tol):
            dedup.append(a)
    mirrors = [a for a in dedup if is_symmetry(mirror_op(a))]
    entries = [((-float(d), 1, 0.0), group_elements("Cn", d)) for d in divisors(rot_order)]
    if len(mirrors) == rot_order:
        for d in divisors(rot_order) + [1]:
            for ref in mirrors[: rot_order // d]:
                entries.append(((-2.0 * d, 0, ref), group_elements("Cnv", d, ref)))
    else:
        entries += [((-2.0, 0, ref), group_elements("Cnv", 1, ref)) for ref in mirrors]
    entries.append(((-1.0, 1, 0.0), group_elements("Cn", 1)))
    entries.sort(key=lambda item: item[0])
    result, seen = [], set()
    for _, grp in entries:
        key = (grp.name, round(grp.mirror_angle, 9))
        if key not in seen:
            seen.add(key)
            result.append((grp, center))
    return result


def _perms(action, fw, group, center, tol):
    """Every operation's joint and bar permutation as lists, or the error."""
    try:
        return [(v.tolist(), e.tolist()) for v, e in action(fw, group, center, tol)]
    except (NotSymmetric, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _groups(detect, fw, tol):
    return [(g.name, g.mirror_angle, c.tolist()) for g, c in detect(fw, tol)]


@functools.cache
def _workloads():
    """The benchmark's input generators, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _ring_cnv(seed):
    """The benchmark's C16v spider web."""
    return _workloads().ring_cnv(seed)


def _noisy_cnv(n, noise, seed):
    """Two joint orbits of C_nv about the origin, one on the mirrors and one
    off them, two bar orbits, and every coordinate moved by up to
    ``noise``."""
    group = group_elements("Cnv", n)
    reps = [np.array([1.0, 0.0]), 1.7 * np.array([np.cos(0.3 * np.pi / n), np.sin(0.3 * np.pi / n)])]
    points = []
    for rep in reps:
        for op in group.operations():
            p = op.matrix @ rep
            if all(np.linalg.norm(p - q) > 1e-9 for q in points):
                points.append(p)
    exact = np.array(points)
    perms = [[int(np.argmin(np.linalg.norm(exact - op.matrix @ p, axis=1))) for p in exact]
             for op in group.operations()]
    bars = {tuple(sorted((perm[a], perm[b]))) for perm in perms for a, b in ((0, 1), (0, n))}
    moved = exact + np.random.default_rng(seed).uniform(-noise, noise, exact.shape)
    return Framework(moved, sorted(bars))


def _square_drifting(tol=1e-9):
    """Four joints on the unit circle, each turned from its C4 place so that
    the quarter turn misses by 0.6 of the tolerance and the half turn by
    1.2: C4 passes its generator and fails r^2."""
    tol_abs = tol * 2 * np.sqrt(2)
    turns = np.array([0.0, 0.6, 1.2, 0.6]) * tol_abs
    angles = np.pi / 2 * np.arange(4) + turns
    return Framework(np.c_[np.cos(angles), np.sin(angles)], [(0, 1), (1, 2), (2, 3), (3, 0)])


def _crowded_square(spacing, tol=1e-9):
    """SQUARE_X with a second joint ``spacing`` absolute tolerances beyond
    each corner, on the corner's diagonal: C4v symmetric, but too crowded to
    accept a composed permutation without matching.  On the matching
    direction the pairs project 0.245 x ``spacing`` tolerances apart (at
    best), and the guard asks for more than 2."""
    corners = np.asarray(SQUARE_X.positions)
    step = spacing * tol * np.hypot(2 + tol, 2 + tol)
    outer = corners * (1 + step / np.sqrt(2))
    edges = list(SQUARE_X.edges) + [(k, 4 + k) for k in range(4)]
    return Framework(np.vstack([corners, outer]), edges)


def _generator_cases():
    """(id, framework, tol, declared (group, centre) pairs), each checked
    with its detected groups as well."""
    for name in GEOMETRIC:
        entry = catalog.generate(name)
        fw = entry.framework
        declared = [resolve_group(entry.group, fw)]
        top, center = detect_groups(fw)[0]
        family = top.family if top.n > 1 else "Cnv"
        declared.append((group_elements(family, 2 * top.n, top.mirror_angle), center))
        if top.family == "Cnv":
            declared.append((group_elements("Cnv", top.n, top.mirror_angle + 0.1), center))
        yield name, fw, 1e-9, declared
    for seed in (1, 2, 3):
        yield f"ring-cnv-{seed}", _ring_cnv(seed), 1e-9, []
    for n in (3, 4, 7):
        yield f"chiral-ring-{n}", _chiral_ring(n), 1e-9, [(group_elements("Cnv", n), np.zeros(2))]
    for n in (4, 8):
        for noise in (1e-10, 1e-9, 1.5e-9, 2e-9, 3e-9, 1e-8):
            for seed in range(3):
                origin = np.zeros(2)
                declared = [(group_elements("Cnv", n), origin), (group_elements("Cnv", 2 * n), origin)]
                yield f"noisy-C{n}v-{noise:g}-{seed}", _noisy_cnv(n, noise, seed), 1e-9, declared
    yield "drifting-square", _square_drifting(), 1e-9, [(group_elements("Cn", 4), np.zeros(2))]
    for spacing in (0.5, 6.0):
        yield f"crowded-square-{spacing:g}", _crowded_square(spacing), 1e-9, [
            (group_elements("Cnv", 4), np.zeros(2))
        ]


def _count_matchings(monkeypatch):
    """The kinds of the operations ``vertex_permutation`` is called for,
    appended as the calls are made."""
    calls = []
    original = symmetry.vertex_permutation

    def counting(fw, op, *args, **kwargs):
        calls.append(op.kind)
        return original(fw, op, *args, **kwargs)

    monkeypatch.setattr(symmetry, "vertex_permutation", counting)
    return calls


class TestGeneratorMatching:
    @pytest.mark.parametrize("case", list(_generator_cases()), ids=lambda c: c[0])
    def test_same_as_direct_matching(self, case):
        _, fw, tol, declared = case
        detected = detect_groups(fw, tol)
        assert _groups(detect_groups, fw, tol) == _groups(_direct_detect_groups, fw, tol)
        for group, center in declared + detected:
            got = _perms(_composed_action, fw, group, center, tol)
            assert got == _perms(_direct_action, fw, group, center, tol), group

    @pytest.mark.parametrize("n", [4, 8])
    def test_noise_reaches_both_outcomes(self, n):
        """C_nv holds on the least noisy sets and fails on the noisiest."""
        group, origin = group_elements("Cnv", n), np.zeros(2)
        failed = [
            isinstance(_perms(_composed_action, _noisy_cnv(n, noise, 0), group, origin, 1e-9), str)
            for noise in (1e-10, 1e-8)
        ]
        assert failed == [False, True]

    def test_half_turn_fails_after_its_generator_passes(self):
        fw = _square_drifting()
        center, c4 = np.zeros(2), group_elements("Cn", 4)
        vertex_permutation(fw, rotation_op(np.pi / 2), center)
        with pytest.raises(NotSymmetric, match="joint 0 has no image match under rotation"):
            vertex_permutation(fw, rotation_op(np.pi), center)
        assert isinstance(_perms(_composed_action, fw, c4, center, 1e-9), str)

    @pytest.mark.parametrize("make", [lambda: _ring_cnv(1), lambda: _web()], ids=["ring-cnv", "web"])
    def test_generators_only_are_matched(self, make, monkeypatch):
        fw = make()
        calls = _count_matchings(monkeypatch)
        group, center = detect_groups(fw)[0]
        assert group.name == "C16v"
        assert calls == ["rotation", "mirror"]
        calls.clear()
        symmetry_action(fw, group, center)
        assert calls == ["rotation", "mirror"]

    @pytest.mark.parametrize("spacing", [0.5, 6.0])
    def test_crowded_joints_are_all_matched(self, spacing, monkeypatch):
        calls = _count_matchings(monkeypatch)
        symmetry_action(_crowded_square(spacing), group_elements("Cnv", 4), np.zeros(2))
        assert len(calls) == 8


# ---------------------------------------------------------------------------
# projector_resolution: the character table's identity
# sum_i d_i conj(chi_i(g)) = |G| delta_{g,E}, whatever the framework.
# ---------------------------------------------------------------------------


class TestProjectorResolution:
    @pytest.mark.parametrize("family", ["Cn", "Cnv"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_table_residual(self, family, n):
        group = GroupSpec(family, n, center=(0.0, 0.0))
        rep = verify(_wheel(n), group)
        check = rep.checks[CHECK_NAMES.index("projector_resolution")]
        assert check.passed
        assert check.residual <= 2e-15
        # Integer characters sum exactly.
        chars = character_table(group_elements(family, n)).as_matrix()
        if np.array_equal(chars, np.round(chars)):
            assert check.residual == 0.0

    def test_corrupted_table_fails_the_check(self, monkeypatch):
        # The bases would be built from the projectors' traces and columns,
        # so with a table that fails the check none is built: the totals come
        # from the whole matrix and are right, and the per-irrep checks fail.
        monkeypatch.setattr(
            numeric, "character_table", lambda g: corrupt_identity_character(character_table(g))
        )
        entry = catalog.generate("fig3")
        with mock.patch.object(numeric, "_isotypic_bases", wraps=numeric._isotypic_bases) as bases:
            rep = verify(entry.framework, entry.group)
        assert bases.call_count == 0
        failed = [c.name for c in rep.checks if not c.passed]
        assert failed == ["projector_resolution", "per_irrep_identity", "detected_lower_bound"]
        # Cs: the E column sums to 1 + 1/2 + 1 over |G| = 2.
        assert rep.checks[1].residual == 0.25
        assert rep.checks[3].detail == "classification failed: the irrep projectors do not resolve the identity"
        assert (rep.s, rep.m, rep.s_by_irrep, rep.m_by_irrep) == (1, 1, None, None)
        assert not rep.passed


# ---------------------------------------------------------------------------
# Block route: verify counts from the symmetry-adapted blocks of R.  The full
# SVD with projection classification is kept for frameworks that fail the
# intertwining check, and is the reference here.
# ---------------------------------------------------------------------------


def _both_routes(fw, group, tol=1e-9, rel_tol=numeric.RANK_TOL):
    """(verify's report, the report with the full route forced, whether
    verify took the full route by itself)."""
    with mock.patch.object(numeric, "_full_counts", wraps=numeric._full_counts) as full:
        rep = verify(fw, group, tol=tol, rel_tol=rel_tol)
    with mock.patch.object(numeric, "_block_counts", return_value=None):
        ref = verify(fw, group, tol=tol, rel_tol=rel_tol)
    return rep, ref, full.called


def _assert_same_report(rep, ref):
    assert (rep.rank, rep.s, rep.m) == (ref.rank, ref.s, ref.m)
    assert rep.s_by_irrep == ref.s_by_irrep
    assert rep.m_by_irrep == ref.m_by_irrep
    assert json.dumps(rep.to_dict()) == json.dumps(ref.to_dict())


def _agreement_cases():
    """(id, framework, group spec or None for detection)."""
    for name in GEOMETRIC:
        entry = catalog.generate(name)
        yield name, entry.framework, entry.group
        yield f"{name}-detected", entry.framework, None
    for name, spec in (("fig9a", GroupSpec("Cn", 4)), ("fig12b", GroupSpec("Cnv", 2))):
        yield f"{name}-{spec.family}{spec.n}", catalog.generate(name).framework, spec
    for n in range(3, 9):
        yield f"ring-C{n}", _chiral_ring(n), None
        yield f"wheel-C{n}v", _wheel(n), None
    for cols, rows in ((6, 5), (10, 9), (7, 7)):
        yield f"grid-{cols}x{rows}", catalog._pinned_quad_grid(cols, rows), None


class TestBlockRoute:
    @pytest.mark.parametrize("case", list(_agreement_cases()), ids=lambda c: c[0])
    def test_matches_full_route(self, case):
        _, fw, group = case
        rep, ref, fell_back = _both_routes(fw, group)
        assert not fell_back
        assert rep.passed, [c.detail for c in rep.checks if not c.passed]
        _assert_same_report(rep, ref)

    @pytest.mark.parametrize("fw", [_chiral_ring(5), _wheel(6)], ids=["C5", "C6v"])
    def test_isotypic_bases_are_orthonormal_and_complete(self, fw):
        group, center = detect_groups(fw)[0]
        action = symmetry_action(fw, group, center)
        table = character_table(group)
        vectors = []
        for parts in _whole_isotypic(fw, action, table, "velocity"):
            for coords, values in parts:
                dense = np.zeros((values.shape[0], 2 * fw.num_vertices), complex)
                np.put_along_axis(dense, coords, values, axis=1)
                vectors.append(dense)
        basis = np.vstack(vectors)
        assert basis.shape == (2 * fw.num_vertices, 2 * fw.num_vertices)
        np.testing.assert_allclose(basis @ basis.conj().T, np.eye(basis.shape[0]), atol=1e-12)

    @pytest.mark.parametrize(
        "case",
        [c for c in _reference_cases() if c[0].startswith("sloppy")],
        ids=lambda c: c[0],
    )
    def test_failed_intertwining_takes_full_route(self, case):
        _, fw, group, center, tol = case
        spec = GroupSpec(group.family, group.n, center=tuple(center))
        with mock.patch.object(
            numeric, "_block_counts", wraps=numeric._block_counts
        ) as block, mock.patch.object(
            numeric, "_full_counts", wraps=numeric._full_counts
        ) as full, mock.patch.object(numeric, "_svd_spaces", wraps=numeric._svd_spaces) as svd:
            rep = verify(fw, spec, tol=tol)
        assert not block.called and full.call_count == 1
        # The mechanisms come from the same SVD as the rank and the stresses.
        assert svd.call_count == 1
        # The report is the one the full route has always given.
        assert [c.name for c in rep.checks if not c.passed] == ["intertwining"]
        assert (rep.rank, rep.s, rep.m) == (5, 1, 0)
        assert _nz(rep.s_by_irrep) == {"A1" if group.family == "Cnv" else "A0": 1}
        assert _nz(rep.m_by_irrep) == {}

    @pytest.mark.parametrize("shift, fell_back", [(1e-12, False), (1e-9, True)])
    def test_rank_decision_within_residual_takes_full_route(self, shift, fell_back):
        # With a fine rank cutoff a residual that passes the intertwining
        # check can still move a singular value across the cutoff.
        entry = catalog.generate("fig3")
        fw = _moved(entry.framework, shift)
        rep, ref, took_full = _both_routes(fw, entry.group, tol=1e-4, rel_tol=1e-13)
        assert rep.checks[0].passed
        assert took_full == fell_back
        _assert_same_report(rep, ref)


def _bases_cases():
    """(id, framework, group spec, verify's keywords, whether the block route
    is forced off, whether the full route runs)."""
    entry = catalog.generate("fig3")
    yield "fig3", entry.framework, entry.group, {}, False, False
    # Intertwining passes, but the residual slack covers the rank cutoff.
    slack = {"tol": 1e-4, "rel_tol": 1e-13}
    yield "fig3-slack", _moved(entry.framework, 1e-9), entry.group, slack, False, True
    for name, fw, group, center, tol in _reference_cases():
        if name.startswith("sloppy"):
            spec = GroupSpec(group.family, group.n, center=tuple(center))
            yield name, fw, spec, {"tol": tol}, False, True
    yield "fig3-forced", entry.framework, entry.group, {}, True, True


class TestBasesOncePerVerify:
    @pytest.mark.parametrize("case", list(_bases_cases()), ids=lambda c: c[0])
    def test_isotypic_bases_built_once_for_both_routes(self, case):
        _, fw, spec, kwargs, forced, full_route = case
        with ExitStack() as stack:
            if forced:
                stack.enter_context(mock.patch.object(numeric, "_block_counts", return_value=None))
            spy = {
                name: stack.enter_context(
                    mock.patch.object(numeric, name, wraps=getattr(numeric, name))
                )
                for name in ("_isotypic", "classify_by_irrep", "_full_counts")
            }
            verify(fw, spec, **kwargs)
        assert spy["_full_counts"].called == full_route
        # (space, parity) of every call; parity defaults to 1.
        built = [(*call.args[3:], 1)[:2] for call in spy["_isotypic"].call_args_list]
        # The block route's sigma-even velocity and bar bases, and the full
        # route's sigma-odd ones besides; no (space, parity) basis twice.
        want = [("velocity", 1), ("edge", 1)] + [("velocity", -1), ("edge", -1)] * full_route
        assert built == want
        assert not spy["classify_by_irrep"].called


# ---------------------------------------------------------------------------
# Isotypic bases against two references that diagonalise dense projectors:
# the builder before orbit types, which scatters every orbit's projector
# block from index arithmetic and diagonalises each orbit on its own, and
# the builder before transfer columns, which forms one dense projector per
# orbit type and irrep and diagonalises it piece by piece.  Both keep the
# eigenvectors with eigenvalue above 1/2, and both ignore ``partner``: they
# need no partner columns.
# ---------------------------------------------------------------------------


def _orbit_by_orbit_bases(perms, mats, coeff, partner=False):
    """``numeric._isotypic_bases`` with one projector block and one ``eigh``
    per orbit, orbits of one size in one batch: one part per orbit size."""
    n = perms.shape[1]
    f = mats.shape[-1]
    bases = [[] for _ in coeff]
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
        block = np.arange(irreps)[:, None] * orbits + np.arange(orbits)
        block = block[:, None, :, None, None, None]
        row = local[perms[:, members]][..., None, None] * f + fibre[:, None]
        col = np.arange(k)[:, None, None] * f + fibre
        at = ((block * width + row) * width + col).ravel()
        entries = (coeff[:, :, None, None] * mats)[:, :, None, None]
        entries = np.broadcast_to(entries, (irreps,) + row.shape[:3] + (f, f)).ravel()
        projector = numeric._scatter(at, entries, irreps * orbits * width * width)
        values, vectors = np.linalg.eigh(projector.reshape(-1, width, width))
        hit, j = np.nonzero(values > numeric.CLASSIFY_THRESHOLD)
        irrep, orbit = np.divmod(hit, orbits)
        kept_coords, kept = coords[orbit], vectors[hit, :, j]
        for t in range(irreps):
            mine = irrep == t
            bases[t].append((kept_coords[mine], kept[mine]))
    return bases


def _piecewise_eigh(projector, pattern):
    """``np.linalg.eigh(projector)`` for a stack (rows, types, w, w) of
    Hermitian matrices, each zero outside its type's ``pattern`` (types, w,
    w), from one batched ``eigh`` per piece width: a type's pieces are the
    connected components of its pattern."""
    types, w = pattern.shape[:2]
    t, x, y = np.nonzero(pattern)
    label = numeric._components(t * w + x, t * w + y, types * w)
    _, piece, width = np.unique(label, return_inverse=True, return_counts=True)
    nodes = np.argsort(piece, kind="stable")
    start = np.cumsum(width) - width
    values = np.empty(projector.shape[:-1])
    vectors = np.zeros_like(projector)
    for size in np.unique(width):
        at = nodes[start[width == size][:, None] + np.arange(size)]
        kinds, at = at[:, :1] // w, at % w
        index = (slice(None), kinds[:, :, None], at[:, :, None], at[:, None, :])
        values[:, kinds, at], vectors[index] = np.linalg.eigh(projector[index])
    return values, vectors


def _projector_bases(perms, mats, coeff, partner=False):
    """``numeric._isotypic_bases`` from one dense projector per orbit type
    and irrep, sum_g coeff[i, g] rho(g), diagonalised piece by piece when
    every operation matrix has an exact zero: one part per orbit type."""
    n, f = perms.shape[1], mats.shape[-1]
    split = bool((mats == 0).any(axis=(1, 2)).all())
    bases = [[] for _ in coeff]
    name = perms.min(axis=0)
    size = 1 + np.count_nonzero(np.diff(np.sort(perms, axis=0), axis=0), axis=0)
    order = np.lexsort((*(perms == np.arange(n)), name))
    local = np.empty(n, dtype=np.intp)
    for k in np.unique(size):
        members = order[size[order] == k].reshape(-1, k)
        reach = np.argmax(perms[:, members[:, :1]] == members, axis=0)
        members = np.take_along_axis(members, np.argsort(reach, axis=1), axis=1)
        local[members] = np.arange(k)
        coords = (members[:, :, None] * f + np.arange(f)).reshape(-1, k * f)
        tables, kind = np.unique(local[perms[:, members]].swapaxes(0, 1), axis=0, return_inverse=True)
        kind = kind.ravel()
        # rho(g) puts mats[g, a, c] at row (local image of l, a), column (l, c).
        moves = tables[:, :, None, :] == np.arange(k)[:, None]
        rho = np.einsum("tgml,gac->tgmalc", moves, mats).reshape(tables.shape[:2] + (k * f,) * 2)
        projector = np.einsum("ig,tgxy->itxy", coeff, rho)
        if split:
            values, vectors = _piecewise_eigh(projector, (rho != 0).any(axis=1))
        else:
            values, vectors = np.linalg.eigh(projector)
        orbits = [coords[kind == t] for t in range(len(tables))]
        values, vectors = values.reshape(-1, k * f), vectors.reshape(-1, k * f, k * f)
        for (i, t), value, vector in zip(np.ndindex(projector.shape[:2]), values, vectors):
            kept = vector[:, value > numeric.CLASSIFY_THRESHOLD].T
            bases[i].append((np.repeat(orbits[t], len(kept), axis=0), np.tile(kept, (len(orbits[t]), 1))))
    return bases


def _dense_rows(parts, size):
    """The basis vectors of ``_isotypic`` parts as dense rows of length size."""
    count = sum(len(values) for _, values in parts)
    dense = np.zeros((count, size), np.result_type(float, *[v for _, v in parts]))
    start = 0
    for coords, values in parts:
        dense[np.arange(start, start + len(values))[:, None], coords] = values
        start += len(values)
    return dense


def _projectors(parts_by_irrep, size):
    """Per irrep, V_i V_i^H from ``_isotypic`` parts, densely."""
    for parts in parts_by_irrep:
        dense = _dense_rows(parts, size)
        yield dense.T @ dense.conj()


def _assert_same_projectors(bases, reference, size):
    for got, want in zip(_projectors(bases, size), _projectors(reference, size)):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


def _assert_bases_match_reference(fw, spec):
    group, center = resolve_group(spec or GroupSpec("auto"), fw)
    action = symmetry_action(fw, group, center)
    table = character_table(group)
    sizes = {"velocity": 2 * int(np.count_nonzero(fw.velocity_blocks >= 0)), "edge": fw.num_edges}
    for space, size in sizes.items():
        bases = numeric._isotypic(fw, action, table, space)
        with mock.patch.object(numeric, "_isotypic_bases", _orbit_by_orbit_bases):
            reference = numeric._isotypic(fw, action, table, space)
        assert len(bases) == len(reference) == len(table.irreps)
        _assert_same_projectors(bases, reference, size)
    with mock.patch.object(numeric, "_isotypic_bases", _orbit_by_orbit_bases):
        ref = verify(fw, spec)
    assert json.dumps(verify(fw, spec).to_dict()) == json.dumps(ref.to_dict())


def _web(rings=10, n=16):
    """Unpinned C_nv spider web: a hub spoked to the first of ``rings`` rings
    of n joints, odd rings turned by half a step, each ring a cycle, and each
    band between two rings a strip of triangles (161 joints and 464 bars at
    the defaults)."""
    positions = [(0.0, 0.0)]
    for ring in range(rings):
        for k in range(n):
            angle = np.pi * (2 * k + ring % 2) / n
            positions.append(((1 + ring) * np.cos(angle), (1 + ring) * np.sin(angle)))

    def joint(ring, k):
        return 1 + ring * n + k % n

    edges = [(0, joint(0, k)) for k in range(n)]
    for ring in range(rings):
        edges += [(joint(ring, k), joint(ring, k + 1)) for k in range(n)]
    for ring in range(rings - 1):
        shift = -1 if ring % 2 == 0 else 1
        for k in range(n):
            edges += [(joint(ring, k), joint(ring + 1, k)), (joint(ring, k), joint(ring + 1, k + shift))]
    return Framework(positions, edges)


def _renumbered(fw, seed):
    """``fw`` with its joints and its bars in a random order."""
    rng = np.random.default_rng(seed)
    joints = rng.permutation(fw.num_vertices)
    new_id = np.argsort(joints)
    edges = [(int(new_id[a]), int(new_id[b])) for a, b in fw.edges]
    return Framework(
        np.asarray(fw.positions)[joints],
        [edges[e] for e in rng.permutation(len(edges))],
        pinned=[int(new_id[j]) for j in fw.pinned],
    )


def _orbit_types(perms):
    """(number of orbits, number of conjugacy classes of stabilisers) of a
    permutation action given as rows of ``perms``, one row per operation."""
    stabiliser = [frozenset(np.flatnonzero(perms[:, j] == j).tolist()) for j in range(perms.shape[1])]
    orbits = {frozenset(perms[:, j].tolist()) for j in range(perms.shape[1])}
    return len(orbits), len({frozenset(stabiliser[p] for p in orbit) for orbit in orbits})


def _key_cases():
    """(id, framework): the benchmark's C16v webs and renumbered C16v webs."""
    for seed in (1, 2, 3):
        yield f"ring-cnv-{seed}", _ring_cnv(seed)
    for seed in (1, 2):
        yield f"web-renumbered-{seed}", _renumbered(_web(), seed)


def _assert_key_matches_unique_rows(fw, spec):
    """Every orbit-size batch of both spaces' halves gets from
    ``numeric._distinct_rows`` the first indices and the inverse that
    ``np.unique(..., axis=0)`` gives for its orbits' start stabilisers."""
    key = numeric._distinct_rows
    batches = []

    def checked(rows):
        first, kind = key(rows)
        _, want_first, want_kind = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        np.testing.assert_array_equal(first, want_first)
        assert kind.shape == (len(rows),)
        np.testing.assert_array_equal(kind, want_kind.ravel())
        batches.append(len(rows))
        return first, kind

    group, center = resolve_group(spec or GroupSpec("auto"), fw)
    action = symmetry_action(fw, group, center)
    table = character_table(group)
    with mock.patch.object(numeric, "_distinct_rows", checked):
        for space in ("velocity", "edge"):
            _whole_isotypic(fw, action, table, space)
    assert batches


class TestBasesByOrbitType:
    @pytest.mark.parametrize("case", list(_agreement_cases()), ids=lambda c: c[0])
    def test_matches_orbit_by_orbit_reference(self, case):
        _, fw, spec = case
        _assert_bases_match_reference(fw, spec)

    @pytest.mark.parametrize("seed", [None, 1], ids=["as-built", "renumbered"])
    def test_web_matches_orbit_by_orbit_reference(self, seed):
        fw = _web() if seed is None else _renumbered(_web(), seed)
        assert (fw.num_vertices, fw.num_edges) == (161, 464)
        group, _ = detect_groups(fw)[0]
        assert group.name == "C16v"
        _assert_bases_match_reference(fw, None)

    @pytest.mark.parametrize("seed", [None, 1, 2], ids=["as-built", "renumbered-1", "renumbered-2"])
    def test_one_eigh_per_orbit_type_and_irrep(self, seed):
        # Members are labelled from the group action, so renumbering the
        # joints and bars leaves the number of types alone.  The turn by
        # 2 pi / 16 has no zero entry, so every type is one piece: one Gram
        # matrix per type and irrep, in whatever stacks eigh is handed, of
        # the 2f columns of members 0 and r(0), which the halves of the 2-D
        # irreps need.
        fw = _web() if seed is None else _renumbered(_web(), seed)
        group, center = detect_groups(fw)[0]
        action = symmetry_action(fw, group, center)
        table = character_table(group)
        perms = {"velocity": np.asarray(action.vperms), "edge": np.asarray(action.eperms)}
        irreps = len(table.irreps)
        for space, perm in perms.items():
            orbits, types = _orbit_types(perm)
            with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
                numeric._isotypic(fw, action, table, space)
            shapes = [call.args[0].shape for call in eigh.call_args_list]
            # Joints: the hub, and ring joints on a mirror of either class.
            # Bars: on no mirror, or across a mirror of either class.
            assert (orbits, types) == {"velocity": (11, 3), "edge": (20, 3)}[space]
            assert sum(int(np.prod(shape[:-2])) for shape in shapes) == irreps * types
            f = {"velocity": 2, "edge": 1}[space]
            assert {shape[-2:] for shape in shapes} == {(2 * f, 2 * f)}

    def test_one_eigh_per_piece_width(self):
        # Every C2v operation matrix has an exact zero, so on the pinned
        # 34x33 grid each velocity type splits into its x and its y
        # coordinates: joints on the x axis (orbits of 2) and off both axes
        # (orbits of 4).  Each piece holds one column of member 0, so each
        # orbit size takes one batched eigh of 4 irreps x 2 pieces of 1 x 1
        # Gram matrices.  A bar's fibre is 1-D, and a bar type (the middle
        # bar of the x axis, bars on or across it, the others) is one piece
        # with one column.
        fw = catalog._pinned_quad_grid(34, 33)
        group, center = detect_groups(fw)[0]
        action = symmetry_action(fw, group, center)
        table = character_table(group)
        shapes = {}
        for space in ("velocity", "edge"):
            with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
                numeric._isotypic(fw, action, table, space)
            shapes[space] = [call.args[0].shape for call in eigh.call_args_list]
        assert shapes["velocity"] == [(4, 2, 1, 1), (4, 2, 1, 1)]
        assert [shape[-2:] for shape in shapes["edge"]] == [(1, 1)] * 3
        assert all(shape[0] == 4 for shape in shapes["edge"])

    @pytest.mark.parametrize("case", list(_key_cases()), ids=lambda c: c[0])
    def test_orbit_type_key_matches_unique_rows(self, case):
        _, fw = case
        _assert_key_matches_unique_rows(fw, None)

    @pytest.mark.parametrize("seed", [None, 1], ids=["as-built", "renumbered"])
    def test_verify_memory_peak(self, seed):
        # tracemalloc sees numpy's buffers.  One projector block per orbit
        # peaked at 6.1 MB here, one per orbit type at 1.6 MB.  Types read
        # from members sorted by joint id peaked at 2.1 MB as built and at
        # 6.4 MB renumbered.
        fw = _web() if seed is None else _renumbered(_web(), seed)
        verify(fw)
        tracemalloc.start()
        try:
            verify(fw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


# ---------------------------------------------------------------------------
# Transfer-column bases against the projector route (``_projector_bases``),
# half by half: the same spaces, orthonormal, the same block singular
# values, and on the axis-aligned C2v, C4v, C4 and C1 grids the same block
# components.  The higher-order webs are the benchmark's spider web with more
# rotations and fewer rings.
# ---------------------------------------------------------------------------


def _ring_web(order, count, seed=1):
    """``perfbench/workloads.py``'s spider web with ``RING_ORDER`` = order and
    ``RING_COUNT`` = count; the file itself is left as it is."""
    workloads = _workloads()
    with mock.patch.multiple(workloads, RING_ORDER=order, RING_COUNT=count):
        return workloads.ring_cnv(seed)


def _block_spectra(fw, velocity, bar):
    """Every block's singular values, and the shapes of the matrices its
    SVDs were handed, for the given even halves."""
    blocks, d, _ = rigidity_rows(fw, fw.velocity_blocks)
    spectra, shapes = [], []
    for triples in numeric._adapted_blocks(fw, velocity, bar, blocks, d):
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            spectra.append(numeric._singular_values(*triples))
        shapes.append(sorted(call.args[0].shape for call in svd.call_args_list))
    return spectra, shapes


def _assert_bases_match_projector_route(fw, spec, same_components=False):
    """Per space and sigma-parity half, the transfer bases span the
    projector route's spaces (V V^H within 1e-12) and are orthonormal; the
    even halves' blocks have the projector route's singular values within
    1e-12 of the largest, and with ``same_components`` the same component
    shapes."""
    group, center = resolve_group(spec or GroupSpec("auto"), fw)
    action = symmetry_action(fw, group, center)
    table = character_table(group)
    sizes = {"velocity": 2 * int(np.count_nonzero(fw.velocity_blocks >= 0)), "edge": fw.num_edges}
    even = {}
    for space, size in sizes.items():
        for parity in (1, -1):
            bases = numeric._isotypic(fw, action, table, space, parity)
            with mock.patch.object(numeric, "_isotypic_bases", _projector_bases):
                reference = numeric._isotypic(fw, action, table, space, parity)
            _assert_same_projectors(bases, reference, size)
            for parts in bases:
                dense = _dense_rows(parts, size)
                np.testing.assert_allclose(dense @ dense.conj().T, np.eye(len(dense)), rtol=0, atol=1e-12)
            if parity > 0:
                even[space] = bases, reference
    (velocity, ref_velocity), (bar, ref_bar) = even["velocity"], even["edge"]
    spectra, shapes = _block_spectra(fw, velocity, bar)
    ref_spectra, ref_shapes = _block_spectra(fw, ref_velocity, ref_bar)
    top = max((float(sv[0]) for sv in ref_spectra if sv.size), default=0.0)
    for got, want in zip(spectra, ref_spectra, strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * top)
    if same_components:
        assert shapes == ref_shapes


def _transfer_cases():
    """(id, framework, group spec or None, whether the block components must
    be the projector route's)."""
    for name in GEOMETRIC:
        entry = catalog.generate(name)
        yield name, entry.framework, entry.group, False
        yield f"{name}-detected", entry.framework, None, False
    grids = [(34, 33, None), (21, 21, None), (21, 21, GroupSpec("Cn", 4)), (21, 21, GroupSpec("C1"))]
    for cols, rows, spec in grids:
        label = spec.family + str(spec.n) if spec else "detected"
        yield f"grid-{cols}x{rows}-{label}", catalog._pinned_quad_grid(cols, rows), spec, True
    for seed in range(1, 11):
        yield f"ring-cnv-{seed}", _ring_cnv(seed), None, False
    for n in range(3, 9):
        yield f"chiral-ring-C{n}", _chiral_ring(n), None, False
    yield "web-C32v", _ring_web(32, 10), None, False
    yield "web-C64v", _ring_web(64, 5), None, False


class TestTransferBases:
    @pytest.mark.parametrize("case", list(_transfer_cases()), ids=lambda c: c[0])
    def test_match_projector_route(self, case):
        _, fw, spec, same_components = case
        _assert_bases_match_projector_route(fw, spec, same_components)

    @pytest.mark.parametrize("order, count, s, m", [(32, 10, 289, 32), (64, 5, 257, 64)], ids=["C32v", "C64v"])
    def test_higher_order_webs(self, order, count, s, m):
        fw = _ring_web(order, count)
        assert detect_groups(fw)[0][0].name == f"C{order}v"
        rep = verify(fw)
        assert rep.passed, [c.detail for c in rep.checks if not c.passed]
        assert (rep.s, rep.m) == (s, m)

    def test_traces_are_the_kept_counts(self):
        # Each half keeps round(trace) vectors per piece, so the halves of a
        # 2-D irrep hold the same number of vectors, and the even halves and
        # the odd halves together hold the whole space.
        fw = _ring_cnv(1)
        group, center = detect_groups(fw)[0]
        action = symmetry_action(fw, group, center)
        table = character_table(group)
        for space, size in (("velocity", 2 * fw.num_vertices), ("edge", fw.num_edges)):
            halves = [numeric._isotypic(fw, action, table, space, parity) for parity in (1, -1)]
            counts = [[sum(len(v) for _, v in parts) for parts in half] for half in halves]
            for ir, even, odd in zip(table.irreps, *counts):
                assert odd == (even if ir.dim == 2 else 0)
            assert sum(ir.dim * even for ir, even in zip(table.irreps, counts[0])) == size

    def test_whole_2d_component_is_refused(self):
        # A 2-D irrep's whole projector has twice a half's trace, so on an
        # orbit of 8 joints of the C4v grid it asks for more vectors than
        # its 2f columns hold; the builder raises rather than keep them all.
        fw = catalog._pinned_quad_grid(7, 7)
        group, center = detect_groups(fw)[0]
        action = symmetry_action(fw, group, center)
        table = character_table(group)
        dims = np.array([ir.dim for ir in table.irreps])
        coeff = (np.conj(table.as_matrix()[:, action.classes]) * (dims / group.order)[:, None]).real
        perms = numeric._moving_perm(fw, action.vperms)
        with pytest.raises(DegenerateSpan, match="asks for 4 vectors from 2 columns"):
            numeric._isotypic_bases(perms, action.matrices, coeff[dims == 2], True)

    def test_columns_spanning_too_little_are_refused(self):
        # Zero columns with a trace of 1 would scale a vector by 1/0, and a
        # negative trace is no count of vectors.
        tables, piece = np.zeros((1, 1, 1), dtype=np.intp), np.zeros(1, dtype=np.intp)
        for rank, message in ((1, "columns span fewer dimensions than its trace"), (-1, "asks for -1 vectors")):
            with pytest.raises(DegenerateSpan, match=message):
                numeric._transfer_vectors(tables, np.ones((1, 1, 1)), np.zeros((1, 1)), piece, np.full((1, 1), rank), False)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_spreads_are_orthogonal_and_mix_the_kept_vectors(self, q):
        for r, spread in enumerate(numeric._spreads(q)):
            np.testing.assert_allclose(spread @ spread.T, np.eye(q), rtol=0, atol=1e-15)
            np.testing.assert_array_equal(spread[: q - r], np.eye(q)[: q - r])
            if r > 1:
                assert np.all(spread[q - r :, q - r :] != 0)


# ---------------------------------------------------------------------------
# Parity halves against the whole-block route: the block route before the
# halves, which builds each irrep's whole isotypic component from the rows
# (d_i/|G|) conj(chi_i(g)) and counts on the whole blocks E_i^H R V_i.
# ---------------------------------------------------------------------------


def _whole_isotypic(fw, action, table, space):
    """Per irrep, the ``_isotypic`` parts of its whole isotypic component:
    the sigma-even and the sigma-odd halves."""
    return numeric._whole(fw, action, table, space, numeric._isotypic(fw, action, table, space))


def _undivided_isotypic(fw, action, table, space):
    """Per irrep, a basis of its whole isotypic component from its
    projector's own coefficient rows, through the orbit-by-orbit reference:
    two columns per fibre coordinate do not span a whole 2-D component."""
    dims = np.array([ir.dim for ir in table.irreps], dtype=float)
    chars = table.as_matrix()[:, action.classes]
    coeff = np.conj(chars) * (dims / action.group.order)[:, None]
    if not any(ir.is_complex for ir in table.irreps):
        coeff = coeff.real
    if space == "velocity":
        return _orbit_by_orbit_bases(numeric._moving_perm(fw, action.vperms), action.matrices, coeff)
    return _orbit_by_orbit_bases(action.eperms, np.ones((len(action.matrices), 1, 1)), coeff)


def _densify(rows, cols, at, values):
    """The dense rows x cols block of ``numeric._adapted_blocks``' (rows,
    cols, at, values) triples, from one ``bincount`` per real part."""
    if np.iscomplexobj(values):
        flat = np.bincount(at, values.real, rows * cols) + 1j * np.bincount(at, values.imag, rows * cols)
    else:
        flat = np.bincount(at, values, rows * cols)
    return flat.reshape(rows, cols)


def _triples(block):
    """A dense block as (rows, cols, at, values) triples, one per entry,
    zeros included."""
    return (*block.shape, np.arange(block.size), block.ravel())


def _whole_block_counts(fw, spec, rel_tol=numeric.RANK_TOL):
    """(counts, sigma_max) from the whole blocks: rank_i is the block's rank,
    s_i = dim E_i - rank_i and m_i = dim V_i - rank_i - t_i."""
    group, center = resolve_group(spec or GroupSpec("auto"), fw)
    action = symmetry_action(fw, group, center)
    table = character_table(group)
    velocity = _undivided_isotypic(fw, action, table, "velocity")
    bar = _undivided_isotypic(fw, action, table, "edge")
    blocks, d, n = rigidity_rows(fw, fw.velocity_blocks)
    sigmas, shapes = [], []
    for triples in numeric._adapted_blocks(fw, velocity, bar, blocks, d):
        block = _densify(*triples)
        sigmas.append(np.linalg.svd(block, compute_uv=False) if block.size else np.zeros(0))
        shapes.append(block.shape)
    top = max((float(sv[0]) for sv in sigmas if sv.size), default=0.0)
    cutoff = numeric._cutoff(rel_tol, top, (max(fw.num_edges, 2 * n),))
    ranks = [int(np.sum(sv > cutoff)) for sv in sigmas]
    trivial = trivial_motion_basis(fw)
    rigid = [numeric._dim_in(trivial, parts) for parts in velocity]
    labels = [ir.label for ir in table.irreps]
    s_by = {lab: de - r for lab, (de, _), r in zip(labels, shapes, ranks)}
    m_by = {lab: dv - r - t for lab, (_, dv), r, t in zip(labels, shapes, ranks, rigid)}
    counts = numeric._Counts(sum(ranks), sum(s_by.values()), sum(m_by.values()), s_by, m_by)
    return counts, top


def _assert_halves_match_whole_blocks(fw, spec):
    """verify's counts, JSON report and sigma_max are the whole-block
    route's."""
    ref, ref_top = _whole_block_counts(fw, spec)
    with mock.patch.object(numeric, "_cutoff", wraps=numeric._cutoff) as cutoff:
        rep = verify(fw, spec)
    # The block route's cutoff is the only one taken for a 1-tuple shape.
    tops = [call.args[1] for call in cutoff.call_args_list if len(call.args[2]) == 1]
    assert len(tops) == 1
    assert abs(tops[0] - ref_top) <= 1e-12 * ref_top
    got = (rep.rank, rep.s, rep.m, rep.s_by_irrep, rep.m_by_irrep)
    assert got == (ref.rank, ref.s, ref.m, ref.s_by_irrep, ref.m_by_irrep)
    with mock.patch.object(numeric, "_block_counts", return_value=ref):
        whole = verify(fw, spec)
    assert json.dumps(rep.to_dict()) == json.dumps(whole.to_dict())


def _acted(fw, act, rows, space):
    """rho(g) applied to dense rows: (g.u)_{perm(j)} = T u_j on velocities,
    (g.w)_{eperm(b)} = w_b on bars."""
    moved = np.zeros_like(rows)
    if space == "velocity":
        perm = numeric._moving_perm(fw, act.vperm)
        moved.reshape(len(rows), -1, 2)[:, perm] = rows.reshape(len(rows), -1, 2) @ act.op.matrix.T
    else:
        moved[:, act.eperm] = rows
    return moved


def _assert_halves_are_mirror_eigenspaces(fw, spec):
    """For a 2-D irrep, each half is fixed (even) or negated (odd) by the
    first mirror in ``action.ops`` and holds half of the component; a 1-D
    irrep's odd half is empty."""
    group, center = resolve_group(spec or GroupSpec("auto"), fw)
    action = symmetry_action(fw, group, center)
    table = character_table(group)
    mirror = next((act for act in action.ops if act.op.kind == "mirror"), None)
    sizes = {"velocity": 2 * int(np.count_nonzero(fw.velocity_blocks >= 0)), "edge": fw.num_edges}
    for space, size in sizes.items():
        even, odd = (numeric._isotypic(fw, action, table, space, parity) for parity in (1, -1))
        for ir, even_parts, odd_parts in zip(table.irreps, even, odd):
            halves = [_dense_rows(parts, size) for parts in (even_parts, odd_parts)]
            if ir.dim == 1:
                assert len(halves[1]) == 0
                continue
            assert len(halves[0]) == len(halves[1])
            for parity, rows in zip((1, -1), halves):
                moved = _acted(fw, mirror, rows, space)
                np.testing.assert_allclose(moved, parity * rows, rtol=0, atol=1e-12)


def _parity_cases():
    """(id, framework, group spec or None): the block route's agreement cases
    and larger pinned C4v grids."""
    yield from _agreement_cases()
    for side in (9, 15):
        yield f"grid-{side}x{side}", catalog._pinned_quad_grid(side, side), None


class TestParityHalves:
    @pytest.mark.parametrize("case", list(_parity_cases()), ids=lambda c: c[0])
    def test_halves_match_whole_blocks(self, case):
        _, fw, spec = case
        _assert_halves_match_whole_blocks(fw, spec)

    @pytest.mark.parametrize("case", list(_parity_cases()), ids=lambda c: c[0])
    def test_halves_are_mirror_eigenspaces(self, case):
        _, fw, spec = case
        _assert_halves_are_mirror_eigenspaces(fw, spec)

    def test_ring_cnv_halves_match_whole_blocks(self):
        fw = _ring_cnv(1)
        _assert_halves_match_whole_blocks(fw, None)
        _assert_halves_are_mirror_eigenspaces(fw, None)


# ---------------------------------------------------------------------------
# Block assembly against a dense reference: scatter each V_i into a dense
# (n+1) x 2 x cols array (the zero block n stands for pinned ends), form
# R V_i densely (e x cols) and gather E_i's rows.
# ---------------------------------------------------------------------------


def _dense_blocks(fw, velocity, bar, blocks, d):
    """The blocks of ``numeric._adapted_blocks``, through dense
    intermediates."""
    n = int(np.count_nonzero(fw.velocity_blocks >= 0))
    first, second = np.where(blocks < 0, n, blocks).T
    for v_parts, e_parts in zip(velocity, bar):
        cols = sum(values.shape[0] for _, values in v_parts)
        dtype = np.result_type(*[values for _, values in v_parts + e_parts], float)
        basis = np.zeros((n + 1, 2, cols), dtype=dtype)
        flat = basis.reshape(2 * n + 2, cols)
        start = 0
        for coords, values in v_parts:
            stop = start + values.shape[0]
            flat[coords, np.arange(start, stop)[:, None]] = values
            start = stop
        rv = d[:, :1] * (basis[first, 0] - basis[second, 0])
        rv += d[:, 1:] * (basis[first, 1] - basis[second, 1])
        rows = [
            np.einsum("rs,rsc->rc", values.conj(), rv[coords]) for coords, values in e_parts
        ]
        yield np.concatenate(rows) if rows else np.zeros((0, cols))


def _dense_triples(fw, velocity, bar, blocks, d):
    """``_dense_blocks`` as ``numeric._adapted_blocks`` yields blocks."""
    for block in _dense_blocks(fw, velocity, bar, blocks, d):
        yield _triples(block)


def _assert_blocks_match_dense(fw, spec):
    group, center = resolve_group(spec or GroupSpec("auto"), fw)
    action = symmetry_action(fw, group, center)
    table = character_table(group)
    blocks, d, n = rigidity_rows(fw, fw.velocity_blocks)
    velocity = numeric._isotypic(fw, action, table, "velocity")
    bar = numeric._isotypic(fw, action, table, "edge")
    pairs = zip_longest(
        (_densify(*triples) for triples in numeric._adapted_blocks(fw, velocity, bar, blocks, d)),
        _dense_blocks(fw, velocity, bar, blocks, d),
    )
    atol = 1e-13 * numeric._max_entry(blocks, d, n)
    for block, ref_block in pairs:
        assert block.shape == ref_block.shape
        assert np.iscomplexobj(block) == np.iscomplexobj(ref_block)
        np.testing.assert_allclose(block, ref_block, rtol=0, atol=atol)
    # Counts and per-irrep counts from the dense blocks are verify's own.
    with mock.patch.object(numeric, "_adapted_blocks", _dense_triples):
        ref = verify(fw, spec)
    _assert_same_report(verify(fw, spec), ref)


class TestBlockAssembly:
    @pytest.mark.parametrize("case", list(_agreement_cases()), ids=lambda c: c[0])
    def test_matches_dense_reference(self, case):
        _, fw, spec = case
        _assert_blocks_match_dense(fw, spec)

    def test_verify_memory_peak(self):
        # Measured with tracemalloc, which sees numpy's buffers.  The dense
        # assembly peaked at 11.9 MB here, the triples at 2.1 MB.
        fw = catalog._pinned_quad_grid(24, 23)
        verify(fw)
        tracemalloc.start()
        try:
            verify(fw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_verify_memory_peak_48x47(self):
        # No block is formed whole on the split path: the dense blocks
        # peaked at 23.3 MB here, the triples at 3.2 MB.
        fw = catalog._pinned_quad_grid(48, 47)
        verify(fw)
        tracemalloc.start()
        try:
            verify(fw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


# ---------------------------------------------------------------------------
# Component split against the unsplit route: each orbit type's columns
# orthonormalised together, and each adapted block taken by one dense SVD.
# ---------------------------------------------------------------------------


def _one_piece_per_type(tables, mats):
    """``numeric._pieces`` without the pieces: each orbit type whole."""
    return np.repeat(np.arange(len(tables)), tables.shape[-1] * mats.shape[-1])


def _dense_singular_values(rows, cols, at, values):
    """``numeric._singular_values`` without the components: one SVD of the
    dense block."""
    block = _densify(rows, cols, at, values)
    return np.linalg.svd(block, compute_uv=False) if block.size else np.zeros(0)


UNSPLIT = {"_pieces": _one_piece_per_type, "_singular_values": _dense_singular_values}
# Every non-empty block is labelled, small ones included.
ALWAYS_SPLIT = {"_SPLIT_MIN": 1}


def _verify_with(fw, spec, patches):
    """(verify's report, the singular values of every block it took) with
    the module attributes in ``patches`` replaced."""
    sigmas = []
    with ExitStack() as stack:
        for name, value in patches.items():
            stack.enter_context(mock.patch.object(numeric, name, value))
        values_of = numeric._singular_values

        def recorded(*block):
            sigmas.append(values_of(*block))
            return sigmas[-1]

        stack.enter_context(mock.patch.object(numeric, "_singular_values", recorded))
        rep = verify(fw, spec)
    return rep, sigmas


def _assert_split_matches_unsplit(fw, spec, patches=ALWAYS_SPLIT):
    """Counts, JSON report and every block's sorted singular values (within
    1e-12 of the largest) are the unsplit route's; returns the split run's
    singular values."""
    rep, sigmas = _verify_with(fw, spec, patches)
    ref, ref_sigmas = _verify_with(fw, spec, UNSPLIT)
    _assert_same_report(rep, ref)
    assert len(sigmas) == len(ref_sigmas)
    top = max((float(sv[0]) for sv in ref_sigmas if sv.size), default=0.0)
    for got, want in zip(sigmas, ref_sigmas):
        assert got.shape == want.shape
        assert np.all(np.diff(got) <= 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * top)
    return sigmas


def _turned(fw, degrees):
    """``fw`` turned about the origin."""
    a = np.radians(degrees)
    turn = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return Framework(np.asarray(fw.positions) @ turn.T, fw.edges, fw.pinned)


def _count_svd_matrices():
    """A ``np.linalg.svd`` spy, and the number of matrices it was handed."""
    svd = mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd)
    return svd, lambda spy: sum(
        int(np.prod(call.args[0].shape[:-2])) for call in spy.call_args_list
    )


class TestComponentSplit:
    @pytest.mark.parametrize("case", list(_agreement_cases()), ids=lambda c: c[0])
    def test_matches_unsplit_route(self, case):
        _, fw, spec = case
        _assert_split_matches_unsplit(fw, spec)

    @pytest.mark.parametrize(
        "cols, rows, group, paths", [(34, 33, "C2v", 134), (21, 21, "C4v", 53)], ids=["C2v", "C4v"]
    )
    def test_grid_takes_one_svd_per_grid_line(self, cols, rows, group, paths):
        # Horizontal bars move only x-velocities and vertical bars only
        # y-velocities, so each block splits into one path per orbit of grid
        # lines that the irrep meets: 2 x 67 lines in all at 34x33 (C2v), and
        # 53 at 21x21 (C4v), whose 42 lines fall into 11 orbits.  Merging
        # components takes fewer SVDs, splitting a path more.
        fw = catalog._pinned_quad_grid(cols, rows)
        spy, matrices = _count_svd_matrices()
        with spy as svd:
            rep, sigmas = _verify_with(fw, None, {})
        assert rep.group_name == group
        assert len(sigmas) < matrices(svd) <= paths
        _assert_split_matches_unsplit(fw, None, {})

    def test_turned_grid_stays_whole(self):
        # Turned by 30 degrees no bar is axis-aligned, so each block is one
        # component and takes one dense SVD, with the unsplit route's counts.
        grid = catalog._pinned_quad_grid(34, 33)
        fw = _turned(grid, 30.0)
        spy, matrices = _count_svd_matrices()
        with spy as svd:
            rep, sigmas = _verify_with(fw, None, {})
        assert matrices(svd) == len(sigmas) == 4
        want = verify(grid)
        assert (rep.rank, rep.s, rep.m, rep.s_by_irrep) == (want.rank, want.s, want.m, want.s_by_irrep)
        _assert_split_matches_unsplit(fw, None, {})

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_ring_cnv_counts_are_frozen(self, seed):
        # The benchmark's C16v web under every seed its runs may use, with
        # the default gate and with every block labelled.
        workloads = _workloads()
        fw = workloads.ring_cnv(seed)
        for patches in ({}, ALWAYS_SPLIT):
            rep, _ = _verify_with(fw, None, patches)
            assert workloads.check_verification(workloads.FROZEN["ring-cnv"], rep) == []

    @pytest.mark.parametrize("link", [1e-300, 5e-324, -1e-20])
    def test_any_non_zero_links_components(self, link):
        # Two random blocks joined by one entry, however small: one
        # component, so one SVD sees the linking entry.
        rng = np.random.default_rng(7)
        block = np.zeros((70, 66))
        block[:40, :30] = rng.standard_normal((40, 30))
        block[40:, 30:] = rng.standard_normal((30, 36))
        block[5, 50] = link
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, mock.patch.object(numeric, "_SPLIT_MIN", 1):
            sv = numeric._singular_values(*_triples(block))
        assert any((call.args[0] == link).any() for call in svd.call_args_list)
        np.testing.assert_allclose(sv, _dense_singular_values(*_triples(block)), rtol=0, atol=1e-12 * sv[0])

    def test_permuted_block_diagonal_matrix(self):
        # Components of several shapes (tall, wide, square), an empty row and
        # an empty column, in shuffled rows and columns: the dense SVD's
        # values, the structural zeros exact.
        rng = np.random.default_rng(3)
        shapes = [(5, 3), (3, 5), (4, 4), (5, 3), (1, 1)]
        block = np.zeros((sum(r for r, _ in shapes) + 1, sum(c for _, c in shapes) + 1))
        r0 = c0 = 0
        for r, c in shapes:
            block[r0:r0 + r, c0:c0 + c] = rng.standard_normal((r, c))
            r0, c0 = r0 + r, c0 + c
        block = block[rng.permutation(block.shape[0])][:, rng.permutation(block.shape[1])]
        with mock.patch.object(numeric, "_SPLIT_MIN", 1):
            sv = numeric._singular_values(*_triples(block))
        want = _dense_singular_values(*_triples(block))
        assert sv.shape == want.shape == (17,)
        np.testing.assert_allclose(sv, want, rtol=0, atol=1e-12 * sv[0])
        # 3 + 3 + 4 + 3 + 1 values from the components, 3 exact zeros.
        assert np.count_nonzero(sv == 0.0) == 3

    def test_pieces_follow_exact_zeros(self):
        # C2v on the four corners of a rectangle: every operation matrix is
        # diagonal, so the x and the y coordinates are two pieces, each with
        # a 1 x 1 Gram matrix.  An entry of 1e-300 in place of one exact
        # zero links them into one piece, with a 2 x 2 Gram matrix.  Either
        # way the bases span the dense projectors' images.
        perms = np.array([[0, 1, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0], [1, 0, 3, 2]])
        mats = np.array([np.eye(2), -np.eye(2), np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])
        coeff = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 4
        for link, shape in ((1e-300, (4, 1, 2, 2)), (0.0, (4, 2, 1, 1))):
            linked = mats.copy()
            linked[2, 0, 1] = link
            with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
                bases = numeric._isotypic_bases(perms, linked, coeff, False)
            assert [call.args[0].shape for call in eigh.call_args_list] == [shape]
            _assert_same_projectors(bases, _projector_bases(perms, linked, coeff), 8)
            assert sum(len(values) for parts in bases for _, values in parts) == 8


# ---------------------------------------------------------------------------
# Triples against the dense split: each block scattered densely by one
# bincount, its exact non-zeros labelled, and each component's sub-block
# gathered from the dense block, rows and columns ascending.
# ---------------------------------------------------------------------------


def _dense_split(rows, cols, at, values):
    """(the matrices handed to ``np.linalg.svd``, the sorted singular values)
    of the route that scatters each block densely and then splits it."""
    block = _densify(rows, cols, at, values)
    if not block.size:
        return [], np.zeros(0)
    if min(rows, cols) < numeric._SPLIT_MIN:
        return [block], np.linalg.svd(block, compute_uv=False)
    r, c = np.divmod(np.flatnonzero(block != 0), cols)
    heads, piece = np.unique(numeric._components(r, rows + c, rows + cols), return_inverse=True)
    sides = (piece[:rows], piece[rows:])
    members = [np.argsort(side, kind="stable") for side in sides]
    shape = np.stack([np.bincount(side, minlength=len(heads)) for side in sides], axis=1)
    full = shape.min(axis=1) > 0
    if np.count_nonzero(full) == 1:
        return [block], np.linalg.svd(block, compute_uv=False)
    starts = np.cumsum(shape, axis=0) - shape
    stacks, sigmas = [], [np.zeros(min(rows, cols) - int(shape.min(axis=1).sum()))]
    for nr, nc in np.unique(shape[full], axis=0):
        same = np.flatnonzero((shape == (nr, nc)).all(axis=1))
        sub_rows = members[0][starts[same, :1] + np.arange(nr)]
        sub_cols = members[1][starts[same, 1:] + np.arange(nc)]
        stacks.append(block[sub_rows[:, :, None], sub_cols[:, None, :]])
        sigmas.append(np.linalg.svd(stacks[-1], compute_uv=False).ravel())
    return stacks, np.sort(np.concatenate(sigmas))[::-1]


def _assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _assert_triples_match_dense_split(rows, cols, at, values):
    """``numeric._singular_values`` hands ``np.linalg.svd`` bitwise the
    dense split's matrices, in the same order, and returns bitwise its
    singular values."""
    want_stacks, want = _dense_split(rows, cols, at, values)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        got = numeric._singular_values(rows, cols, at, values)
    stacks = [call.args[0] for call in svd.call_args_list]
    assert len(stacks) == len(want_stacks)
    for stack, want_stack in zip(stacks, want_stacks):
        _assert_bitwise_equal(stack, want_stack)
    _assert_bitwise_equal(got, want)
    return stacks


def _linked_pair(extra):
    """Two random blocks, 40 x 30 and 30 x 36, as triples of every entry,
    and the triples ``extra`` at row 5, column 50, in the given order."""
    rng = np.random.default_rng(7)
    block = np.zeros((70, 66))
    block[:40, :30] = rng.standard_normal((40, 30))
    block[40:, 30:] = rng.standard_normal((30, 36))
    rows, cols, at, values = _triples(block)
    return rows, cols, np.append(at, [5 * cols + 50] * len(extra)), np.append(values, extra)


def _grid_blocks(fw, spec):
    """The triples of every adapted block of ``fw`` under ``spec``."""
    group, center = resolve_group(spec or GroupSpec("auto"), fw)
    action = symmetry_action(fw, group, center)
    table = character_table(group)
    blocks, d, _ = rigidity_rows(fw, fw.velocity_blocks)
    velocity = numeric._isotypic(fw, action, table, "velocity")
    bar = numeric._isotypic(fw, action, table, "edge")
    return list(numeric._adapted_blocks(fw, velocity, bar, blocks, d))


def _blocks_with_zero_triples(fw, velocity, bar, blocks, d):
    """``numeric._adapted_blocks`` keeping the exact-zero triples, padding
    included, as the blocks were yielded before those were dropped: irrep by
    irrep, from per-joint tables of (x, y) pairs and one einsum."""
    n = int(np.count_nonzero(fw.velocity_blocks >= 0))
    first, second = np.where(blocks < 0, n, blocks).T
    for v_parts, e_parts in zip(velocity, bar):
        (cols,), (_, joint, col, value) = numeric._entries([v_parts], 2)
        (rows,), (_, bars, row, weight) = numeric._entries([e_parts], 1)
        order = np.argsort(joint, kind="stable")
        joint, col, value = joint[order], col[order], value[order]
        count = np.bincount(joint, minlength=n)
        slot = np.arange(joint.size) - (np.cumsum(count) - count)[joint]
        at_col = np.zeros((n + 1, int(count.max(initial=0))), dtype=np.intp)
        at_val = np.zeros(at_col.shape + (2,), dtype=value.dtype)
        at_col[joint, slot], at_val[joint, slot] = col, value
        j1, j2 = first[bars], second[bars]
        at = (row * cols)[:, None] + np.hstack([at_col[j1], at_col[j2]])
        ends = np.hstack([at_val[j1], -at_val[j2]])
        pair = np.einsum("ba,bka->bk", weight.conj() * d[bars], ends)
        yield rows, cols, at.ravel(), pair.ravel()


TWO = [(30, 36), (40, 30)]
ONE = [(70, 66)]


class TestTriples:
    @pytest.mark.parametrize(
        "extra, shapes",
        [
            ((0.75, -0.75), TWO),
            ((2e-300, -1e-300), ONE),
            ((0.0,), TWO),
            ((-0.0, 0.0), TWO),
            ((1e-300, 0.5, -0.5), TWO),
            ((-0.5, 0.5, 1e-300), ONE),
        ],
        ids=["cancel", "sum-1e-300", "padding", "signed-zeros", "absorbed", "kept"],
    )
    def test_summed_triples_link_components(self, extra, shapes):
        # Components follow the sums of the triples at each entry, added in
        # the order given as bincount adds them, and not the triples: x and
        # -x link nothing, a sum of 1e-300 links, zero padding links
        # nothing, and 1e-300 + 0.5 - 0.5 is 0 in that order but 1e-300 in
        # the order -0.5 + 0.5 + 1e-300.
        with mock.patch.object(numeric, "_SPLIT_MIN", 1):
            stacks = _assert_triples_match_dense_split(*_linked_pair(extra))
        assert [stack.shape[-2:] for stack in stacks] == shapes

    def test_permuted_block_diagonal_matrix_bitwise(self):
        # Shuffled components of several shapes, with empty rows and columns,
        # every entry the sum of three triples in shuffled order.
        rng = np.random.default_rng(11)
        block = np.zeros((40, 44))
        for r0, c0, r, c in ((0, 0, 9, 7), (9, 7, 7, 9), (16, 16, 8, 8), (24, 24, 9, 7), (33, 31, 6, 12)):
            block[r0:r0 + r, c0:c0 + c] = rng.standard_normal((r, c))
        block = block[rng.permutation(40)][:, rng.permutation(44)]
        parts = rng.standard_normal((3,) + block.shape) * (block != 0)
        rows, cols, at, values = _triples(block)
        order = rng.permutation(3 * block.size)
        triples = rows, cols, np.tile(at, 3)[order], parts.reshape(3, -1).ravel()[order]
        with mock.patch.object(numeric, "_SPLIT_MIN", 1):
            stacks = _assert_triples_match_dense_split(*triples)
        assert [stack.shape for stack in stacks] == [(1, 6, 12), (1, 7, 9), (1, 8, 8), (2, 9, 7)]

    @pytest.mark.parametrize(
        "cols, rows, spec",
        [
            (34, 33, None),
            (21, 21, None),
            (21, 21, GroupSpec("Cn", 4)),
            (21, 21, GroupSpec("C1")),
        ],
        ids=["34x33-C2v", "21x21-C4v", "21x21-C4", "21x21-C1"],
    )
    def test_grid_blocks_match_dense_split(self, cols, rows, spec):
        # Every sub-block is bitwise the dense block's, and so is every
        # block's sorted singular values; the blocks are complex under C4.
        blocks = _grid_blocks(catalog._pinned_quad_grid(cols, rows), spec)
        for triples in blocks:
            stacks = _assert_triples_match_dense_split(*triples)
            # Split along the grid lines: a stack of sub-blocks, no whole block.
            assert all(stack.ndim == 3 for stack in stacks)
            assert sum(len(stack) for stack in stacks) > 1
        assert np.iscomplexobj(blocks[0][3]) == (spec is not None and spec.family == "Cn")

    @pytest.mark.parametrize(
        "make, spec",
        [
            (lambda: catalog._pinned_quad_grid(34, 33), None),
            (lambda: catalog._pinned_quad_grid(21, 21), None),
            (lambda: catalog._pinned_quad_grid(21, 21), GroupSpec("Cn", 4)),
            (lambda: catalog._pinned_quad_grid(21, 21), GroupSpec("C1")),
            (lambda: _ring_cnv(1), None),
        ],
        ids=["34x33-C2v", "21x21-C4v", "21x21-C4", "21x21-C1", "ring-cnv"],
    )
    def test_zero_triples_are_dropped(self, make, spec):
        # The blocks come without exact-zero triples; every other triple is
        # bitwise the einsum's over the (x, y) pairs, in the same order; and
        # every block's singular values are bitwise those of the triples with
        # the zeros, through the split and through the dense split.
        fw = make()
        group, center = resolve_group(spec or GroupSpec("auto"), fw)
        action = symmetry_action(fw, group, center)
        table = character_table(group)
        blocks, d, _ = rigidity_rows(fw, fw.velocity_blocks)
        bases = [numeric._isotypic(fw, action, table, space) for space in ("velocity", "edge")]
        dropped = 0
        for got, want in zip_longest(
            numeric._adapted_blocks(fw, *bases, blocks, d), _blocks_with_zero_triples(fw, *bases, blocks, d)
        ):
            assert got[:2] == want[:2] and np.all(got[3] != 0)
            kept = want[3] != 0
            _assert_bitwise_equal(got[2], want[2][kept])
            _assert_bitwise_equal(got[3], want[3][kept])
            dropped += want[3].size - got[3].size
            sv = numeric._singular_values(*got)
            _assert_bitwise_equal(sv, numeric._singular_values(*want))
            _assert_bitwise_equal(sv, _dense_split(*want)[1])
        assert dropped > 0



def test_repeated_verify_calls_give_the_same_report():
    # State that outlives a call, such as a cache keyed by id() or a buffer
    # used after it was freed, would change a later report.  Each call gets a
    # freshly built framework, so freed ids come back.
    builds = (lambda: _ring_cnv(1), lambda: catalog._pinned_quad_grid(34, 33))
    first = [None, None]
    for _ in range(20):
        for k, build in enumerate(builds):
            gc.collect()
            report = json.dumps(verify(build()).to_dict())
            first[k] = first[k] or report
            assert report == first[k]


# ---------------------------------------------------------------------------
# Classification against a class-sum reference: each irrep's projector on the
# whole space, applied to the basis as per-class sums of the transformed
# basis rows, independent of the isotypic bases both verify routes share.
# ---------------------------------------------------------------------------


def _class_sum_classify(fw, group, basis, center=None, space="velocity", tol=1e-9):
    """``classify_by_irrep`` through per-class sums of the transformed basis
    rows: singular values of B P_i, with P_i = (d_i/|G|) sum_g conj(chi_i(g))
    rho(g)."""
    table = character_table(group)
    counts = {ir.label: 0 for ir in table.irreps}
    if basis.shape[0] == 0:
        return counts
    action = symmetry_action(fw, group, center, tol)
    B = numeric._orthonormal_rows(np.asarray(basis, dtype=float), numeric.RANK_TOL)
    rows = B.shape[0]
    # (g.u)_{perm(i)} = T u_i on velocities, (g.w)_{eperm(b)} = w_b on bars.
    class_sums = np.zeros((len(group.classes),) + B.shape)
    for act in action.ops:
        target = class_sums[act.class_index]
        if space == "velocity":
            perm = numeric._moving_perm(fw, act.vperm)
            moved = B.reshape(rows, -1, 2) @ act.op.matrix.T
            target.reshape(rows, -1, 2)[:, perm, :] += moved
        else:
            target[:, act.eperm] += B
    dims = np.array([ir.dim for ir in table.irreps], dtype=float)
    coeff = np.conj(table.as_matrix()) * (dims / group.order)[:, None]
    if not any(ir.is_complex for ir in table.irreps):
        coeff = coeff.real
    for t, ir in enumerate(table.irreps):
        projected = np.tensordot(coeff[t], class_sums, axes=(0, 0))
        sv = np.linalg.svd(projected, compute_uv=False)
        counts[ir.label] = int(np.sum(sv > numeric.CLASSIFY_THRESHOLD))
    if sum(counts.values()) != rows:
        raise ClassMismatch(
            f"projected dimensions {counts} sum to {sum(counts.values())}, "
            f"expected {rows}: the span is not invariant under {group.name}"
        )
    return counts


def _outcome(classify, *args, **kwargs):
    """A classification's dict, or its error as text."""
    try:
        return classify(*args, **kwargs)
    except (ClassMismatch, DegenerateSpan) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_classify_matches_class_sums(fw, group, center, tol=1e-9):
    """Self-stresses, mechanisms and rigid motions classify alike both ways;
    returns the self-stress outcome."""
    outcomes = []
    for basis, space in (
        (self_stress_basis(fw), "edge"),
        (mechanism_basis(fw), "velocity"),
        (trivial_motion_basis(fw), "velocity"),
    ):
        got = _outcome(classify_by_irrep, fw, group, basis, center, space, tol)
        assert got == _outcome(_class_sum_classify, fw, group, basis, center, space, tol)
        outcomes.append(got)
    return outcomes[0]


def _classify_cases():
    """(id, framework, group, centre, tol)."""
    yield from _reference_cases()
    entry = catalog.generate("fig12b")
    group, center = resolve_group(entry.group, entry.framework)
    yield "fig12b-moved", _moved(entry.framework, 1e-6), group, center, 1e-2
    for n in range(3, 9):
        for name, fw in ((f"ring-C{n}", _chiral_ring(n)), (f"wheel-C{n}v", _wheel(n))):
            yield (name, fw) + detect_groups(fw)[0] + (1e-9,)


def _rigid_motions(group):
    """The irreps of the rigid-body motions, whose character is tr g + det g."""
    return reduce([c.trace + c.det for c in group.classes], character_table(group))


class TestClassifyAgainstClassSums:
    @pytest.mark.parametrize("case", list(_classify_cases()), ids=lambda c: c[0])
    def test_same_counts_or_errors(self, case):
        name, fw, group, center, tol = case
        stresses = _assert_classify_matches_class_sums(fw, group, center, tol)
        # Only the moved fig12b has a self-stress span that is not invariant.
        if name == "fig12b-moved":
            assert stresses.startswith("ClassMismatch: projected dimensions")
        else:
            assert sum(stresses.values()) == self_stress_basis(fw).shape[0]

    def test_same_error_for_a_degenerate_basis(self):
        group = group_elements("Cnv", 4)
        S = self_stress_basis(SQUARE_X)
        got = _outcome(classify_by_irrep, SQUARE_X, group, np.vstack([S, S]), space="edge")
        assert got == "DegenerateSpan: basis of 2 vectors spans only 1 dimensions"
        assert got == _outcome(_class_sum_classify, SQUARE_X, group, np.vstack([S, S]), space="edge")


def _unpinned_cases():
    """(id, framework): unpinned frameworks under their detected group."""
    for name in GEOMETRIC:
        fw = catalog.generate(name).framework
        if not fw.is_pinned:
            yield name, fw
    for n in range(3, 9):
        yield f"ring-C{n}", _chiral_ring(n)
        yield f"wheel-C{n}v", _wheel(n)


def _motion_cases():
    """(id, framework, group spec or None): the catalog declared and
    detected, the benchmark's web, chiral rings, pinned grids, and a Cs
    declared about a centre on its mirror but off the centroid."""
    for name in GEOMETRIC:
        entry = catalog.generate(name)
        yield name, entry.framework, entry.group
        yield f"{name}-detected", entry.framework, None
    for seed in range(1, 11):
        yield f"ring-cnv-{seed}", _ring_cnv(seed), None
    for n in range(3, 9):
        yield f"chiral-ring-C{n}", _chiral_ring(n), None
    for cols, rows in ((6, 5), (10, 9), (7, 7)):
        yield f"grid-{cols}x{rows}", catalog._pinned_quad_grid(cols, rows), None
    yield "fig3-off-centroid", catalog.generate("fig3").framework, GroupSpec("Cs", center=(0.0, 3.0), mirror_angle_deg=90.0)


def _assert_motions_match_svd_route(fw, spec):
    """``numeric._rigid_motions`` times each irrep's dimension is the rank of
    the rigid-body motions in the irrep's whole isotypic component, the
    classification by SVD both routes used to take."""
    group, center = resolve_group(spec or GroupSpec("auto"), fw)
    action = symmetry_action(fw, group, center)
    table = character_table(group)
    whole = _whole_isotypic(fw, action, table, "velocity")
    T = trivial_motion_basis(fw)
    want = [numeric._dim_in(T, parts) for parts in whole]
    got = numeric._rigid_motions(fw, table)
    assert [ir.dim * int(t) for ir, t in zip(table.irreps, got)] == want
    assert sum(want) == len(T)


class TestRigidMotionCounts:
    @pytest.mark.parametrize("case", list(_unpinned_cases()), ids=lambda c: c[0])
    def test_both_routes_count_the_rigid_motion_character(self, case):
        _, fw = case
        group, center = detect_groups(fw)[0]
        action = symmetry_action(fw, group, center)
        table = character_table(group)
        want = {label: dim * coeff for label, dim, coeff in _rigid_motions(group).terms}
        T = trivial_motion_basis(fw)
        # The block route counts d_i times the motions' part in the even half.
        velocity = numeric._isotypic(fw, action, table, "velocity")
        block = {
            ir.label: ir.dim * numeric._dim_in(T, parts) for ir, parts in zip(table.irreps, velocity)
        }
        assert block == want
        assert classify_by_irrep(fw, group, T, center) == want

    @pytest.mark.parametrize("family, n, want", [("Cnv", 16, "A2 + E1"), ("Cnv", 4, "A2 + E")])
    def test_rigid_motion_character(self, family, n, want):
        assert str(_rigid_motions(group_elements(family, n))) == want

    @pytest.mark.parametrize("case", list(_motion_cases()), ids=lambda c: c[0])
    def test_character_matches_svd_route(self, case):
        _, fw, spec = case
        _assert_motions_match_svd_route(fw, spec)


# ---------------------------------------------------------------------------
# Generated C_n / C_nv frameworks (n <= 8), pinned and unpinned.
# ---------------------------------------------------------------------------

GENERATED = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _symmetric_frameworks(draw):
    """(framework, group spec): joint orbits of random representatives at
    distinct radii about the origin (on a mirror or not), perhaps a centre
    joint, the orbits of random representative bars, and perhaps one joint
    orbit pinned."""
    family = draw(st.sampled_from(["Cn", "Cnv"]))
    n = draw(st.integers(2 if family == "Cn" else 1, 8))
    group = group_elements(family, n)
    step = (np.pi if family == "Cnv" else 2 * np.pi) / n
    points = [np.zeros(2)] if draw(st.booleans()) else []
    orbit = [0] * len(points)
    radii = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    for k, r in enumerate(radii, start=1):
        on_mirror = family == "Cnv" and draw(st.booleans())
        angle = 0.0 if on_mirror else draw(st.floats(0.1, 0.9)) * step
        rep = 0.6 * r * np.array([np.cos(angle), np.sin(angle)])
        for op in group.operations():
            p = op.matrix @ rep
            if all(np.linalg.norm(p - q) > 1e-9 for q in points):
                points.append(p)
                orbit.append(k)
    v = len(points)
    assume(v >= 2)  # a single joint on the mirror of Cs carries no bar
    pos = np.array(points)
    perms = [
        [int(np.argmin(np.linalg.norm(pos - op.matrix @ p, axis=1))) for p in pos]
        for op in group.operations()
    ]
    bars = set()
    for _ in range(draw(st.integers(1, 8))):
        a = draw(st.integers(0, v - 1))
        b = draw(st.integers(0, v - 2))
        b += b >= a
        bars.update(tuple(sorted((perm[a], perm[b]))) for perm in perms)
    pinned = ()
    if draw(st.booleans()):
        chosen = draw(st.sampled_from(sorted(set(orbit))))
        pinned = [i for i in range(v) if orbit[i] == chosen]
    return Framework(pos, sorted(bars), pinned), GroupSpec(family, n, center=(0.0, 0.0))


class TestGeneratedFrameworks:
    @GENERATED
    @given(_symmetric_frameworks())
    def test_block_route_matches_full_route(self, case):
        fw, spec = case
        rep, ref, fell_back = _both_routes(fw, spec)
        assert not fell_back
        assert rep.passed, [c.detail for c in rep.checks if not c.passed]
        _assert_same_report(rep, ref)

    @GENERATED
    @given(_symmetric_frameworks())
    def test_blocks_match_dense_reference(self, case):
        _assert_blocks_match_dense(*case)

    @GENERATED
    @given(_symmetric_frameworks())
    def test_bases_match_orbit_by_orbit_reference(self, case):
        _assert_bases_match_reference(*case)

    @GENERATED
    @given(_symmetric_frameworks())
    def test_halves_match_whole_blocks(self, case):
        _assert_halves_match_whole_blocks(*case)
        _assert_halves_are_mirror_eigenspaces(*case)

    @GENERATED
    @given(_symmetric_frameworks())
    def test_split_matches_unsplit_route(self, case):
        _assert_split_matches_unsplit(*case)

    @GENERATED
    @given(_symmetric_frameworks())
    def test_orbit_type_key_matches_unique_rows(self, case):
        _assert_key_matches_unique_rows(*case)

    @GENERATED
    @given(_symmetric_frameworks())
    def test_rigid_motions_match_svd_route(self, case):
        _assert_motions_match_svd_route(*case)

    @GENERATED
    @given(_symmetric_frameworks())
    def test_classify_matches_class_sums(self, case):
        fw, spec = case
        _assert_classify_matches_class_sums(fw, *resolve_group(spec, fw))

    @GENERATED
    @given(_symmetric_frameworks())
    def test_detected_group_contains_generating_group(self, case):
        fw, spec = case
        order = (2 if spec.family == "Cnv" else 1) * spec.n
        assert detect_groups(fw)[0][0].order % order == 0


def _census_examples(test):
    """Every geometric catalog entry under its declared group and pinned grids
    under their detected group, as explicit examples."""
    for name in GEOMETRIC:
        entry = catalog.generate(name)
        test = example((entry.framework, entry.group))(test)
    for cols, rows in ((6, 5), (10, 9), (7, 7)):
        test = example((catalog._pinned_quad_grid(cols, rows), None))(test)
    return test


@GENERATED
@given(_symmetric_frameworks())
@_census_examples
def test_census_freedom_number_is_the_maxwell_count(case):
    # Both count maxwell_count_of(v, e, pinned), so verify and analyze take
    # k from the census alone.
    fw, spec = case
    group, center = resolve_group(spec or GroupSpec("auto"), fw)
    assert census(fw, group, center).freedom_number == maxwell_count(fw)
