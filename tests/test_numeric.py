"""Numeric rank engine: bases, symmetry classification, verification."""

import numpy as np
import pytest

import symstress.numeric as numeric
import symstress.symmetry as symmetry
from symstress import (
    Framework,
    GroupSpec,
    catalog,
    character_table,
    classify_by_irrep,
    detect_groups,
    edge_permutation,
    group_elements,
    intertwining_residual,
    mechanism_basis,
    numeric_rank,
    resolve_group,
    rigidity_matrix,
    rigidity_matrix_pinned,
    self_stress_basis,
    symmetry_action,
    trivial_motion_basis,
    verify,
    vertex_permutation,
)

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

    def test_empty_basis_classifies_to_nothing(self):
        group = group_elements("Cnv", 4)
        by = classify_by_irrep(SQUARE_X, group, np.zeros((0, 12)))
        assert _nz(by) == {}


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
# Dense references: the checks as whole-matrix computations, one permutation
# per operation and consumer.  The library computes them on the bar list and
# on sparse entries, and must give the same floats.
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


def _dense_resolution(fw, group, table, center, space, tol):
    if space == "velocity":
        dim = 2 * (len(fw.internal_vertices) if fw.is_pinned else fw.num_vertices)
    else:
        dim = fw.num_edges
    total = np.zeros((dim, dim), dtype=complex)
    for cls_idx, cls in enumerate(group.classes):
        weight = sum(ir.dim * np.conj(ir.characters[cls_idx]) for ir in table.irreps)
        if weight == 0:
            continue
        for op in cls.operations:
            vperm = vertex_permutation(fw, op, center, tol)
            M = np.zeros((dim, dim))
            if space == "velocity":
                perm = _moving_perm_dense(fw, vperm) if fw.is_pinned else vperm
                M4 = M.reshape(dim // 2, 2, dim // 2, 2)
                M4[perm, :, np.arange(dim // 2), :] = op.matrix
            else:
                M[edge_permutation(fw, vperm), np.arange(dim)] = 1.0
            total += (weight / group.order) * M
    return float(np.max(np.abs(total - np.eye(dim))))


def _sloppy_square(shift):
    pos = SQUARE_X.positions.copy()
    pos[0, 0] += shift
    return Framework(pos, SQUARE_X.edges)


def _reference_cases():
    """(framework, group, centre, tol): every geometric catalog entry under
    its declared group, and a perturbed square with a non-zero residual."""
    for name in GEOMETRIC:
        entry = catalog.generate(name)
        group, center = resolve_group(entry.group, entry.framework)
        yield name, entry.framework, group, center, 1e-9
    yield "sloppy", _sloppy_square(1e-6), group_elements("Cnv", 4), np.zeros(2), 1e-4
    yield "sloppy-c4", _sloppy_square(3e-7), group_elements("Cn", 4), np.zeros(2), 1e-4


class TestAgainstDenseReferences:
    @pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda c: c[0])
    def test_bit_equal_residuals(self, case):
        _, fw, group, center, tol = case
        assert intertwining_residual(fw, group, center, tol) == _dense_intertwining(
            fw, group, center, tol
        )
        table = character_table(group)
        action = symmetry_action(fw, group, center, tol)
        for space in ("velocity", "edge"):
            assert numeric._resolution_residual(fw, action, table, space) == (
                _dense_resolution(fw, group, table, center, space, tol)
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
        entry = catalog.generate(name)
        calls = []
        original = symmetry.vertex_permutation

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(symmetry, "vertex_permutation", counting)
        rep = verify(entry.framework, entry.group)
        assert rep.passed
        assert len(calls) == resolve_group(entry.group, entry.framework)[0].order


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
    """A hub spoked to a rim cycle of n joints: C_nv symmetric."""
    rim = [(np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n)) for k in range(n)]
    edges = [(0, k + 1) for k in range(n)] + [(k + 1, (k + 1) % n + 1) for k in range(n)]
    return Framework([(0.0, 0.0)] + rim, edges)


class TestUncataloguedGroups:
    @pytest.mark.parametrize(
        "fw, name",
        [(_chiral_ring(n), f"C{n}") for n in (3, 5, 6, 7)]
        + [(_wheel(n), f"C{n}v") for n in (3, 5, 6, 7)],
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
