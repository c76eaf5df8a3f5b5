"""Numeric rank engine: bases, symmetry classification, verification."""

import json
import tracemalloc
from contextlib import ExitStack
from itertools import zip_longest
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
    numeric_rank,
    reduce,
    resolve_group,
    rigidity_matrix,
    rigidity_matrix_pinned,
    self_stress_basis,
    symmetry_action,
    trivial_motion_basis,
    verify,
    vertex_permutation,
)

from symstress.cli import main
from symstress.errors import ClassMismatch, DegenerateSpan, DimensionMismatch
from symstress.framework import rigidity_rows

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
        monkeypatch.setattr(
            numeric, "character_table", lambda g: corrupt_identity_character(character_table(g))
        )
        entry = catalog.generate("fig3")
        rep = verify(entry.framework, entry.group)
        failed = [c.name for c in rep.checks if not c.passed]
        assert failed == ["projector_resolution"]
        # Cs: the E column sums to 1 + 1/2 + 1 over |G| = 2.
        assert rep.checks[1].residual == 0.25
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
        vectors = []
        for parts in numeric._isotypic(fw, action, character_table(group), "velocity"):
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
        # One velocity and one bar basis, whichever route counts.
        assert spy["_isotypic"].call_count == 2
        assert not spy["classify_by_irrep"].called


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


def _assert_blocks_match_dense(fw, spec):
    group, center = resolve_group(spec or GroupSpec("auto"), fw)
    action = symmetry_action(fw, group, center)
    table = character_table(group)
    blocks, d, n = rigidity_rows(fw, fw.velocity_blocks)
    velocity = numeric._isotypic(fw, action, table, "velocity")
    bar = numeric._isotypic(fw, action, table, "edge")
    pairs = zip_longest(
        numeric._adapted_blocks(fw, velocity, bar, blocks, d),
        _dense_blocks(fw, velocity, bar, blocks, d),
    )
    atol = 1e-13 * numeric._max_entry(blocks, d, n)
    for block, ref_block in pairs:
        assert block.shape == ref_block.shape
        assert np.iscomplexobj(block) == np.iscomplexobj(ref_block)
        np.testing.assert_allclose(block, ref_block, rtol=0, atol=atol)
    # Counts and per-irrep counts from the dense blocks are verify's own.
    with mock.patch.object(numeric, "_adapted_blocks", _dense_blocks):
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


class TestRigidMotionCounts:
    @pytest.mark.parametrize("case", list(_unpinned_cases()), ids=lambda c: c[0])
    def test_both_routes_count_the_rigid_motion_character(self, case):
        _, fw = case
        group, center = detect_groups(fw)[0]
        action = symmetry_action(fw, group, center)
        table = character_table(group)
        want = {label: dim * coeff for label, dim, coeff in _rigid_motions(group).terms}
        T = trivial_motion_basis(fw)
        velocity = numeric._isotypic(fw, action, table, "velocity")
        block = {ir.label: numeric._dim_in(T, parts) for ir, parts in zip(table.irreps, velocity)}
        assert block == want
        assert classify_by_irrep(fw, group, T, center) == want

    @pytest.mark.parametrize("family, n, want", [("Cnv", 16, "A2 + E1"), ("Cnv", 4, "A2 + E")])
    def test_rigid_motion_character(self, family, n, want):
        assert str(_rigid_motions(group_elements(family, n))) == want


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
