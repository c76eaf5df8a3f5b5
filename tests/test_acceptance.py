"""Acceptance gate: one test per shipping criterion.

Every criterion pins exact integers, explicit tolerances, and a time budget.
Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Tolerances used below:

* symbolic results are exact integers (no tolerance);
* trigonometric identity and numeric residuals: 1e-9;
* per-criterion wall-clock budgets: 1 s per desk-scale analysis, 5 s per
  desk-scale verification, 10 s for the census sweep and for the large grid.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from symstress import (
    GroupSpec,
    affine_map,
    all_entries,
    analyze,
    analyze_census,
    cross_check,
    generate,
    make_census,
    numeric_rank,
    rigidity_matrix,
    self_stress_basis,
    trig_sum,
    verify,
)
import symstress.counting as counting
from symstress.cli import main as cli_main

from conftest import run_cli, write_entry

RESIDUAL_CAP = 1e-9
TRIG_TOL = 1e-9

CHECK_NAMES = (
    "intertwining",
    "projector_resolution",
    "count_identity",
    "per_irrep_identity",
    "detected_lower_bound",
)


def _nz(by_irrep):
    """Drop zero entries so sparse expectations compare cleanly."""
    return {label: count for label, count in by_irrep.items() if count}


# ---------------------------------------------------------------------------
# Criterion 1: benchmark decompositions, exact integer equality, < 1 s each
# ---------------------------------------------------------------------------

def test_criterion_1_benchmark_decompositions():
    geometric = {
        "fig4a": {"A'": 0, "A''": -1},
        "fig4b": {"A'": -2, "A''": 1},
        "fig4c": {"A'": -1, "A''": 2},
        "fig6a": {"A1": -2, "A2": 1, "B1": -1, "B2": 0},
        "fig6b": {"A1": -3, "A2": 1, "B1": -1, "B2": -1},
        "fig8a": {"A1": -2, "A2": 1, "B1": -1, "B2": 1, "E": -1},
        "fig8b": {"A1": -4, "A2": 1, "B1": -1, "B2": -1, "E": -3},
    }
    for name, expected in geometric.items():
        entry = generate(name)
        start = time.perf_counter()
        report = analyze(entry.framework, entry.group)
        elapsed = time.perf_counter() - start
        assert report.decomposition.to_dict() == expected, name
        assert elapsed < 1.0, f"{name} took {elapsed:.3f} s"

    # The same framework analysed under two subgroups of its full symmetry.
    fw9 = generate("fig9a").framework
    subgroup_cases = (
        (GroupSpec("Cs", 1, mirror_angle_deg=90.0), {"A'": -8, "A''": -1}),
        (
            GroupSpec("Cnv", 2, mirror_angle_deg=0.0),
            {"A1": -6, "A2": 1, "B1": -2, "B2": -2},
        ),
    )
    for spec, expected in subgroup_cases:
        start = time.perf_counter()
        report = analyze(fw9, spec)
        elapsed = time.perf_counter() - start
        assert report.decomposition.to_dict() == expected, spec.family
        assert elapsed < 1.0

    # Census-only gridshell form diagram (pinned C2v, k = 4).
    gridshell = generate("gridshell")
    start = time.perf_counter()
    report = analyze_census(gridshell.census)
    elapsed = time.perf_counter() - start
    assert report.k == 4
    assert report.decomposition.to_dict() == {
        "A1": -5, "A2": 6, "B1": 5, "B2": -2,
    }
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: fig9a under its full C4v symmetry
# ---------------------------------------------------------------------------

def test_criterion_2_fig9a_full_symmetry():
    entry = generate("fig9a")
    report = analyze(entry.framework, entry.group)

    # Both routes computed and agreed (a disagreement raises CrossCheckFailure
    # inside analyze; closed_form_used records that the case table was hit).
    assert report.closed_form_used

    # The coefficients below are the unique values satisfying the identity
    # sum_i dim_i * gamma_i = k = -9 for this census; a hand tally whose
    # coefficients sum to -11 cannot be a valid decomposition and is rejected
    # by the closed-form/reduction cross-check.
    assert report.k == -9
    assert report.decomposition.to_dict() == {
        "A1": -5, "A2": 2, "B1": -1, "B2": -1, "E": -2,
    }
    assert report.decomposition.total == -9
    assert report.s_detected == 11

    # The numerics independently find exactly the 11 detected self-stresses.
    vrep = verify(entry.framework, entry.group)
    assert vrep.s == 11
    assert vrep.passed


# ---------------------------------------------------------------------------
# Criterion 3: random census sweep, closed form == reduction, < 10 s total
# ---------------------------------------------------------------------------

def _census(family, n, **counts):
    """``make_census``, or None for an unpinned draw with fewer than two
    joints, which has no Maxwell count and must raise ValueError."""
    if not counts.get("pinned") and counts["v"] < 2:
        with pytest.raises(ValueError, match="at least two joints"):
            make_census(family, n, **counts)
        return None
    return make_census(family, n, **counts)


def _sample_cs(rng, pinned=False):
    v_s, a, b, e_s = (int(x) for x in rng.integers(0, 12, 4))
    return _census(
        "Cnv", 1, v=v_s + 2 * a, e=e_s + 2 * b, pinned=pinned,
        v_sigma=v_s, e_sigma=e_s,
    )


def _sample_c2(rng, pinned=False):
    v_c, e_2 = ((0, 0), (0, 1), (1, 0))[int(rng.integers(0, 3))]
    a, b = (int(x) for x in rng.integers(0, 15, 2))
    return _census(
        "Cn", 2, v=v_c + 2 * a, e=e_2 + 2 * b, pinned=pinned, v_c=v_c, e_2=e_2
    )


def _sample_cn(rng, n):
    v_c = int(rng.integers(0, 2))
    a, b = (int(x) for x in rng.integers(0, 10, 2))
    return _census("Cn", n, v=v_c + n * a, e=n * b, v_c=v_c)


def _sample_c2v(rng, pinned=False):
    v_c, e_2 = ((0, 0), (0, 1), (1, 0))[int(rng.integers(0, 3))]
    a_h, a_v, b, c_h, c_v, f = (int(x) for x in rng.integers(0, 8, 6))
    return _census(
        "Cnv", 2,
        v=v_c + 2 * a_h + 2 * a_v + 4 * b,
        e=e_2 + 2 * c_h + 2 * c_v + 4 * f,
        pinned=pinned, v_c=v_c, e_2=e_2,
        v_sigma=(v_c + 2 * a_h, v_c + 2 * a_v),
        e_sigma=(e_2 + 2 * c_h, e_2 + 2 * c_v),
    )


def _sample_c3v(rng):
    v_c = int(rng.integers(0, 2))
    a, b, c, f = (int(x) for x in rng.integers(0, 8, 4))
    return _census(
        "Cnv", 3, v=v_c + 3 * a + 6 * b, e=3 * c + 6 * f,
        v_c=v_c, v_sigma=v_c + a, e_sigma=c,
    )


def _sample_c4v(rng):
    v_c = int(rng.integers(0, 2))
    a_v, a_d, b, c_v, c_d, f = (int(x) for x in rng.integers(0, 6, 6))
    return _census(
        "Cnv", 4,
        v=v_c + 4 * a_v + 4 * a_d + 8 * b,
        e=4 * c_v + 4 * c_d + 8 * f,
        v_c=v_c,
        v_sigma=(v_c + 2 * a_v, v_c + 2 * a_d),
        e_sigma=(2 * c_v, 2 * c_d),
    )


def test_criterion_3_census_sweep():
    rng = np.random.default_rng(20260814)
    samplers = [
        ("Cs", lambda r: _sample_cs(r)),
        ("C2", lambda r: _sample_c2(r)),
        ("C3", lambda r: _sample_cn(r, 3)),
        ("C4", lambda r: _sample_cn(r, 4)),
        ("C5", lambda r: _sample_cn(r, 5)),
        ("C6", lambda r: _sample_cn(r, 6)),
        ("C7", lambda r: _sample_cn(r, 7)),
        ("C8", lambda r: _sample_cn(r, 8)),
        ("C2v", lambda r: _sample_c2v(r)),
        ("C3v", _sample_c3v),
        ("C4v", _sample_c4v),
        ("Cs pinned", lambda r: _sample_cs(r, pinned=True)),
        ("C2 pinned", lambda r: _sample_c2(r, pinned=True)),
        ("C2v pinned", lambda r: _sample_c2v(r, pinned=True)),
    ]
    start = time.perf_counter()
    for family, sampler in samplers:
        for _ in range(1000):
            cen = sampler(rng)
            if cen is None:  # rejected by make_census, checked in _census
                continue
            # cross_check raises CrossCheckFailure on any disagreement and
            # NonIntegerMultiplicity on any non-integral coefficient.
            reduced, closed = cross_check(cen)
            assert closed is not None, family
            assert reduced.total == cen.freedom_number, family
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# Criterion 4: rotation-character sum identity
# ---------------------------------------------------------------------------

def test_criterion_4_trig_sum_identity():
    for n in range(3, 25):
        for t in range(1, n):
            expected = n / 2 if t in (1, n - 1) else 0.0
            assert abs(trig_sum(n, t) - expected) < TRIG_TOL, (n, t)


# ---------------------------------------------------------------------------
# Criterion 5: numeric verification of every geometric catalog entry, < 5 s
# ---------------------------------------------------------------------------

def test_criterion_5_numeric_verification_catalog():
    entries = [entry for entry in all_entries() if not entry.is_census_only]
    assert entries, "catalog has no geometric entries"
    for entry in entries:
        start = time.perf_counter()
        report = verify(entry.framework, entry.group)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{entry.name} took {elapsed:.3f} s"

        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        assert report.passed, (
            entry.name,
            [(c.name, c.detail) for c in report.checks if not c.passed],
        )
        by_name = {c.name: c for c in report.checks}
        assert by_name["intertwining"].residual < RESIDUAL_CAP, entry.name
        assert by_name["projector_resolution"].residual < RESIDUAL_CAP, entry.name

        # Count identities hold exactly.
        assert report.m - report.s == report.k, entry.name
        assert report.s_by_irrep is not None and report.m_by_irrep is not None
        for label, dim, gamma in report.decomposition.terms:
            diff = report.m_by_irrep[label] - report.s_by_irrep[label]
            assert diff == dim * gamma, (entry.name, label)

        # Frozen expectations.
        if entry.expected_s is not None:
            assert report.s == entry.expected_s, entry.name
        if entry.expected_m is not None:
            assert report.m == entry.expected_m, entry.name
        if entry.expected_rank is not None:
            assert report.rank == entry.expected_rank, entry.name
        if entry.expected_s_by_irrep is not None:
            assert _nz(report.s_by_irrep) == dict(entry.expected_s_by_irrep)
        if entry.expected_m_by_irrep is not None:
            assert _nz(report.m_by_irrep) == dict(entry.expected_m_by_irrep)


# ---------------------------------------------------------------------------
# Criterion 6: special-position dichotomies
# ---------------------------------------------------------------------------

def test_criterion_6_special_position_dichotomies():
    # fig10 at the special position carries an equisymmetric pair: one
    # self-stress and one mechanism, both in A' of the mirror group, so the
    # count (which sees only their difference) is identically zero.
    special = generate("fig10")
    rep = verify(special.framework, special.group)
    assert (rep.s, rep.m) == (1, 1)
    assert _nz(rep.s_by_irrep) == {"A'": 1}
    assert _nz(rep.m_by_irrep) == {"A'": 1}
    assert set(rep.decomposition.to_dict().values()) == {0}
    assert rep.passed

    # Nudging one joint along the mirror line removes both.
    generic = generate("fig10", delta=0.05)
    rep = verify(generic.framework, generic.group)
    assert (rep.s, rep.m) == (0, 0)
    assert rep.passed

    # fig11: isostatic at drawn positions ...
    iso = generate("fig11a")
    rep = verify(iso.framework, iso.group)
    assert (rep.s, rep.m) == (0, 0)
    assert rep.passed

    # ... but the special (Desargues) positions gain a fully-symmetric and an
    # anti-symmetric self-stress, invisible to the count (k unchanged).
    des = generate("fig11b")
    rep = verify(des.framework, des.group)
    assert rep.s == 2
    assert _nz(rep.s_by_irrep) == {"A'": 1, "A''": 1}
    assert rep.m == 2
    assert rep.passed

    # fig12: the coarse grid is stress-free with five mechanisms; the refined
    # grid at the same span gains nine independent self-stresses.
    coarse = generate("fig12a")
    rep = verify(coarse.framework, coarse.group)
    assert (rep.s, rep.m) == (0, 5)
    assert rep.passed

    fine = generate("fig12b")
    rep = verify(fine.framework, fine.group)
    assert rep.s == 9
    assert rep.m == 14
    assert rep.passed


# ---------------------------------------------------------------------------
# Criterion 7: affine invariance of the self-stress count
# ---------------------------------------------------------------------------

def test_criterion_7_affine_invariance():
    fw = generate("fig9a").framework
    stretched = affine_map(fw, np.diag([1.5, 1.0]))

    s_original = self_stress_basis(fw).shape[0]
    s_stretched = self_stress_basis(stretched).shape[0]
    assert s_original == s_stretched == 11

    assert numeric_rank(rigidity_matrix(fw)) == 61
    assert numeric_rank(rigidity_matrix(stretched)) == 61


# ---------------------------------------------------------------------------
# Criterion 8: large pinned grid, full analyze + verify < 10 s
# ---------------------------------------------------------------------------

def test_criterion_8_large_grid_performance():
    entry = generate("quadgrid")
    fw = entry.framework
    assert len(fw.internal_vertices) >= 550
    assert fw.num_edges >= 1100

    start = time.perf_counter()
    analysis = analyze(fw, entry.group)
    report = verify(fw, entry.group)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"analyze+verify took {elapsed:.2f} s"

    assert analysis.closed_form_used
    assert report.passed
    assert (report.s, report.m) == (47, 0)
    assert report.rank == 1104
    assert _nz(report.s_by_irrep) == {"A1": 24, "B1": 12, "B2": 11}


# ---------------------------------------------------------------------------
# Criterion 9: CLI contract — byte-stable output and documented exit codes
# ---------------------------------------------------------------------------

def test_criterion_9_cli_contract(tmp_path, monkeypatch):
    # gen is byte-stable.
    first = tmp_path / "gen1.json"
    second = tmp_path / "gen2.json"
    assert run_cli("gen", "fig3", "-o", str(first)).returncode == 0
    assert run_cli("gen", "fig3", "-o", str(second)).returncode == 0
    assert first.read_bytes() == second.read_bytes()

    path = write_entry(tmp_path, "fig3")

    # analyze / verify JSON reports are byte-stable; exit code 0 on success.
    runs = [run_cli("analyze", str(path), "--format", "json") for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    vruns = [run_cli("verify", str(path), "--format", "json") for _ in range(2)]
    assert all(r.returncode == 0 for r in vruns)
    assert vruns[0].stdout == vruns[1].stdout

    # render is byte-stable SVG.
    svg1 = tmp_path / "r1.svg"
    svg2 = tmp_path / "r2.svg"
    assert run_cli("render", str(path), "-o", str(svg1)).returncode == 0
    assert run_cli("render", str(path), "-o", str(svg2)).returncode == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert svg1.read_text().startswith('<?xml version="1.0" encoding="UTF-8"?>')

    # Exit 2: unreadable input.
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    assert run_cli("analyze", str(bad)).returncode == 2

    # Exit 3: requested symmetry the framework does not have.
    assert run_cli("analyze", str(path), "--group", "Cnv:4").returncode == 3

    # Exit 5: numeric verification failure (coordinates perturbed past the
    # symmetry tolerance while the census is forced with a loose tolerance).
    doc = json.loads(path.read_text())
    doc["vertices"][0]["x"] += 1e-6
    pert = tmp_path / "pert.json"
    pert.write_text(json.dumps(doc))
    res = run_cli("verify", str(pert), "--group", "Cs:90", "--tol-sym", "1e-4")
    assert res.returncode == 5

    # Exit 4: internal cross-check failure, forced in-process by skewing the
    # closed form against the reduction.
    original = counting.closed_form

    def skewed(cen):
        dec = original(cen)
        return dataclasses.replace(
            dec,
            terms=tuple((lab, dim, coeff + 1) for lab, dim, coeff in dec.terms),
        )

    monkeypatch.setattr(counting, "closed_form", skewed)
    assert cli_main(["analyze", str(path)]) == 4
