"""Closed-form case tables, cross-checking, and the analysis report."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

import symstress.counting as counting
import symstress.numeric as numeric
import symstress.reptheory as reptheory
from symstress import (
    CrossCheckFailure,
    DivisibilityViolation,
    Framework,
    GroupSpec,
    ParityViolation,
    UnsupportedGroup,
    analyze,
    analyze_census,
    catalog,
    closed_form,
    cross_check,
    make_census,
    verify,
)
from test_numeric import _ring_cnv


def _hexagon_ring():
    ang = np.arange(6) * np.pi / 3
    inner = np.c_[np.cos(ang), np.sin(ang)]
    pos = np.vstack([inner, 2 * inner])
    edges = (
        [(i, (i + 1) % 6) for i in range(6)]
        + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
        + [(i, 6 + i) for i in range(6)]
    )
    return Framework(pos, edges)


def _tables_built(fn, fw):
    """How many character tables ``fn(fw)`` builds, through every module
    that binds ``character_table``."""
    with (
        mock.patch.object(reptheory, "character_table", wraps=reptheory.character_table) as a,
        mock.patch.object(counting, "character_table", wraps=counting.character_table) as b,
        mock.patch.object(numeric, "character_table", wraps=numeric.character_table) as c,
    ):
        fn(fw)
    return a.call_count + b.call_count + c.call_count


SQUARE = Framework(
    [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
)


class TestClosedForm:
    def test_c1_single_coefficient(self):
        cen = make_census("Cn", 1, v=5, e=6)
        assert closed_form(cen).to_dict() == {"A": 2 * 5 - 6 - 3}

    def test_cs_split(self):
        cen = make_census("Cnv", 1, v=6, e=9, v_sigma=2, e_sigma=3)
        assert closed_form(cen).to_dict() == {"A'": -1, "A''": 1}

    def test_cs_pinned_split(self):
        cen = make_census("Cnv", 1, v=4, e=6, pinned=True, v_sigma=2, e_sigma=2)
        # k = 2 and e_sigma = 2: (k - e)/2 = 0 symmetric, (k + e)/2 = 2.
        assert closed_form(cen).to_dict() == {"A'": 0, "A''": 2}

    def test_c2_centre_joint_shifts_split(self):
        plain = make_census("Cn", 2, v=4, e=4)
        joint = make_census("Cn", 2, v=5, e=6, v_c=1)
        assert closed_form(plain).to_dict() == {"A": 1, "B": 0}
        assert closed_form(joint).to_dict() == {"A": 0, "B": 1}

    def test_cn_rotation_collapse(self):
        cen = make_census("Cn", 3, v=6, e=9)
        dec = closed_form(cen).to_dict()
        # k = 0: base (k+3)/3 = 1 with the three shifted labels reduced.
        assert dec == {"A0": 0, "A1": 0, "A2": 0}
        cen2 = make_census("Cn", 3, v=7, e=9, v_c=1)
        # k = 2: base (k+1)/3 = 1, only the trivial label shifted down.
        assert closed_form(cen2).to_dict() == {"A0": 0, "A1": 1, "A2": 1}

    def test_c2v_table(self):
        cen = make_census(
            "Cnv", 2, v=16, e=24, v_sigma=(0, 0), e_sigma=(2, 2)
        )
        dec = closed_form(cen).to_dict()
        assert sum(dec.values()) == 2 * 16 - 24 - 3
        assert dec == {"A1": 1, "A2": 2, "B1": 1, "B2": 1}

    def test_c3v_table(self):
        cen = make_census("Cnv", 3, v=6, e=9, v_sigma=1, e_sigma=1)
        assert closed_form(cen).to_dict() == {"A1": 0, "A2": 0, "E": 0}

    def test_c4v_table(self):
        cen = make_census(
            "Cnv", 4, v=28, e=56, v_sigma=(0, 6), e_sigma=(6, 2)
        )
        assert closed_form(cen).to_dict() == {
            "A1": -2, "A2": 1, "B1": -1, "B2": 1, "E": -1,
        }

    def test_parity_violation(self):
        cen = make_census("Cnv", 1, v=4, e=4, e_sigma=1)  # k=1, e_sigma=1
        with pytest.raises(ParityViolation):
            closed_form(cen)

    def test_divisibility_violation(self):
        cen = make_census("Cn", 3, v=3, e=4)  # k=-1, (k+3)/3 not integral
        with pytest.raises(DivisibilityViolation):
            closed_form(cen)

    @pytest.mark.parametrize(
        "cen",
        [
            make_census("Cnv", 5, v=10, e=15, v_sigma=0, e_sigma=1),
            make_census("Cn", 3, v=6, e=9, pinned=True),
            make_census("Cn", 2, v=7, e=7, v_c=1, e_2=1),
            make_census("Cnv", 2, v=8, e=9, v_c=1, e_2=1,
                        v_sigma=(1, 1), e_sigma=(1, 1)),
        ],
    )
    def test_unsupported_census_raises(self, cen):
        with pytest.raises(UnsupportedGroup):
            closed_form(cen)


# ---------------------------------------------------------------------------
# The closed form as it was written before its preconditions were stated
# once each, kept verbatim as the reference: every census must give the same
# decomposition, or the same exception type and message.
# ---------------------------------------------------------------------------


def _reference_closed_form(cen):
    _exact_div = counting._exact_div
    group = cen.group
    table = reptheory.character_table(group)
    k = cen.freedom_number
    n = group.n
    fam = group.family
    pinned = cen.pinned

    if n == 1 and fam == "Cn":  # C1
        return reptheory.decomposition_from_counts(table, {"A": k})

    if fam == "Cnv" and n == 1:  # Cs
        e_s = cen.e_sigma()
        if pinned:
            a1 = _exact_div(k - e_s, 2, ParityViolation, "gamma(A')")
            a2 = _exact_div(k + e_s, 2, ParityViolation, "gamma(A'')")
        else:
            a1 = _exact_div(k - e_s + 1, 2, ParityViolation, "gamma(A')")
            a2 = _exact_div(k + e_s - 1, 2, ParityViolation, "gamma(A'')")
        return reptheory.decomposition_from_counts(table, {"A'": a1, "A''": a2})

    v_c, e_2 = cen.v_c, cen.e_2

    if fam == "Cn" and n == 2:  # cyclic C2
        if (v_c, e_2) not in ((0, 0), (0, 1), (1, 0)):
            raise UnsupportedGroup(f"no C2 case table for v_c={v_c}, e_2={e_2}")
        shift = {(0, 0): 1, (0, 1): 0, (1, 0): -1}[(v_c, e_2)]
        if pinned:
            shift -= 1
        a = _exact_div(k + shift, 2, ParityViolation, "gamma(A)")
        b = _exact_div(k - shift, 2, ParityViolation, "gamma(B)")
        return reptheory.decomposition_from_counts(table, {"A": a, "B": b})

    if fam == "Cn":  # cyclic C_n, n >= 3
        if pinned:
            raise UnsupportedGroup(f"no pinned closed form for {group.name}; use the reduction")
        if v_c not in (0, 1) or e_2 != 0:
            raise UnsupportedGroup(f"no {group.name} case table for v_c={v_c}, e_2={e_2}")
        if v_c == 0:
            base = _exact_div(k + 3, n, DivisibilityViolation, "(k+3)/n")
            shifted = {"A0", "A1", f"A{n - 1}"}
        else:
            base = _exact_div(k + 1, n, DivisibilityViolation, "(k+1)/n")
            shifted = {"A0"}
        counts = {ir.label: base - (1 if ir.label in shifted else 0) for ir in table.irreps}
        return reptheory.decomposition_from_counts(table, counts)

    # Cnv, n >= 2
    if n == 2:  # C2v
        e_h = cen.e_sigma("sigma_h")
        e_v = cen.e_sigma("sigma_v")
        if (v_c, e_2) not in ((0, 0), (0, 1), (1, 0)):
            raise UnsupportedGroup(f"no C2v case table for v_c={v_c}, e_2={e_2}")
        c2 = {(0, 0): 1, (0, 1): 0, (1, 0): -1}[(v_c, e_2)]
        if pinned:
            c2 -= 1
        a1 = _exact_div(k + c2 - e_h - e_v + (0 if pinned else 2), 4, ParityViolation, "gamma(A1)")
        a2 = _exact_div(k + c2 + e_h + e_v - (0 if pinned else 2), 4, ParityViolation, "gamma(A2)")
        b1 = _exact_div(k - c2 - e_h + e_v, 4, ParityViolation, "gamma(B1)")
        b2 = _exact_div(k - c2 + e_h - e_v, 4, ParityViolation, "gamma(B2)")
        return reptheory.decomposition_from_counts(table, {"A1": a1, "A2": a2, "B1": b1, "B2": b2})

    if pinned:
        raise UnsupportedGroup(f"no pinned closed form for {group.name}; use the reduction")

    if n == 3:  # C3v
        e_s = cen.e_sigma()
        if v_c not in (0, 1) or e_2 != 0:
            raise UnsupportedGroup(f"no C3v case table for v_c={v_c}, e_2={e_2}")
        if v_c == 0:
            e_coeff = _exact_div(k, 3, DivisibilityViolation, "gamma(E)")
            a1 = _exact_div(k - 3 * e_s + 3, 6, ParityViolation, "gamma(A1)")
            a2 = _exact_div(k + 3 * e_s - 3, 6, ParityViolation, "gamma(A2)")
        else:
            e_coeff = _exact_div(k + 1, 3, DivisibilityViolation, "gamma(E)")
            a1 = _exact_div(k - 3 * e_s + 1, 6, ParityViolation, "gamma(A1)")
            a2 = _exact_div(k + 3 * e_s - 5, 6, ParityViolation, "gamma(A2)")
        return reptheory.decomposition_from_counts(table, {"A1": a1, "A2": a2, "E": e_coeff})

    if n == 4:  # C4v
        e_v = cen.e_sigma("sigma_v")
        e_d = cen.e_sigma("sigma_d")
        if v_c not in (0, 1) or e_2 != 0:
            raise UnsupportedGroup(f"no C4v case table for v_c={v_c}, e_2={e_2}")
        if v_c == 0:
            e_coeff = _exact_div(k - 1, 4, DivisibilityViolation, "gamma(E)")
            shift = 3
        else:
            e_coeff = _exact_div(k + 1, 4, DivisibilityViolation, "gamma(E)")
            shift = 1
        a1 = _exact_div(k - 2 * e_v - 2 * e_d + shift, 8, ParityViolation, "gamma(A1)")
        a2 = _exact_div(k + 2 * e_v + 2 * e_d + shift - 8, 8, ParityViolation, "gamma(A2)")
        b1 = _exact_div(k - 2 * e_v + 2 * e_d + shift, 8, ParityViolation, "gamma(B1)")
        b2 = _exact_div(k + 2 * e_v - 2 * e_d + shift, 8, ParityViolation, "gamma(B2)")
        return reptheory.decomposition_from_counts(
            table, {"A1": a1, "A2": a2, "B1": b1, "B2": b2, "E": e_coeff}
        )

    raise UnsupportedGroup(f"no closed-form case table for {group.name}; use the reduction")


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  every outcome is compared
        return type(exc), str(exc)


# (family, n) of every group with a case table, and C5v, C6v and the
# C_n without one; pinned and unpinned.
_CASE_GROUPS = [("Cn", n) for n in (1, 2, 3, 4, 6)] + [("Cnv", n) for n in range(1, 7)]


def _grid_censuses():
    """About 20k censuses: every (v_c, e_2) in {0, 1, 2}^2, 24 bar counts
    (so k runs over every residue the tables divide by), and the mirror
    counts the tables read, 0-3 per class (0-2 per class for two classes)."""
    for family, n in _CASE_GROUPS:
        if family == "Cn":
            mirror_counts = [0]
        elif n % 2:
            mirror_counts = range(4)
        else:
            mirror_counts = [(a, b) for a in range(3) for b in range(3)]
        for pinned in (False, True):
            for v_c in range(3):
                for e_2 in range(3):
                    for e in range(2, 26):
                        for e_sigma in mirror_counts:
                            v_sigma = (0, 0) if isinstance(e_sigma, tuple) else 0
                            yield make_census(
                                family, n, v=7, e=e, pinned=pinned, v_c=v_c, e_2=e_2,
                                v_sigma=v_sigma, e_sigma=e_sigma,
                            )


class TestClosedFormReference:
    def test_same_outcome_on_the_census_grid(self):
        seen = set()
        count = 0
        for cen in _grid_censuses():
            got, want = _outcome(closed_form, cen), _outcome(_reference_closed_form, cen)
            if isinstance(want, tuple):
                assert got == want, (cen, want)
            else:
                assert (got.group_name, got.terms) == (want.group_name, want.terms), cen
            seen.add(want[0].__name__ if isinstance(want, tuple) else "decomposition")
            count += 1
        assert count == 19_008
        assert seen == {
            "decomposition", "ParityViolation", "DivisibilityViolation", "UnsupportedGroup"
        }

    @pytest.mark.parametrize("family, n", _CASE_GROUPS)
    def test_report_family(self, family, n):
        pair = family == "Cnv" and n % 2 == 0
        cen = make_census(family, n, v=0, e=0, pinned=True, v_sigma=(0, 0) if pair else 0, e_sigma=(0, 0) if pair else 0)
        want = {"Cn": "C1" if n == 1 else "Cn", "Cnv": "Cs" if n == 1 else "Cnv"}[family]
        assert analyze_census(cen).family == want


class TestCrossCheck:
    def test_agreement_on_catalog_censuses(self):
        for name in catalog.names():
            entry = catalog.generate(name)
            if entry.census is None:
                continue
            reduction, closed = cross_check(entry.census)
            assert closed is not None
            assert closed.to_dict() == reduction.to_dict()

    def test_unsupported_returns_none_closed_form(self):
        # Census of a doubled hexagon ring with spokes under C6v.
        cen = make_census("Cnv", 6, v=12, e=18, v_sigma=(4, 0), e_sigma=(2, 4))
        reduction, closed = cross_check(cen)
        assert closed is None
        assert reduction.total == 2 * 12 - 18 - 3
        assert reduction.to_dict() == {
            "A1": -1, "A2": 1, "B1": 1, "B2": 0, "E1": 0, "E2": 1,
        }

    def test_disagreement_raises(self, monkeypatch):
        cen = make_census("Cnv", 1, v=6, e=9, v_sigma=2, e_sigma=3)
        good = closed_form(cen)
        bad = dataclasses.replace(
            good,
            terms=tuple((lab, dim, coeff + 1) for lab, dim, coeff in good.terms),
        )
        monkeypatch.setattr(counting, "closed_form", lambda c: bad)
        with pytest.raises(CrossCheckFailure):
            cross_check(cen)


class TestAnalyze:
    def test_fig3_report(self):
        entry = catalog.generate("fig3")
        rep = analyze(entry.framework, entry.group)
        assert rep.group_name == "Cs"
        assert rep.k == 0
        assert rep.closed_form_used
        assert rep.decomposition.to_dict() == {"A'": -1, "A''": 1}
        assert rep.s_detected == 1 and rep.m_detected == 1
        assert rep.s_plain == 0 and rep.m_plain == 0
        assert str(rep.decomposition) == "-A' + A''"

    def test_auto_detection_marks_report(self):
        entry = catalog.generate("fig3")
        rep = analyze(entry.framework)  # no group given
        assert rep.detected
        assert rep.group_name == "Cs"

    def test_fallback_to_reduction_with_notice(self):
        rep = analyze(_hexagon_ring())
        assert rep.group_name == "C6v"
        assert not rep.closed_form_used
        assert any("reduction" in note for note in rep.notices)
        assert rep.decomposition.total == rep.k

    def test_k_identity_across_catalog(self):
        for name in catalog.names():
            entry = catalog.generate(name)
            if entry.framework is None:
                continue
            rep = analyze(entry.framework, entry.group)
            assert rep.decomposition.total == rep.k, name

    def test_planarity_advisory(self):
        crossed = Framework(
            [(-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)],
            [(0, 1), (2, 3), (0, 2), (2, 1), (1, 3), (3, 0)],
        )
        rep = analyze(crossed)
        assert rep.planarity_violations and rep.planarity_violations > 0
        rep2 = analyze(crossed, planarity=False)
        assert rep2.planarity_violations is None

    def test_analyze_census_only_entry(self):
        entry = catalog.generate("gridshell")
        rep = analyze_census(entry.census)
        assert rep.pinned
        assert rep.v == 553 and rep.e == 1102 and rep.k == 4
        assert rep.decomposition.to_dict() == entry.expected_decomposition
        assert rep.s_detected == 7 and rep.m_detected == 11

    def test_report_serialization_shapes(self):
        entry = catalog.generate("fig6a")
        rep = analyze(entry.framework, entry.group)
        doc = rep.to_dict(input_name="fig6a.json")
        assert doc["schema_version"] == 1
        assert doc["kind"] == "analysis"
        assert doc["input"] == "fig6a.json"
        assert doc["counts"]["freedom_number"] == rep.k
        assert set(doc["decomposition"]) == {"A1", "A2", "B1", "B2"}
        text = rep.to_text()
        assert "Gamma(m) - Gamma(s)" in text

    @pytest.mark.parametrize(
        "make",
        [lambda: catalog._pinned_quad_grid(34, 33), lambda: _ring_cnv(1), lambda: _hexagon_ring(), lambda: SQUARE],
        ids=["grid-pinned", "ring-cnv", "hexagon-ring", "square"],
    )
    def test_character_tables_built(self, make):
        # The closed form and the reduction each build one; verify builds one
        # more for its projectors and bases.
        fw = make()
        assert _tables_built(analyze, fw) == 2
        assert _tables_built(verify, fw) == 3

    def test_wrong_explicit_group_raises(self):
        entry = catalog.generate("fig3")
        from symstress import NotSymmetric

        with pytest.raises(NotSymmetric):
            analyze(entry.framework, GroupSpec("Cnv", 4))
