"""Closed-form case tables, cross-checking, and the analysis report."""

import dataclasses

import numpy as np
import pytest

import symstress.counting as counting
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
)


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

    def test_wrong_explicit_group_raises(self):
        entry = catalog.generate("fig3")
        from symstress import NotSymmetric

        with pytest.raises(NotSymmetric):
            analyze(entry.framework, GroupSpec("Cnv", 4))
