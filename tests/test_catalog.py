"""Catalog integrity: entries build, censuses match their stated counts."""

import numpy as np
import pytest

from symstress import UnknownEntry, analyze, catalog, census, resolve_group

ALL_NAMES = (
    "fig2a", "fig2b", "fig2c", "fig3",
    "fig4a", "fig4b", "fig4c",
    "fig6a", "fig6b", "fig8a", "fig8b",
    "fig9a", "fig9b", "fig10",
    "fig11a", "fig11b", "fig12a", "fig12b",
    "gridshell", "quadgrid",
)


def _census_value(cen, key):
    if key == "v":
        return cen.v
    if key == "e":
        return cen.e
    if key == "k":
        return cen.freedom_number
    if key == "v_c":
        return cen.v_c
    if key == "e_2":
        return cen.e_2
    raise KeyError(key)


def _check_expected_census(cen, expected):
    for key, want in expected.items():
        if key in ("v", "e", "k", "v_c", "e_2"):
            assert _census_value(cen, key) == want, key
        elif key == "v_sigma":
            for label, count in want.items():
                assert cen.v_sigma(label) == count, (key, label)
        elif key == "e_sigma":
            for label, count in want.items():
                assert cen.e_sigma(label) == count, (key, label)
        else:
            raise AssertionError(f"unknown census expectation key {key!r}")


class TestRegistry:
    def test_names_in_canonical_order(self):
        assert catalog.names() == ALL_NAMES

    def test_all_entries_builds_everything(self):
        entries = catalog.all_entries()
        assert [e.name for e in entries] == list(ALL_NAMES)

    def test_unknown_entry_raises(self):
        with pytest.raises(UnknownEntry):
            catalog.generate("fig99")

    def test_entries_carry_descriptions(self):
        for entry in catalog.all_entries():
            assert entry.description.strip()

    def test_census_only_flags(self):
        flags = {e.name: e.is_census_only for e in catalog.all_entries()}
        assert flags["gridshell"]
        assert not any(v for n, v in flags.items() if n != "gridshell")


class TestCensuses:
    @pytest.mark.parametrize("name", [n for n in ALL_NAMES if n != "gridshell"])
    def test_geometric_census_matches_expectation(self, name):
        entry = catalog.generate(name)
        group, center = resolve_group(entry.group, entry.framework)
        cen = census(entry.framework, group, center=center)
        _check_expected_census(cen, entry.expected_census)

    def test_gridshell_census_matches_expectation(self):
        entry = catalog.generate("gridshell")
        _check_expected_census(entry.census, entry.expected_census)

    @pytest.mark.parametrize("name", [n for n in ALL_NAMES if n != "gridshell"])
    def test_frameworks_have_stated_symmetry(self, name):
        entry = catalog.generate(name)
        rep = analyze(entry.framework, entry.group)
        assert rep.decomposition.to_dict() == dict(entry.expected_decomposition)


class TestParameters:
    def test_fig10_delta_moves_the_apex(self):
        at_special = catalog.generate("fig10")
        moved = catalog.generate("fig10", delta=0.05)
        d = moved.framework.positions - at_special.framework.positions
        assert np.count_nonzero(np.abs(d) > 1e-12) == 1  # only the apex's y

    def test_fig10_delta_changes_expectations(self):
        moved = catalog.generate("fig10", delta=0.05)
        assert moved.expected_s == 0 and moved.expected_m == 0

    def test_unknown_parameter_rejected(self):
        # The message names the entry's parameters, not its builder.
        with pytest.raises(TypeError, match="^unknown parameter 'delta' for fig3; fig3 accepts no"):
            catalog.generate("fig3", delta=1.0)
        with pytest.raises(TypeError, match="^unknown parameter 'x' for fig10; fig10 accepts: delta$"):
            catalog.generate("fig10", delta=0.0, x=1)


class TestRelations:
    def test_fig9b_is_a_stretch_of_fig9a(self):
        a = catalog.generate("fig9a").framework
        b = catalog.generate("fig9b").framework
        assert b.edges == a.edges
        np.testing.assert_allclose(b.positions[:, 0], 1.5 * a.positions[:, 0])
        np.testing.assert_allclose(b.positions[:, 1], a.positions[:, 1])

    def test_fig9a_subgroup_expectations_present(self):
        entry = catalog.generate("fig9a")
        families = [sub.group.family for sub in entry.subgroups]
        assert families == ["Cs", "Cnv"]

    def test_quadgrid_is_large_and_pinned(self):
        fw = catalog.generate("quadgrid").framework
        assert len(fw.internal_vertices) >= 550
        assert fw.num_edges >= 1100
        assert fw.is_pinned
