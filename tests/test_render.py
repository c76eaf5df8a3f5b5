"""Deterministic SVG rendering of frameworks and overlays."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from symstress import (
    DimensionMismatch,
    GroupSpec,
    NotSymmetric,
    catalog,
    group_elements,
    mechanism_basis,
    render_svg,
    resolve_action,
    resolve_group,
    self_stress_basis,
)


from conftest import run_cli

GEOMETRIC = [n for n in catalog.names() if catalog.generate(n).framework is not None]
SVG = "{http://www.w3.org/2000/svg}"


def _entry(name):
    e = catalog.generate(name)
    group, center = resolve_group(e.group, e.framework)
    return e.framework, group, center


class TestRenderSvg:
    def test_output_is_deterministic(self):
        fw, group, center = _entry("fig3")
        assert render_svg(fw, group, center) == render_svg(fw, group, center)

    def test_document_shape(self):
        fw, group, center = _entry("fig3")
        svg = render_svg(fw, group, center, title="three bars")
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
        assert svg.endswith("</svg>\n")
        assert "<title>three bars</title>" in svg
        assert svg.count("<circle") == fw.num_vertices
        assert svg.count("<line") >= fw.num_edges

    def test_mirror_and_center_overlays(self):
        fw, group, center = _entry("fig6a")  # C2v: two mirrors + rotation
        svg = render_svg(fw, group, center)
        assert svg.count("stroke-dasharray") == 2
        assert 'id="overlays"' in svg

    def test_no_group_no_overlays(self):
        fw, _, _ = _entry("fig3")
        svg = render_svg(fw)
        assert "stroke-dasharray" not in svg

    def test_fixed_bars_highlighted(self):
        fw, group, center = _entry("fig3")  # three bars fixed by the mirror
        svg = render_svg(fw, group, center)
        assert svg.count('stroke="#e69500"') == 3
        plain = render_svg(fw, group, center, highlight_fixed=False)
        assert 'stroke="#e69500"' not in plain

    def test_stress_coloring(self):
        fw, group, center = _entry("fig2b")
        S = self_stress_basis(fw)
        svg = render_svg(fw, group, center, stress=S[0])
        # Signed tensions use the red/blue pair.
        assert 'stroke="#cc2222"' in svg and 'stroke="#2244cc"' in svg

    def test_mechanism_arrows(self):
        fw, group, center = _entry("fig2b")
        M = mechanism_basis(fw)
        svg = render_svg(fw, group, center, mechanism=M[0])
        assert 'id="mechanism"' in svg
        mech_group = svg.split('id="mechanism"', 1)[1].split("</g>", 1)[0]
        assert "<line" in mech_group
        assert 'r="2.5"' in mech_group

    def test_group_that_does_not_hold_raises_without_highlight(self):
        fw, _, center = _entry("fig3")  # Cs, not C3
        for highlight in (True, False):
            with pytest.raises(NotSymmetric):
                render_svg(fw, group_elements("Cn", 3), center, highlight_fixed=highlight)

    @pytest.mark.parametrize("name", ["fig3", "fig6a", "fig9a", "quadgrid"])
    def test_precomputed_action_draws_the_same(self, name):
        e = catalog.generate(name)
        fw, group, center = _entry(name)
        action = resolve_action(e.group, fw)
        assert render_svg(fw, group, action=action) == render_svg(fw, group, center)
        assert render_svg(fw, group, action=action, highlight_fixed=False) == render_svg(
            fw, group, center, highlight_fixed=False
        )

    @pytest.mark.parametrize("name", ["fig3", "fig9a", "quadgrid"])
    def test_trivial_action_draws_as_no_group(self, name):
        fw, _, _ = _entry(name)
        action = resolve_action(GroupSpec("C1"), fw)
        assert render_svg(fw, action=action) == render_svg(fw)

    def test_pins_drawn_as_squares(self):
        fw, group, center = _entry("quadgrid")
        svg = render_svg(fw, group, center, highlight_fixed=False)
        assert svg.count("<rect") == len(fw.pinned)

    def test_rejects_non_finite_overlay(self):
        fw, _, _ = _entry("fig3")
        bad = np.full(fw.num_edges, np.nan)
        with pytest.raises(ValueError):
            render_svg(fw, stress=bad)

    def test_wrong_overlay_length_rejected(self):
        fw, _, _ = _entry("fig3")
        with pytest.raises(Exception):
            render_svg(fw, stress=np.ones(fw.num_edges + 1))

    def test_wrong_mechanism_shape_rejected(self):
        fw, group, center = _entry("fig3")
        M = mechanism_basis(fw)[0]
        assert fw.num_vertices == 6 and M.shape == (12,)
        want = render_svg(fw, group, center, mechanism=M)
        assert render_svg(fw, group, center, mechanism=M.reshape(6, 2)) == want
        for bad in (M[:5], M.reshape(2, 6), M.reshape(3, 4), M.reshape(6, 2, 1)):
            with pytest.raises(DimensionMismatch, match="6 moving joints"):
                render_svg(fw, group, center, mechanism=bad)

    def test_title_is_escaped(self):
        fw, _, _ = _entry("fig3")
        svg = render_svg(fw, title="A & B <x>")
        assert "<title>A &amp; B &lt;x&gt;</title>" in svg
        assert ET.fromstring(svg.encode()).find(SVG + "title").text == "A & B <x>"
        assert "<title>fig3 plain title</title>" in render_svg(fw, title="fig3 plain title")

    def test_cli_title_is_well_formed(self, tmp_path):
        path = tmp_path / "fig3.json"
        assert run_cli("gen", "fig3", "-o", str(path)).returncode == 0
        res = run_cli("render", str(path), "--title", "A & B <x>")
        assert res.returncode == 0
        assert ET.fromstring(res.stdout.encode()).find(SVG + "title").text == "A & B <x>"


class TestWellFormed:
    """Every SVG the renderer writes parses as XML."""

    @pytest.mark.parametrize("name", GEOMETRIC)
    def test_catalog_entry_with_and_without_group(self, name):
        fw, group, center = _entry(name)
        for svg in (render_svg(fw), render_svg(fw, group, center)):
            assert ET.fromstring(svg.encode()).tag == SVG + "svg"

    def test_fig3_overlays(self):
        fw, group, center = _entry("fig3")
        svgs = [
            render_svg(fw, group, center, stress=self_stress_basis(fw)[0]),
            render_svg(fw, group, center, mechanism=mechanism_basis(fw)[0]),
        ]
        for svg, overlay in zip(svgs, ("bars", "mechanism")):
            root = ET.fromstring(svg.encode())
            assert root.find(f"{SVG}g[@id='{overlay}']") is not None

    # XML 1.0 holds tab, LF, CR and everything from U+0020 but the
    # surrogates, U+FFFE and U+FFFF.
    @pytest.mark.parametrize("title", ["a\tb\nc", "\x7f\x80\u00e9", "\ufffd", "\U0001f600"])
    def test_title_xml_can_hold(self, title):
        fw, _, _ = _entry("fig3")
        root = ET.fromstring(render_svg(fw, title=title).encode())
        assert root.find(SVG + "title") is not None

    @pytest.mark.parametrize("title", ["a\x01b", "\x00", "a\x1fb", "a\udcffb", "\ud800", "\ufffe", "x\uffff"])
    def test_title_xml_cannot_hold_is_rejected(self, title):
        # "a\x01b" used to give SVG that ElementTree rejects.
        fw, _, _ = _entry("fig3")
        with pytest.raises(ValueError, match="cannot be written in XML 1.0"):
            render_svg(fw, title=title)

    @pytest.mark.parametrize("title", [b"a\x01b", b"a\xffb"])
    def test_cli_title_xml_cannot_hold_is_invalid_input(self, tmp_path, title):
        # b"a\x01b" exited 0 with SVG that is not XML; b"a\xffb" (held as
        # the lone surrogate U+DCFF) ended in a UnicodeEncodeError traceback.
        path = tmp_path / "fig3.json"
        assert run_cli("gen", "fig3", "-o", str(path)).returncode == 0
        res = subprocess.run(
            [sys.executable, "-m", "symstress", "render", str(path), b"--title", title, "-o", str(tmp_path / "x.svg")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        )
        assert res.returncode == 2
        assert res.stderr.startswith("render: title character ")
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "x.svg").exists()
