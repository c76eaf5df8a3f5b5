"""Command-line interface: subcommands, formats, exit codes, determinism."""

import dataclasses
import json
from unittest import mock

import pytest

import symstress.counting as counting
import symstress.numeric as numeric
from symstress import Framework, catalog, framework_to_json
from symstress.cli import main

from conftest import corrupt_identity_character, run_cli


class TestGen:
    def test_list_names(self):
        res = run_cli("gen", "--list")
        assert res.returncode == 0
        assert res.stdout.split() == list(catalog.names())

    def test_gen_writes_byte_stable_file(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("gen", "fig3", "-o", str(a)).returncode == 0
        assert run_cli("gen", "fig3", "-o", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["group"]["family"] == "Cs"

    def test_gen_unknown_entry_fails(self, tmp_path):
        res = run_cli("gen", "fig99", "-o", str(tmp_path / "x.json"))
        assert res.returncode == 2

    def test_gen_census_only_entry_fails(self, tmp_path):
        res = run_cli("gen", "gridshell", "-o", str(tmp_path / "x.json"))
        assert res.returncode == 2
        assert "census-only" in res.stderr

    def test_gen_with_parameter(self, tmp_path):
        out = tmp_path / "moved.json"
        res = run_cli("gen", "fig10", "--param", "delta=0.05", "-o", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        ys = [vtx["y"] for vtx in doc["vertices"]]
        assert max(ys) == pytest.approx(2.8)


class TestAnalyze:
    def test_text_output(self, entry_file):
        path = entry_file("fig3")
        res = run_cli("analyze", str(path))
        assert res.returncode == 0
        assert "Gamma(m) - Gamma(s) = -A' + A''" in res.stdout
        assert "closed form agrees" in res.stdout

    def test_json_output_schema(self, entry_file):
        path = entry_file("fig6a")
        res = run_cli("analyze", str(path), "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["schema_version"] == 1
        assert doc["kind"] == "analysis"
        assert doc["decomposition"] == {"A1": -2, "A2": 1, "B1": -1, "B2": 0}

    def test_json_output_deterministic(self, entry_file):
        path = entry_file("fig6a")
        first = run_cli("analyze", str(path), "--format", "json").stdout
        second = run_cli("analyze", str(path), "--format", "json").stdout
        assert first == second

    def test_group_from_file_wins_over_detection(self, entry_file, tmp_path):
        # fig9a is C4v-symmetric; a file stamped with the Cs subgroup must be
        # analyzed under Cs unless --group overrides it.
        entry = catalog.generate("fig9a")
        path = tmp_path / "sub.json"
        path.write_text(
            framework_to_json(
                entry.framework,
                group={"family": "Cs", "n": 1, "mirror_angle_deg": 90.0},
            )
        )
        doc = json.loads(run_cli("analyze", str(path), "--format", "json").stdout)
        assert doc["group"]["name"] == "Cs"
        assert doc["group"]["detected"] is False

    def test_explicit_group_wins_over_file(self, entry_file, tmp_path):
        entry = catalog.generate("fig9a")
        path = tmp_path / "sub.json"
        path.write_text(
            framework_to_json(
                entry.framework,
                group={"family": "Cs", "n": 1, "mirror_angle_deg": 90.0},
            )
        )
        doc = json.loads(
            run_cli(
                "analyze", str(path), "--group", "Cnv:4", "--format", "json"
            ).stdout
        )
        assert doc["group"]["name"] == "C4v"

    def test_auto_detection_marked(self, entry_file, tmp_path):
        entry = catalog.generate("fig3")
        path = tmp_path / "bare.json"
        path.write_text(framework_to_json(entry.framework))
        doc = json.loads(run_cli("analyze", str(path), "--format", "json").stdout)
        assert doc["group"]["name"] == "Cs"
        assert doc["group"]["detected"] is True

    def test_multiple_inputs_json_array(self, entry_file):
        p1, p2 = entry_file("fig2a"), entry_file("fig2b", "other.json")
        res = run_cli("analyze", str(p1), str(p2), "--format", "json")
        docs = json.loads(res.stdout)
        assert [d["input"] for d in docs] == [str(p1), str(p2)]

    def test_jobs_flag_matches_serial_output(self, entry_file):
        p1, p2 = entry_file("fig2a"), entry_file("fig2b", "other.json")
        serial = run_cli("analyze", str(p1), str(p2), "--format", "json")
        parallel = run_cli(
            "analyze", str(p1), str(p2), "--format", "json", "--jobs", "2"
        )
        assert serial.stdout == parallel.stdout

    def test_output_file(self, entry_file, tmp_path):
        path = entry_file("fig3")
        out = tmp_path / "report.json"
        res = run_cli("analyze", str(path), "--format", "json", "-o", str(out))
        assert res.returncode == 0
        assert json.loads(out.read_text())["kind"] == "analysis"

    def test_strict_planar_rejects_crossings(self, tmp_path):
        crossed = Framework(
            [(-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)],
            [(0, 1), (2, 3), (0, 2), (2, 1), (1, 3), (3, 0)],
        )
        path = tmp_path / "crossed.json"
        path.write_text(framework_to_json(crossed))
        assert run_cli("analyze", str(path)).returncode == 0
        res = run_cli("analyze", str(path), "--strict-planar")
        assert res.returncode == 2
        res_v = run_cli("verify", str(path), "--strict-planar")
        assert res_v.returncode == 2


    def test_planarity_count_ignores_symmetry_tolerance(self, tmp_path):
        # Joint 2 sits 1e-5 above the interior of bar (0, 1): a violation at
        # a loose tolerance, none at the geometric one.
        fw = Framework(
            [(0.0, 0.0), (2.0, 0.0), (1.0, 1e-5), (1.0, 1.0)],
            [(0, 1), (2, 3), (0, 3), (1, 3)],
        )
        path = tmp_path / "near.json"
        path.write_text(framework_to_json(fw))
        counts = []
        for tol in ("1e-9", "1e-3"):
            res = run_cli("analyze", str(path), "--group", "C1", "--tol-sym", tol, "--format", "json")
            assert res.returncode == 0
            counts.append(json.loads(res.stdout)["planarity_violations"])
        assert counts == [0, 0]


class TestVerifyCommand:
    def test_text_output(self, entry_file):
        res = run_cli("verify", str(entry_file("fig3")))
        assert res.returncode == 0
        assert "verification PASSED" in res.stdout

    def test_json_output(self, entry_file):
        res = run_cli("verify", str(entry_file("fig2b")), "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["kind"] == "verification"
        assert doc["passed"] is True
        assert doc["counts"]["self_stresses"] == 1


class TestRender:
    def test_svg_is_deterministic(self, entry_file, tmp_path):
        path = entry_file("fig3")
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run_cli("render", str(path), "-o", str(s1)).returncode == 0
        assert run_cli("render", str(path), "-o", str(s2)).returncode == 0
        assert s1.read_bytes() == s2.read_bytes()
        assert s1.read_text().startswith("<?xml")

    def test_stress_overlay(self, entry_file, tmp_path):
        path = entry_file("fig2b")
        out = tmp_path / "s.svg"
        res = run_cli("render", str(path), "--stress", "0", "-o", str(out))
        assert res.returncode == 0
        assert "stroke=\"#cc2222\"" in out.read_text() or "stroke=\"#2244cc\"" in out.read_text()

    def test_stress_index_out_of_range(self, entry_file, tmp_path):
        path = entry_file("fig2a")  # rigid and stress-free
        res = run_cli("render", str(path), "--stress", "0", "-o", str(tmp_path / "x.svg"))
        assert res.returncode == 2


class TestExitCodes:
    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bad": true}')
        assert run_cli("analyze", str(bad)).returncode == 2

    def test_missing_file(self):
        assert run_cli("analyze", "no-such-file.json").returncode == 2

    def test_not_symmetric_under_requested_group(self, entry_file):
        res = run_cli("analyze", str(entry_file("fig3")), "--group", "Cnv:4")
        assert res.returncode == 3
        assert "not symmetric" in res.stderr

    def test_cross_check_failure(self, entry_file, monkeypatch):
        # Force the closed form to disagree with the reduction in-process.
        original = counting.closed_form

        def skewed(cen):
            dec = original(cen)
            return dataclasses.replace(
                dec,
                terms=tuple((lab, dim, coeff + 1) for lab, dim, coeff in dec.terms),
            )

        monkeypatch.setattr(counting, "closed_form", skewed)
        path = entry_file("fig3")
        assert main(["analyze", str(path)]) == 4

    def test_verification_failure(self, entry_file, tmp_path):
        path = entry_file("fig3")
        doc = json.loads(path.read_text())
        doc["vertices"][0]["x"] += 1e-6
        pert = tmp_path / "pert.json"
        pert.write_text(json.dumps(doc))
        res = run_cli(
            "verify", str(pert), "--group", "Cs:90", "--tol-sym", "1e-4"
        )
        assert res.returncode == 5
        assert "verification FAILED" in res.stdout

    def test_verification_failure_json_comes_from_full_route(self, entry_file, tmp_path, capsys):
        # Intertwining fails, so the counts come from the full SVD: the
        # report is the one that route has always given.
        doc = json.loads(entry_file("fig3").read_text())
        doc["vertices"][0]["x"] += 1e-6
        pert = tmp_path / "pert.json"
        pert.write_text(json.dumps(doc))
        args = ["verify", str(pert), "--group", "Cs:90", "--tol-sym", "1e-4", "--format", "json"]
        with mock.patch.object(numeric, "_full_counts", wraps=numeric._full_counts) as full:
            assert main(args) == 5
        assert full.call_count == 1
        report = json.loads(capsys.readouterr().out)
        assert report["counts"] == {
            "v": 6, "e": 9, "freedom_number": 0, "rank": 9, "self_stresses": 0, "mechanisms": 0,
        }
        assert report["s_by_irrep"] == report["m_by_irrep"] == {"A'": 0, "A''": 0}
        assert [c["passed"] for c in report["checks"]] == [False, True, True, False, False]
        assert report["checks"][0]["residual"] == 1.000000000139778e-06

    def test_render_under_a_group_that_is_not_a_symmetry(self, entry_file, tmp_path):
        # An explicit group is taken as given; mapping the bars for the
        # highlight finds that joint 0 has no image.
        doc = json.loads(entry_file("fig9a").read_text())
        doc["vertices"][0]["x"] += 1e-6
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(doc))
        res = run_cli("render", str(moved), "--group", "Cnv:4")
        assert res.returncode == 3
        assert res.stderr.startswith("render: not symmetric: ")
        assert "Traceback" not in res.stderr

    def test_coincident_joints_are_invalid_input(self, tmp_path):
        fw = Framework([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0)], [(0, 1), (1, 2), (2, 3)])
        path = tmp_path / "twice.json"
        path.write_text(framework_to_json(fw))
        for command in ("analyze", "verify", "render"):
            res = run_cli(command, str(path), "--group", "C1")
            assert res.returncode == 2, command
            assert "joints 1 and 3 coincide at (1, 0)" in res.stderr

    def test_single_unpinned_joint_is_invalid_input(self, tmp_path):
        path = tmp_path / "onejoint.json"
        path.write_text(framework_to_json(Framework([(0.5, 1.0)], [])))
        for command in ("analyze", "verify"):
            res = run_cli(command, str(path))
            assert res.returncode == 2, command
            assert "an unpinned framework needs at least two joints" in res.stderr
            assert "Traceback" not in res.stderr

    def test_single_pinned_joint_verifies(self, tmp_path):
        path = tmp_path / "onepinned.json"
        path.write_text(framework_to_json(Framework([(0.5, 1.0)], [], pinned=[0])))
        res = run_cli("verify", str(path))
        assert res.returncode == 0
        assert "verification PASSED" in res.stdout

    def test_corrupted_character_table_fails_verification(self, entry_file, monkeypatch, capsys):
        original = numeric.character_table
        monkeypatch.setattr(
            numeric, "character_table", lambda g: corrupt_identity_character(original(g))
        )
        assert main(["verify", str(entry_file("fig3"))]) == 5
        assert "check projector_resolution: FAIL" in capsys.readouterr().out

    def test_error_payload_in_json_mode(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nonsense")
        res = run_cli("analyze", str(bad), "--format", "json")
        assert res.returncode == 2
        doc = json.loads(res.stdout)
        assert doc["kind"] == "error"
        assert doc["exit_code"] == 2

    def test_version_flag(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert "symstress" in res.stdout
