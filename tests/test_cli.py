"""Command-line interface: subcommands, formats, exit codes, determinism."""

import dataclasses
import json
import subprocess
import sys
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

    @pytest.mark.parametrize(
        "name, accepts", [("fig3", "fig3 accepts no parameters"), ("fig10", "fig10 accepts: delta")]
    )
    def test_gen_unknown_parameter_names_the_accepted_ones(self, tmp_path, name, accepts):
        res = run_cli("gen", name, "--param", "x=1", "-o", str(tmp_path / "x.json"))
        assert res.returncode == 2
        assert res.stderr == f"gen: unknown parameter 'x' for {name}; {accepts}\n"
        assert not (tmp_path / "x.json").exists()

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

    def test_jobs_starts_no_more_workers_than_files(self, entry_file, monkeypatch, capsys):
        # The pool starts all max_workers processes at once, so --jobs 64 on
        # two files must ask for two.  The stand-in maps in this process.
        import concurrent.futures

        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        argv = ["analyze", str(entry_file("fig2a")), str(entry_file("fig2b", "other.json")), "--format", "json"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", "64"]) == 0
        assert asked == [2]
        assert capsys.readouterr().out == serial

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

    def test_trivial_group_holds_at_zero_tolerance(self, tmp_path):
        # The identity's image (p - c) + c of joint 0 misses p by one
        # rounding; the identity is not matched, so C1 holds at any tolerance.
        path = tmp_path / "scalene.json"
        path.write_text(framework_to_json(Framework([(0.1, 0.2), (1.3, -0.7), (2.9, 0.4)], [(0, 1), (1, 2)])))
        assert main(["analyze", str(path), "--group", "C1", "--tol-sym", "0"]) == 0


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

    def test_verify_leaves_numpy_ma_unimported(self, entry_file):
        # np.unique with no index, inverse or counts output imports numpy.ma,
        # about 12 ms and 1 MB on the first call in a process.
        if "numpy.ma" in _imports("-c", "import numpy"):
            pytest.skip("import numpy alone loads numpy.ma")
        assert "numpy.ma" not in _imports("-m", "symstress", "verify", str(entry_file("fig3")), "--format", "json")
        grid = "from symstress import catalog, verify; verify(catalog._pinned_quad_grid(34, 33))"
        assert "numpy.ma" not in _imports("-c", grid)


def _imports(*args):
    """The modules a fresh ``python -X importtime *args`` process imports."""
    res = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines() if line.startswith("import time:")}


_NUMERIC, _CATALOG, _RENDER = "symstress.numeric", "symstress.catalog", "symstress.render"
_POOL = "concurrent.futures"


class TestLoadsOnlyWhatItRuns:
    """Each command imports only the modules it runs; compiling the others
    costs a fresh process tens of ms under PYTHONDONTWRITEBYTECODE."""

    @pytest.mark.parametrize(
        "argv, loaded, unloaded",
        [
            (("analyze", "FILE", "--format", "json"), (), (_NUMERIC, _CATALOG, _RENDER, _POOL)),
            (("verify", "FILE"), (_NUMERIC,), (_CATALOG, _RENDER)),
            (("render", "FILE"), (_RENDER,), (_NUMERIC, _CATALOG)),
            (("render", "FILE", "--stress", "0"), (_RENDER, _NUMERIC), (_CATALOG,)),
            (("gen", "--list"), (_CATALOG,), (_NUMERIC, _RENDER)),
        ],
    )
    def test_command(self, entry_file, tmp_path, argv, loaded, unloaded):
        path = str(entry_file("fig2b"))  # one self-stress
        argv = [path if a == "FILE" else a for a in argv]
        modules = _imports("-m", "symstress", *argv, "-o", str(tmp_path / "out"))
        assert set(loaded) <= modules
        assert not modules & set(unloaded)

    def test_package_alone(self):
        modules = _imports("-c", "import symstress")
        assert "symstress.counting" in modules
        assert not modules & {_NUMERIC, _CATALOG, _RENDER, _POOL}


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter; it fails by raising."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


_SUBMODULES = ("errors", "framework", "symmetry", "reptheory", "counting", "numeric", "catalog", "render")


class TestPackageNames:
    """The package's names read as they did when it imported every module
    eagerly.  Each check starts from a fresh ``import symstress``."""

    def test_each_name_is_its_defining_modules_object(self):
        _run_fresh(f"""
import importlib, symstress
got = {{name: getattr(symstress, name) for name in symstress.__all__ if name != "__version__"}}
modules = [importlib.import_module("symstress." + m) for m in {_SUBMODULES!r}]
for name, value in got.items():
    home = getattr(value, "__module__", None)
    homes = [importlib.import_module(home)] if home else modules
    assert any(vars(m).get(name) is value for m in homes), name
""")

    def test_dir_covers_all(self):
        _run_fresh("import symstress; assert set(symstress.__all__) <= set(dir(symstress))")

    def test_star_import_binds_all(self):
        _run_fresh("""
import symstress
ns = {}
exec("from symstress import *", ns)
assert set(symstress.__all__) <= set(ns), set(symstress.__all__) - set(ns)
""")

    def test_submodules_after_import(self):
        _run_fresh("""
import sys, symstress
assert symstress.numeric is sys.modules["symstress.numeric"]
assert "fig3" in symstress.catalog.names()
assert symstress.render.render_svg is symstress.render_svg
""")

    def test_unknown_name(self):
        _run_fresh("""
import symstress
for name in ("OperationAction", "_full_counts"):
    assert not hasattr(symstress, name), name
try:
    symstress.OperationAction
except AttributeError as exc:
    assert str(exc) == "module 'symstress' has no attribute 'OperationAction'", exc
else:
    raise AssertionError("no AttributeError")
""")

    def test_rank_tol_is_one_object(self):
        _run_fresh("""
import symstress, symstress.counting
assert symstress.RANK_TOL is symstress.numeric.RANK_TOL is symstress.counting.RANK_TOL == 1e-10
""")

    @pytest.mark.parametrize("command", ["analyze", "verify", "render"])
    def test_tol_rank_help(self, command):
        res = run_cli(command, "--help")
        assert res.returncode == 0
        assert " ".join(res.stdout.split()).count(
            "--tol-rank TOL_RANK relative singular-value cutoff for numeric ranks (default 1e-10)"
        ) == 1


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
        # An explicit group is taken as given; building its action, which
        # render does for every group it draws, finds that joint 0 has no
        # image.
        doc = json.loads(entry_file("fig9a").read_text())
        doc["vertices"][0]["x"] += 1e-6
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(doc))
        res = run_cli("render", str(moved), "--group", "Cnv:4")
        assert res.returncode == 3
        assert res.stderr.startswith("render: not symmetric: ")
        assert "Traceback" not in res.stderr

    def test_render_without_highlight_still_checks_the_group(self, entry_file):
        # Only the highlight used to build the group's action, so this drew
        # C3 overlays and exited 0.
        res = run_cli("render", str(entry_file("fig3")), "--group", "Cn:3", "--no-highlight")
        assert res.returncode == 3
        assert res.stderr.startswith("render: not symmetric: ")
        assert res.stdout == ""

    def test_render_checks_the_group_before_the_overlay(self, entry_file):
        # The group's action is resolved first, so a group that does not
        # hold wins over an out-of-range stress index.
        res = run_cli("render", str(entry_file("fig3")), "--group", "Cn:3", "--stress", "99")
        assert res.returncode == 3
        assert res.stderr.startswith("render: not symmetric: ")

    def test_error_payloads_through_the_process_pool(self, entry_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nonsense")
        args = ("analyze", str(entry_file("fig3")), str(bad), "--format", "json")
        serial = run_cli(*args)
        parallel = run_cli(*args, "--jobs", "2")
        assert serial.returncode == parallel.returncode == 2
        assert serial.stdout == parallel.stdout
        assert serial.stderr == parallel.stderr
        assert [doc["kind"] for doc in json.loads(parallel.stdout)] == ["analysis", "error"]

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
        message = "an unpinned framework needs at least two joints for the Maxwell count, got 1\n"
        for command in ("analyze", "verify", "render"):
            res = run_cli(command, str(path))
            assert res.returncode == 2, command
            prefix = "render: " if command == "render" else f"{path}: "
            assert res.stderr == prefix + message, command
            assert res.stdout == ""

    def test_single_unpinned_joint_is_rejected_before_the_group(self, tmp_path):
        """The Maxwell check comes before the group is resolved, for a group
        that holds (C5 about the joint) and one that does not (C5 about the
        origin, which would exit 3 as not symmetric)."""
        one = Framework([(0.5, 1.0)], [])
        declared = tmp_path / "declared.json"
        declared.write_text(framework_to_json(one, group={"family": "Cn", "n": 5, "center": [0.0, 0.0]}))
        plain = tmp_path / "plain.json"
        plain.write_text(framework_to_json(one))
        message = "an unpinned framework needs at least two joints for the Maxwell count, got 1\n"
        for path, args in ((plain, ("--group", "Cn:5")), (declared, ())):
            for command in ("analyze", "verify", "render"):
                res = run_cli(command, str(path), *args)
                assert res.returncode == 2, (path.name, command)
                prefix = "render: " if command == "render" else f"{path}: "
                assert res.stderr == prefix + message, (path.name, command)
                assert res.stdout == ""

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("option", ["--tol-sym", "--tol-rank"])
    @pytest.mark.parametrize("command", ["analyze", "verify", "render"])
    def test_bad_tolerance_is_invalid_input(self, entry_file, capsys, command, option, value):
        # --tol-rank nan used to pass verification with rank 0 and s = m = 9.
        assert main([command, str(entry_file("fig3")), f"{option}={value}"]) == 2
        assert f"argument {option}: expected a finite number >= 0, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field",
        [
            '"center": [true, 0]',
            '"center": [NaN, 0]',
            '"center": [Infinity, 0]',
            '"mirror_angle_deg": false',
            '"mirror_angle_deg": NaN',
            '"mirror_angle_deg": -Infinity',
        ],
    )
    def test_group_field_that_is_not_a_number_is_invalid_input(self, entry_file, field):
        path = entry_file("fig3")
        text = path.read_text()
        path.write_text(text.replace('"mirror_angle_deg": 90.0', field))
        assert path.read_text() != text
        for command in ("analyze", "verify", "render"):
            assert main([command, str(path)]) == 2, command

    @pytest.mark.parametrize("group", ["Cs:nan", "Cs:inf", "Cnv:2:-inf"])
    def test_non_finite_group_angle_is_invalid_input(self, entry_file, group):
        for command in ("analyze", "verify", "render"):
            assert main([command, str(entry_file("fig3")), "--group", group]) == 2, command

    def test_boolean_coordinate_is_invalid_input(self, entry_file, capsys):
        path = entry_file("fig3")
        doc = json.loads(path.read_text())
        doc["vertices"][0]["x"] = True
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 2
        assert "vertex 0 coordinates must be finite numbers" in capsys.readouterr().err

    def test_huge_declared_n(self, entry_file, capsys):
        # Never returned: every class of C_n was built before any was tested.
        path = entry_file("fig3")
        doc = json.loads(path.read_text())
        doc["group"] = {"family": "Cn", "n": 10**9}
        from_file = path.with_name("huge.json")
        from_file.write_text(json.dumps(doc))
        for args in (
            [str(path), "--group", "Cn:1000000000"],
            [str(path), "--group", "Cnv:1000000000"],
            [str(from_file)],
        ):
            assert main(["verify", *args]) == 3
            assert "joint 3 has no image match under rotation" in capsys.readouterr().err
        assert main(["analyze", str(path), "--group", "Cn:1000000000000"]) == 3
        assert "would give an off-centre joint 1000000000000 images" in capsys.readouterr().err

    def test_huge_declared_n_on_one_joint(self, tmp_path, capsys):
        # Never returned: the lone joint is at the centre, so every class of
        # C_n was built.
        path = tmp_path / "one.json"
        path.write_text(framework_to_json(Framework([(0.5, 1.0)], [], pinned=[0])))
        with mock.patch("symstress.symmetry.group_elements") as build:
            for group in ("Cn:1000000000", "Cnv:1000000000", "Cn:2"):
                assert main(["verify", str(path), "--group", group]) == 3
                n = group.split(":")[1]
                assert f"the declared group has {n} rotations" in capsys.readouterr().err
        assert not build.called

    def test_version_flag(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert "symstress" in res.stdout
