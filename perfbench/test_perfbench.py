"""Tests of the benchmark itself: generator, oracle, tracer, bare checkout.

    python3 -m unittest perfbench/test_perfbench.py     (from the repository root)
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import symstress  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from symstress import catalog, cli  # noqa: E402


def _out() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def _library_result(fw):
    analysis = symstress.analyze(fw)
    return analysis, symstress.verify(fw), workloads.render(fw)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class RingGenerator(unittest.TestCase):
    def test_every_seed_gives_the_frozen_decomposition(self):
        expect = workloads.FROZEN["ring-cnv"]
        for seed in range(1, 6):
            fw = workloads.ring_cnv(seed)
            workloads.check_ring(fw)
            self.assertEqual((fw.num_vertices, fw.num_edges), (337, 960))
            report = symstress.analyze(fw)
            self.assertEqual(report.group_name, "C16v")
            self.assertEqual(report.decomposition.to_dict(), expect["decomposition"])
            self.assertEqual(report.planarity_violations, 0)

    def test_another_seed_passes_the_whole_oracle(self):
        fw = workloads.ring_cnv(7)
        problems = workloads.check_library(workloads.FROZEN["ring-cnv"], fw, *_library_result(fw))
        self.assertEqual(problems, [])

    def test_seed_changes_the_radii(self):
        a, b = workloads.ring_cnv(1), workloads.ring_cnv(2)
        self.assertEqual(a.edges, b.edges)
        self.assertFalse((a.positions == b.positions).all())


class Oracle(unittest.TestCase):
    def test_grid_with_one_bar_removed_is_caught(self):
        grid = workloads.grid_pinned()
        fw = symstress.Framework(grid.positions, grid.edges[:-1], grid.pinned)
        problems = workloads.check_library(workloads.FROZEN["grid-pinned"], fw, *_library_result(fw))
        self.assertTrue(any(p.startswith("s:") for p in problems), problems)
        self.assertTrue(any(p.startswith("analyze group") for p in problems), problems)

    def test_tampered_report_is_caught(self):
        fw = workloads.ring_cnv(1)
        analysis, verification, svg = _library_result(fw)
        wrong = dataclasses.replace(verification, m=verification.m + 1)
        problems = workloads.check_library(workloads.FROZEN["ring-cnv"], fw, analysis, wrong, svg)
        self.assertEqual(problems, ["m: got 17, expected 16"])
        problems = workloads.check_library(
            workloads.FROZEN["ring-cnv"], fw, analysis, verification, svg.replace("<circle", "<rect", 1))
        self.assertEqual(problems, [])  # still one element per joint
        problems = workloads.check_library(
            workloads.FROZEN["ring-cnv"], fw, analysis, verification, svg[: len(svg) // 2])
        self.assertTrue(problems and problems[0].startswith("svg does not parse"))

    def test_cli_answers(self):
        with tempfile.TemporaryDirectory(dir=_out()) as tmp:
            wl = workloads.CliWorkload(1, Path(tmp))
            entry = wl.entries["fig9a"]
            path = str(wl.paths["fig9a"])
            for command in workloads.CLI_COMMANDS:
                code, out = _cli(wl._argv(command, "fig9a"))
                self.assertEqual(workloads.check_cli(entry, command, code, out), [], command)
            code, out = _cli(["verify", "--format", "json", path])
            doc = json.loads(out)
            doc["counts"]["self_stresses"] += 1
            self.assertEqual(len(workloads.check_cli(entry, "verify", code, json.dumps(doc))), 1)
            self.assertEqual(len(workloads.check_cli(entry, "render", 0, "<svg/>")), 1)
            self.assertEqual(workloads.check_cli(entry, "analyze", 5, ""), ["analyze exit code: got 5, expected 0"])


class Tracing(unittest.TestCase):
    def test_spans_self_times_and_restore(self):
        fw = catalog.generate("fig9a").framework
        original = symstress.verify
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(symstress.verify, original)
            self.assertIs(symstress.numeric.vertex_permutation, symstress.symmetry.vertex_permutation)
            with tr.span("op"):
                symstress.verify(fw)
        finally:
            tr.uninstall()
        self.assertIs(symstress.verify, original)
        self.assertFalse(hasattr(symstress.numeric.vertex_permutation, "__wrapped__"))

        summary = tracer.summarize(tr.spans, "op")
        self.assertEqual(summary["roots"], 1)
        self.assertAlmostEqual(sum(summary["self_s"].values()), summary["root_s"], places=9)
        verify = next(span for span in tr.spans if span[0] == "numeric.verify")
        self.assertEqual(summary["program_s"], verify[2] - verify[1])
        self.assertEqual(summary["calls"]["numeric.verify"], 1)
        self.assertEqual(summary["verify_group_ops"], 8)  # C4v
        self.assertGreater(summary["calls"]["numeric.svd"], 0)
        self.assertEqual(summary["verify_vperm_calls"], summary["calls"]["symmetry.vertex_permutation"])


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=_out()) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ring-cnv", "--seconds", "1"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
