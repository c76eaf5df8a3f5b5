"""Workload inputs and the correctness oracle of the symstress benchmark.

Three workloads, each loading a different layer of the program:

* ``grid-pinned`` — the pinned 34x33 quad grid under C2v (1122 internal
  joints, 2311 bars).  The full SVD and the O(e^2) planarity scan dominate;
  the per-operation work is light because |G| = 4 and all irreps are 1-D.
* ``ring-cnv`` — an unpinned C16v spider web built here from orbit
  representatives (337 joints, 960 bars).  |G| = 32 and seven 2-D irreps make
  the per-operation work (permutations, intertwining, classification)
  dominate, on the unpinned path with the stacked trivial-motion SVD.
* ``cli-catalog`` — the 18 small geometric catalog entries, one fresh
  ``python -m symstress`` process per command and file, so interpreter
  start and import dominate and the in-process layers barely run.

Every answer is checked: the in-process workloads against counts frozen in
``frozen.json`` when the benchmark was defined, the CLI workload against the
catalog's own expectations and frozen SVG hashes.  A check returns a list of
problems; the caller counts an operation with any problem as failed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import symstress
from symstress import catalog, cli

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FROZEN = json.loads((HERE / "frozen.json").read_text(encoding="utf-8"))

RING_ORDER = 16
RING_COUNT = 20
GRID_SHAPE = (34, 33)
CATALOG_NAMES = tuple(n for n in catalog.names() if n not in ("gridshell", "quadgrid"))
CLI_COMMANDS = ("analyze", "verify", "render")
CHILD_TIMEOUT_S = 120.0
# Each step of an in-process op runs until its calls add up to this (see repeat).
MIN_STEP_S = 0.5


class SetupError(RuntimeError):
    """The generated inputs do not have the properties the workload needs."""


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------


def ring_cnv(seed: int) -> symstress.Framework:
    """Unpinned C16v spider web: a hub, 20 rings of 16 joints and 16 pendant
    joints outside the last ring (337 joints, 960 bars).

    Odd rings are turned by half a step, so each band between two rings is a
    strip of triangles; every ring also carries its 16 ring bars and the hub
    is spoked to the first ring.  Each pendant hangs from one joint of the last
    ring by a single radial bar.  The seed sets the radii: increments in
    [0.75, 1.25] keep them increasing fast enough (ratio above 1/cos(pi/16))
    that no bar crosses another.
    """
    n, rings = RING_ORDER, RING_COUNT
    rng = random.Random(seed)
    radii = []
    r = 0.0
    for _ in range(rings + 1):
        r += rng.uniform(0.75, 1.25)
        radii.append(r)

    def joint(ring: int, k: int) -> int:
        return 1 + ring * n + k % n

    positions = [(0.0, 0.0)]
    for ring in range(rings + 1):
        turn = min(ring, rings - 1) % 2 * math.pi / n  # pendants follow the last ring
        for k in range(n):
            angle = 2.0 * math.pi * k / n + turn
            positions.append((radii[ring] * math.cos(angle), radii[ring] * math.sin(angle)))
    edges = [(0, joint(0, k)) for k in range(n)]
    for ring in range(rings):
        edges += [(joint(ring, k), joint(ring, k + 1)) for k in range(n)]
    for ring in range(rings - 1):
        shift = -1 if ring % 2 == 0 else 1
        for k in range(n):
            edges.append((joint(ring, k), joint(ring + 1, k)))
            edges.append((joint(ring, k), joint(ring + 1, k + shift)))
    edges += [(joint(rings - 1, k), joint(rings, k)) for k in range(n)]
    return symstress.Framework(positions, edges)


def check_ring(fw: symstress.Framework) -> None:
    """Raise SetupError unless the ring is C16v-symmetric and planar."""
    group, _ = symstress.detect_groups(fw)[0]
    if group.name != f"C{RING_ORDER}v" or group.mirror_angle != 0.0:
        raise SetupError(f"ring-cnv detects {group.name} at {group.mirror_angle} rad")
    violations = symstress.check_planarity(fw)
    if violations:
        raise SetupError(f"ring-cnv has {len(violations)} planarity violations")


def grid_pinned() -> symstress.Framework:
    return catalog._pinned_quad_grid(*GRID_SHAPE)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _nonzero(counts) -> dict:
    return {k: v for k, v in (counts or {}).items() if v}


def _want(problems: list[str], what: str, got, expected) -> None:
    if got != expected:
        problems.append(f"{what}: got {got!r}, expected {expected!r}")


def check_analysis(expect: dict, analysis) -> list[str]:
    p: list[str] = []
    _want(p, "analyze group", analysis.group_name, expect["group"])
    _want(p, "analyze decomposition", analysis.decomposition.to_dict(), expect["decomposition"])
    _want(p, "closed_form_used", analysis.closed_form_used, expect["closed_form_used"])
    _want(p, "planarity violations", analysis.planarity_violations, 0)
    return p


def check_verification(expect: dict, verification) -> list[str]:
    p: list[str] = []
    _want(p, "verify group", verification.group_name, expect["group"])
    _want(p, "verify decomposition", verification.decomposition.to_dict(), expect["decomposition"])
    _want(p, "verify passed", verification.passed, True)
    _want(p, "rank", verification.rank, expect["rank"])
    _want(p, "s", verification.s, expect["s"])
    _want(p, "m", verification.m, expect["m"])
    _want(p, "s_by_irrep", verification.s_by_irrep, expect["s_by_irrep"])
    _want(p, "m_by_irrep", verification.m_by_irrep, expect["m_by_irrep"])
    return p


def check_svg(expect: dict, fw, svg: str) -> list[str]:
    p: list[str] = []
    if "svg_sha256" in expect:
        _want(p, "svg sha256", sha256(svg), expect["svg_sha256"])
        return p
    # Ring coordinates depend on the seed, so only the structure is fixed.
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    groups = {g.get("id"): len(g) for g in root if g.tag.endswith("}g")}
    _want(p, "svg bars", groups.get("bars"), fw.num_edges)
    _want(p, "svg joints", groups.get("joints"), fw.num_vertices)
    return p


def check_library(expect: dict, fw, analysis, verification, svg: str) -> list[str]:
    """Compare one analyze/verify/render result with frozen expectations."""
    return check_analysis(expect, analysis) + check_verification(expect, verification) + check_svg(expect, fw, svg)


def check_cli(entry, command: str, code: int, stdout: str) -> list[str]:
    """Compare one CLI result with the catalog entry's expectations."""
    p: list[str] = []
    _want(p, f"{command} exit code", code, 0)
    if code != 0:
        return p
    if command == "render":
        _want(p, "svg sha256", sha256(stdout), FROZEN["catalog_svg_sha256"][entry.name])
        return p
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{command} output is not JSON: {exc}"]
    _want(p, "decomposition", doc.get("decomposition"), dict(entry.expected_decomposition))
    counts = doc.get("counts", {})
    if command == "analyze":
        census = entry.expected_census
        _want(p, "v", counts.get("v"), census["v"])
        _want(p, "e", counts.get("e"), census["e"])
        _want(p, "freedom number", counts.get("freedom_number"), census["k"])
    else:
        _want(p, "passed", doc.get("passed"), True)
        _want(p, "s", counts.get("self_stresses"), entry.expected_s)
        _want(p, "m", counts.get("mechanisms"), entry.expected_m)
        _want(p, "rank", counts.get("rank"), entry.expected_rank)
        _want(p, "s_by_irrep", _nonzero(doc.get("s_by_irrep")), dict(entry.expected_s_by_irrep))
        _want(p, "m_by_irrep", _nonzero(doc.get("m_by_irrep")), dict(entry.expected_m_by_irrep))
    return p


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def timed(fn, *args):
    """(result, seconds) of one call.

    A full collection first means each call pays for the garbage it makes
    itself, not for what the previous step left; without it the render
    step's time varies by a factor of two between calls.
    """
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def repeat(fn, arg, times: list[float], min_s: float) -> list:
    """Call ``fn(arg)`` until the calls add up to ``min_s`` seconds, at least once.

    Appends each call's time to ``times`` and returns the results.  Cheap
    steps thus give several samples per op, which steadies their medians.
    """
    results = []
    spent = 0.0
    while not results or spent < min_s:
        result, seconds = timed(fn, arg)
        results.append(result)
        times.append(seconds)
        spent += seconds
    return results


def render(fw) -> str:
    """SVG of the framework with its detected group, as ``symstress render`` draws it."""
    group, center = symstress.resolve_group(symstress.GroupSpec("auto"), fw)
    return symstress.render_svg(fw, group, center)


class LibraryWorkload:
    """grid-pinned and ring-cnv: library calls in this process.

    One op loads the framework file, then times ``analyze`` and ``verify``,
    each repeated as ``repeat`` says (a traced op calls each once), and one
    ``render`` as the CLI does it (auto-detected group).  Loading the file
    anew in every op keeps ops from sharing state, so a cache cannot make a
    repeated op look faster than a first one.
    """

    steps = ("analyze_s", "verify_s", "render_s")

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        if name == "grid-pinned":
            fw = grid_pinned()
        else:
            fw = ring_cnv(seed)
            check_ring(fw)
        self.expect = FROZEN[name]
        # No group field: both workloads resolve their group by detection.
        self.path = workdir / f"{name}.json"
        self.path.write_text(symstress.framework_to_json(fw), encoding="utf-8")
        self.text = self.path.read_text(encoding="utf-8")

    def op(self, min_step_s: float = MIN_STEP_S) -> tuple[dict[str, list[float]], list[str]]:
        fw, _ = symstress.parse_framework_json(self.text)
        timings: dict[str, list[float]] = {k: [] for k in self.steps}
        analyses = repeat(symstress.analyze, fw, timings["analyze_s"], min_step_s)
        verifications = repeat(symstress.verify, fw, timings["verify_s"], min_step_s)
        svgs = repeat(render, fw, timings["render_s"], 0.0)  # checked; its time is not a metric
        problems = [p for a in analyses for p in check_analysis(self.expect, a)]
        problems += [p for v in verifications for p in check_verification(self.expect, v)]
        problems += [p for svg in svgs for p in check_svg(self.expect, fw, svg)]
        return timings, problems

    def cli_main_probe(self) -> None:
        """One in-process ``symstress render`` call on the workload's file."""
        code = cli.main(["render", str(self.path), "-o", str(self.path.with_suffix(".svg"))])
        if code != 0:
            raise SetupError(f"symstress render exited {code} on {self.path.name}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliWorkload:
    """cli-catalog: one fresh ``python -m symstress`` process per op.

    The 18 entries are written as ``symstress gen`` writes them, except that
    every second one (in catalog order) leaves out its group field, so that
    both group resolution paths run: declared and detected (each of these
    entries detects its declared group).  The seed shuffles the op order.
    """

    steps = tuple(f"{c}_s" for c in CLI_COMMANDS)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.entries = {}
        self.paths = {}
        for i, name in enumerate(CATALOG_NAMES):
            entry = catalog.generate(name)
            group = symstress.group_spec_to_json(entry.group) if i % 2 == 0 else None
            path = workdir / f"{name}.json"
            path.write_text(symstress.framework_to_json(entry.framework, group), encoding="utf-8")
            self.entries[name] = entry
            self.paths[name] = path
        self.plan = [(c, n) for n in CATALOG_NAMES for c in CLI_COMMANDS]
        random.Random(seed).shuffle(self.plan)
        self.next = 0
        self.max_child_rss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _argv(self, command: str, name: str) -> list[str]:
        fmt = ["--format", "json"] if command != "render" else []
        return [command, *fmt, str(self.paths[name])]

    def _take(self) -> tuple[str, str]:
        item = self.plan[self.next % len(self.plan)]
        self.next += 1
        return item

    def op(self) -> tuple[dict[str, list[float]], list[str]]:
        command, name = self._take()
        argv = [sys.executable, "-m", "symstress", *self._argv(command, name)]
        code, stdout, wall, rss_kb = run_child(argv, self.env)
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss_kb)
        return {f"{command}_s": [wall]}, check_cli(self.entries[name], command, code, stdout)

    def op_in_process(self) -> tuple[dict[str, list[float]], list[str]]:
        """The same op as ``cli.main`` in this process (for the traced run)."""
        command, name = self._take()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, wall = timed(cli.main, self._argv(command, name))
        return {f"{command}_s": [wall]}, check_cli(self.entries[name], command, code, out.getvalue())

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0


def run_child(argv: list[str], env: dict | None = None) -> tuple[int, str, float, int]:
    """Run a child to completion: (exit code, stdout, wall seconds, its max RSS in KiB).

    The child is reaped with ``os.wait4`` so that its own peak RSS is known;
    a timer kills it if it outlives CHILD_TIMEOUT_S.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(b"".join(err).decode("utf-8", "replace"))
    return proc.returncode, out.decode("utf-8"), wall, usage.ru_maxrss


def make(name: str, seed: int, workdir: Path):
    if name == "cli-catalog":
        return CliWorkload(seed, workdir)
    return LibraryWorkload(name, seed, workdir)
