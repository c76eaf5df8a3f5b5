"""Outside-in tracing for the symstress benchmark.

The tracer replaces public functions of the package's modules with timing
wrappers, in every module that bound them (``vertex_permutation`` is bound in
``symmetry``, ``numeric``, ``render`` and the package itself), and wraps
``numpy.linalg.svd``.  Nothing inside the package changes.  Spans are kept in
memory as ``(name, start, end, parent, info)`` and written out at the end;
a span's self time is its duration minus the durations of its children.
Closed spans are tuples of plain values, which the garbage collector stops
tracking, so the harness's full collections do not slow down as spans pile up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute).  Both rigidity-matrix builders report as one.
TARGETS = (
    ("cli.main", "symstress.cli", "main"),
    ("framework.parse_framework_json", "symstress.framework", "parse_framework_json"),
    ("framework.check_planarity", "symstress.framework", "check_planarity"),
    ("framework.rigidity_matrix", "symstress.framework", "rigidity_matrix"),
    ("framework.rigidity_matrix", "symstress.framework", "rigidity_matrix_pinned"),
    ("symmetry.detect_groups", "symstress.symmetry", "detect_groups"),
    ("symmetry.census", "symstress.symmetry", "census"),
    ("symmetry.vertex_permutation", "symstress.symmetry", "vertex_permutation"),
    ("symmetry.edge_permutation", "symstress.symmetry", "edge_permutation"),
    ("reptheory.character_table", "symstress.reptheory", "character_table"),
    ("counting.analyze", "symstress.counting", "analyze"),
    ("counting.analyze_census", "symstress.counting", "analyze_census"),
    ("numeric.verify", "symstress.numeric", "verify"),
    ("numeric.intertwining_residual", "symstress.numeric", "intertwining_residual"),
    ("numeric.classify_by_irrep", "symstress.numeric", "classify_by_irrep"),
    ("render.render_svg", "symstress.render", "render_svg"),
    ("numeric.svd", "numpy.linalg", "svd"),
)


def _info(name: str, args: tuple, result) -> object:
    """Per-span data the metrics need beyond the times."""
    if name == "numeric.svd":
        m, n = args[0].shape[-2:]
        return m * n * min(m, n)
    if name == "numeric.verify":
        a = result.analysis
        return a.n * (2 if a.family in ("Cs", "Cnv") else 1)  # group order
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None))
        self._stack.append(index)
        return index

    def _close(self, index: int, info: object = None) -> None:
        name, start, _, parent, _ = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, info)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness span (an op, or a probe) around the calls it makes."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                info = _info(name, args, result)
                return result
            except Exception as exc:
                info = type(exc).__name__
                raise
            finally:
                self._close(index, info)

        return wrapper

    def install(self) -> None:
        for name, module, attr in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            holders = [m for k, m in list(sys.modules.items()) if k == module or k.split(".")[0] == "symstress"]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "info"], "spans": self.spans}))


def self_times(spans: list[tuple]) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def roots(spans: list[tuple]) -> list[int]:
    """Index of each span's root span (parents precede their children)."""
    out: list[int] = []
    for i, span in enumerate(spans):
        out.append(i if span[3] < 0 else out[span[3]])
    return out


def summarize(spans: list[tuple], root_name: str) -> dict:
    """Totals per span name over the trees under roots called ``root_name``.

    Returns ``{"roots": n, "root_s": total root time, "program_s": total time
    of the roots' children (the calls into the program), "self_s": {name: s},
    "calls": {name: n}, "rejects": {name: n}, "svd_work": n,
    "verify_vperm_calls": n, "verify_group_ops": n}``.
    """
    selfs = self_times(spans)
    root_of = roots(spans)
    inside_verify = [False] * len(spans)
    out = {
        "roots": 0, "root_s": 0.0, "program_s": 0.0, "self_s": defaultdict(float), "calls": defaultdict(int),
        "rejects": defaultdict(int), "svd_work": 0, "verify_vperm_calls": 0, "verify_group_ops": 0,
    }
    for i, (name, start, end, parent, info) in enumerate(spans):
        if parent >= 0:
            inside_verify[i] = inside_verify[parent] or spans[parent][0] == "numeric.verify"
        if spans[root_of[i]][0] != root_name:
            continue
        if parent < 0:
            out["roots"] += 1
            out["root_s"] += end - start
        elif parent == root_of[i]:
            out["program_s"] += end - start
        out["self_s"][name] += selfs[i]
        out["calls"][name] += 1
        if info == "NotSymmetric":
            out["rejects"][name] += 1
        elif name == "numeric.svd" and isinstance(info, int):
            out["svd_work"] += info
        elif name == "numeric.verify" and isinstance(info, int):
            out["verify_group_ops"] += info
        if name == "symmetry.vertex_permutation" and inside_verify[i]:
            out["verify_vperm_calls"] += 1
    return out
