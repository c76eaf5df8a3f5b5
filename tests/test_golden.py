"""Byte-stable CLI output on every geometric catalog entry.

``tests/data/golden.json`` holds the sha256 and exit code of ``analyze`` and
``verify`` output (JSON and text) for each geometric catalog entry, under its
declared group and with detection, of ``verify`` JSON with the fallback route
forced, and of plain ``render`` SVG.  Nothing drawn from singular vectors
(``render --stress`` / ``--mechanism``) is included, since those bytes depend
on the LAPACK build.

Regenerate the file, only when an output change is intended, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from symstress import catalog, cli, framework_to_json, group_spec_to_json, numeric

GOLDEN = Path(__file__).parent / "data" / "golden.json"


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _write_inputs(directory: Path) -> list[str]:
    """Write each geometric entry twice: with its group field ("<name>.json")
    and without it ("<name>-auto.json", detected).  Returns the file names."""
    files = []
    for entry in catalog.all_entries():
        if entry.is_census_only:
            continue
        group = group_spec_to_json(entry.group) if entry.group is not None else None
        for name, field in ((f"{entry.name}.json", group), (f"{entry.name}-auto.json", None)):
            (directory / name).write_text(framework_to_json(entry.framework, group=field))
            files.append(name)
    return files


def digests() -> dict[str, dict]:
    """Exit code and output sha256 per (command, format, input file)."""
    result: dict[str, dict] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            files = _write_inputs(Path(tmp))
            for path in files:
                for command in ("analyze", "verify"):
                    for fmt in ("json", "text"):
                        result[f"{command} {fmt} {path}"] = _run([command, path, "--format", fmt])
                if not path.endswith("-auto.json"):
                    result[f"render {path}"] = _run(["render", path])
            block_counts = numeric._block_counts
            numeric._block_counts = lambda *args, **kwargs: None
            try:
                for path in files:
                    result[f"verify-full json {path}"] = _run(["verify", path, "--format", "json"])
            finally:
                numeric._block_counts = block_counts
        finally:
            os.chdir(cwd)
    return result


def test_outputs_match_golden_bytes_and_exit_codes():
    expected = json.loads(GOLDEN.read_text())
    actual = digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"output changed for {changed}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
