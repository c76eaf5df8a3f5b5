"""Shared fixtures and helpers for the symstress test suite."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from symstress import catalog, framework_to_json, group_spec_to_json

# Property tests run derandomized: each test's 60 examples follow from its
# source, so every run draws the same ones.  ``--hypothesis-profile sweep``
# with ``--hypothesis-seed N`` draws 400 fresh examples a test from seed N.
_PROPERTY = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("derandomized", derandomize=True, max_examples=60, **_PROPERTY)
settings.register_profile("sweep", derandomize=False, max_examples=400, database=None, **_PROPERTY)
settings.load_profile("derandomized")


def run_cli(*args: str, cwd: str | Path | None = None) -> subprocess.CompletedProcess:
    """Run the installed CLI in a subprocess and capture its output."""
    return subprocess.run(
        [sys.executable, "-m", "symstress", *args],
        capture_output=True,
        text=True,
        cwd=str(cwd) if cwd is not None else None,
    )


def corrupt_identity_character(table):
    """The character table with its first irrep's character on E off by 1/2."""
    first = table.irreps[0]
    chars = (first.characters[0] + 0.5,) + first.characters[1:]
    irreps = (dataclasses.replace(first, characters=chars),) + table.irreps[1:]
    return dataclasses.replace(table, irreps=irreps)


def write_entry(tmp_path: Path, name: str, filename: str | None = None, **params) -> Path:
    """Write a catalog entry's framework to a JSON file and return the path."""
    entry = catalog.generate(name, **params)
    if entry.framework is None:
        raise ValueError(f"catalog entry {name!r} is census-only")
    group = group_spec_to_json(entry.group) if entry.group is not None else None
    path = tmp_path / (filename or f"{name}.json")
    path.write_text(framework_to_json(entry.framework, group=group))
    return path


@pytest.fixture
def entry_file(tmp_path):
    """Factory fixture: entry_file('fig3') -> path to a framework JSON file."""

    def _make(name: str, filename: str | None = None, **params) -> Path:
        return write_entry(tmp_path, name, filename, **params)

    return _make
