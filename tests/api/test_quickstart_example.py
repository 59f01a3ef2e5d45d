"""Every ``examples/*.py`` runs to its end from an empty working directory.

Each example gets an empty working directory and an empty TMPDIR of its own;
whatever it writes must land in the working directory, so TMPDIR and the
checkout's ``examples/`` directory are left as they were.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"


def run_example(script, tmp_path):
    """Run ``script`` from an empty cwd with an empty TMPDIR; returns its stdout."""
    cwd = tmp_path / "cwd"
    temp = tmp_path / "tmp"
    cwd.mkdir()
    temp.mkdir()

    def listing():
        return {path.name: path.stat().st_mtime_ns for path in EXAMPLES.iterdir()}

    before = listing()
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(temp)),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert list(temp.iterdir()) == []
    assert listing() == before
    return result.stdout


def test_api_quickstart_runs_from_a_temporary_directory(tmp_path):
    # The example keeps its run store in TMPDIR and removes it on exit.
    stdout = run_example(EXAMPLES / "api_quickstart.py", tmp_path)
    assert re.search(r"^store: \d+ records in ", stdout, re.MULTILINE), stdout


@pytest.mark.parametrize(
    "script",
    [path for path in sorted(EXAMPLES.glob("*.py")) if path.name != "api_quickstart.py"],
    ids=lambda path: path.name,
)
def test_example_runs_from_an_empty_directory(script, tmp_path):
    run_example(script, tmp_path)
