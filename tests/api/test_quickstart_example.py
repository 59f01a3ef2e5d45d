"""``examples/api_quickstart.py`` runs to its end from any working directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_api_quickstart_runs_from_a_temporary_directory(tmp_path):
    # TMPDIR keeps the example's run store inside an empty directory of its own.
    temp = tmp_path / "tmp"
    temp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(temp))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "api_quickstart.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert re.search(r"^store: \d+ records in ", result.stdout, re.MULTILINE), result.stdout
    # The example removes its store on exit.
    assert list(temp.iterdir()) == []
