"""CLI wiring tests for ``repro serve`` and the lazy-import guarantee."""

import os
import subprocess
import sys
from pathlib import Path

from repro.cli import build_parser

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8765
        assert args.workers == 1 and args.max_queue == 64
        assert args.queue_policy == "wait"
        assert args.store is None and args.port_file is None

    def test_serve_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--port-file", "p", "--workers", "3",
             "--store", "s", "--run-id", "r", "--max-queue", "4",
             "--queue-policy", "reject"]
        )
        assert args.port == 0 and args.port_file == "p"
        assert args.workers == 3 and args.max_queue == 4
        assert args.queue_policy == "reject"
        assert args.store == "s" and args.run_id == "r"


class TestLazyImports:
    """What a process that only runs the analytical engines never loads.

    ``asyncio`` and ``repro.serve`` load only inside the ``serve`` handler;
    ``scipy`` only on a process's first transient analysis.
    """

    @staticmethod
    def _run(code):
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr

    def test_plain_run_path_never_imports_asyncio_or_serve(self):
        """The acceptance criterion: ``repro run`` pays nothing for serving.

        A real ``repro run`` and ``repro mc`` in a subprocess, then the
        module table is checked -- the serving stack (and asyncio itself)
        must only load inside the ``serve`` handler, and scipy only with
        the transient engine.
        """
        self._run(
            "import sys\n"
            "from repro.cli import main\n"
            "rc = main(['run', '--instance', 'ti:16', '--engine', 'elmore',"
            " '--pipeline', 'initial'])\n"
            "assert rc == 0, rc\n"
            "rc = main(['mc', '--instance', 'ti:16', '--engine', 'arnoldi',"
            " '--samples', '50', '--seed', '3'])\n"
            "assert rc == 0, rc\n"
            "leaked = [m for m in ('asyncio', 'repro.serve', 'scipy') if m in sys.modules]\n"
            "assert not leaked, f'leaked into repro run and mc: {leaked}'\n"
        )

    def test_transient_engine_loads_scipy_on_its_first_analysis(self):
        self._run(
            "import sys\n"
            "from repro.cli import main\n"
            "assert 'scipy' not in sys.modules\n"
            "rc = main(['run', '--instance', 'ti:16', '--engine', 'spice',"
            " '--pipeline', 'initial'])\n"
            "assert rc == 0, rc\n"
            "assert 'scipy.linalg' in sys.modules\n"
        )
