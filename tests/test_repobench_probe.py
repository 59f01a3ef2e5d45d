"""The repository benchmark's layer probe resolves every target in ``src/``.

``repobench/probe.py`` wraps public functions at the module or class
attribute their callers look them up through, and refuses to trace when one
is missing.  A rename under ``src/`` would otherwise surface only when the
benchmark runs; this test makes it fail the unit suite instead.
"""

import importlib.util
import sys
from pathlib import Path

from repro.obs import Tracer

PROBE_PATH = Path(__file__).resolve().parents[1] / "repobench" / "probe.py"


def load_probe(monkeypatch):
    spec = importlib.util.spec_from_file_location("repobench_probe", PROBE_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses look their own module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    # Leave no bytecode cache inside the benchmark's directory.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_resolves_and_is_restored(monkeypatch):
    probe = load_probe(monkeypatch)
    # Entering raises MissingTargetError naming every target it cannot find.
    with probe.Probe(Tracer()) as installed:
        wrapped = list(installed._saved)
        assert len(wrapped) == len(probe.TARGETS) == 25
        for owner, name, original in wrapped:
            assert vars(owner)[name] is not original, name
    for owner, name, original in wrapped:
        assert vars(owner)[name] is original, name
