"""The repository benchmark's layer probe resolves and fires every target in ``src/``.

``repobench/probe.py`` wraps public functions at the module or class
attribute their callers look them up through; a traced run fails when one
is missing or, on the workload it belongs to, never called.  A rename or a
refactor under ``src/`` that silences a target would otherwise surface only
when the traced benchmark runs; these tests make it fail the unit suite
instead, on one small job per workload.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.api.jobs import JobSpec, McJobSpec
from repro.core.config import BATCHED_PIPELINE
from repro.obs import Tracer
from repro.runner import run_job, run_mc_job, spec_fingerprint
from repro.store.store import RunStore

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


# Each workload function prepares outside the probe and returns what runs
# under it.


def flow_large(tmp_path):
    return lambda: run_job(JobSpec(instance="ti:200", seed=2))


def sweep_obstacles(tmp_path):
    # The smallest job found to accept an IVC round, so ClockTree.release fires.
    spec = JobSpec(instance="scenario:macros:sinks=24", pipeline=BATCHED_PIPELINE, seed=0)
    return lambda: run_job(spec)


def yield_mc(tmp_path):
    def jobs():
        run_mc_job(McJobSpec(instance="ti:30", samples=200, seed=7))
        run_mc_job(McJobSpec(instance="ti:30", gated=True, seed=7))

    return jobs


def store_replay(tmp_path):
    # As in the benchmark: the reader's index is built before the timed
    # lookups, and a lookup after another handle's append reads only the new
    # line -- which must still go through RunStore.entries.
    history, appended = JobSpec(instance="ti:24", seed=1), JobSpec(instance="ti:24", seed=2)
    RunStore(tmp_path).append(run_job(history), run_id="history")
    record = run_job(appended)
    reader = RunStore(tmp_path)
    assert reader.latest_by_fingerprint(spec_fingerprint(history)) is not None

    def replay():
        RunStore(tmp_path).append(record, run_id="writer")
        assert reader.latest_by_fingerprint(spec_fingerprint(appended)) is not None
        assert reader.index_rebuilds == 1

    return replay


@pytest.mark.parametrize(
    "workload, prepare",
    [
        ("flow-large", flow_large),
        ("sweep-obstacles", sweep_obstacles),
        ("yield-mc", yield_mc),
        ("store-replay", store_replay),
    ],
)
def test_every_probe_target_fires_on_its_workload(monkeypatch, tmp_path, workload, prepare):
    probe = load_probe(monkeypatch)
    jobs = prepare(tmp_path)
    with probe.Probe(Tracer()) as installed:
        jobs()
    assert installed.silent(workload) == []
