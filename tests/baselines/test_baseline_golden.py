"""Golden records of the three baseline flows.

Each baseline builds its tree, repairs obstacles and buffers it through the
same CTS and buffering code as Contango's INITIAL pass, with its own
topology, driver and station spacing.  These goldens pin what that produces:
the full ``stable_record`` of every baseline on ``ti:60`` (no obstacles) and
on ``scenario:macros:sinks=40`` seed 3 (six macros, so the die and obstacle
legality of buffer stations is exercised).

Strings, counts, notes and ``evaluator_cache`` must match exactly.  Floats
are compared at ``abs=1e-9``: CPython 3.12's ``sum`` is compensated, and the
suite runs on 3.9 through 3.12.

Re-bless a deliberate change with
``PYTHONPATH=src python -m tests.baselines.test_baseline_golden``.
"""

import json
from pathlib import Path

import pytest

from repro.api.jobs import JobSpec
from repro.api.records import stable_record
from repro.runner import resolve_instance, run_job

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "baseline_records.json"

FLOWS = ("greedy_buffered", "unoptimized_dme", "bounded_skew")
INSTANCES = (("ti:60", None), ("scenario:macros:sinks=40", 3))
SPECS = [
    JobSpec(instance=instance, flow=flow, seed=seed)
    for instance, seed in INSTANCES
    for flow in FLOWS
]


def baseline_record(spec: JobSpec):
    """``stable_record`` of ``spec``'s run, as it reads back from JSON."""
    return json.loads(json.dumps(stable_record(run_job(spec))))


def assert_matches(actual, expected, path="record"):
    """Exact equality everywhere except floats, which match at 1e-9."""
    if isinstance(expected, float):
        assert isinstance(actual, float), path
        assert actual == pytest.approx(expected, abs=1e-9), path
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert list(actual) == list(expected), path
        for key, value in expected.items():
            assert_matches(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), path
        assert len(actual) == len(expected), path
        for index, (got, want) in enumerate(zip(actual, expected)):
            assert_matches(got, want, f"{path}[{index}]")
    else:
        assert type(actual) is type(expected), path
        assert actual == expected, path


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_spec(golden):
    assert sorted(golden) == sorted(spec.label for spec in SPECS)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.label)
def test_baseline_matches_its_golden(spec, golden):
    assert_matches(baseline_record(spec), golden[spec.label])


def test_macros_instance_has_obstacles():
    assert len(resolve_instance(SPECS[-1]).obstacles) == 6


if __name__ == "__main__":
    records = {spec.label: baseline_record(spec) for spec in SPECS}
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n")
    print(f"re-blessed {GOLDEN_PATH}")
