"""Round-trip tests for the typed record schemas (repro.api.records).

The contract under test: for every record shape the system has ever
persisted -- synthesis runs, Monte Carlo runs, error records, with and
without their conditional keys -- ``record_from_dict(r).to_record() == r``
*bit-identically*, including key order.  The legacy corpus is pinned in
``tests/golden/legacy_records.json`` (captured from the PR-4 code paths) and
``benchmarks/baseline_store/runs.jsonl`` (a real PR-4 store line).
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.records import (
    MISSING,
    ErrorRecord,
    McRecord,
    RunRecord,
    RunSummary,
    StageRow,
    YieldSummary,
    record_from_dict,
)

GOLDEN = Path(__file__).parent.parent / "golden" / "legacy_records.json"
BASELINE_STORE = (
    Path(__file__).parent.parent.parent / "benchmarks" / "baseline_store" / "runs.jsonl"
)


def legacy_records():
    return json.loads(GOLDEN.read_text())


class TestGoldenRoundTrips:
    @pytest.mark.parametrize("name", sorted(legacy_records()))
    def test_legacy_record_round_trips_bit_identically(self, name):
        record = legacy_records()[name]
        round_tripped = record_from_dict(record).to_record()
        assert round_tripped == record
        # Key *order* is part of the contract: per-job JSON files are written
        # without sort_keys, so field order must match the legacy layout.
        assert list(round_tripped) == list(record)

    def test_dispatch_selects_the_right_class(self):
        records = legacy_records()
        assert isinstance(record_from_dict(records["run"]), RunRecord)
        assert isinstance(record_from_dict(records["mc"]), McRecord)
        assert isinstance(record_from_dict(records["error"]), ErrorRecord)
        assert isinstance(record_from_dict(records["mc_error"]), ErrorRecord)

    def test_typed_records_pass_through_dispatch(self):
        typed = record_from_dict(legacy_records()["run"])
        assert record_from_dict(typed) is typed

    def test_pr4_baseline_store_records_round_trip(self):
        # The committed CI-gate baseline store was written by the PR-4 code
        # paths; its payloads are the realest legacy corpus there is.
        lines = [
            json.loads(line)
            for line in BASELINE_STORE.read_text().splitlines()
            if line.strip()
        ]
        assert lines, "baseline store is empty?"
        for envelope in lines:
            record = envelope["record"]
            parsed = record_from_dict(record)
            assert isinstance(parsed, RunRecord)
            # Store lines are serialized with sort_keys=True, so only content
            # equality (not key order) is the contract here.
            assert parsed.to_record() == record

    def test_nested_payloads_parse_typed(self):
        run = record_from_dict(legacy_records()["run"])
        assert isinstance(run.summary, RunSummary)
        assert all(isinstance(row, StageRow) for row in run.stage_table)
        mc = record_from_dict(legacy_records()["mc"])
        assert isinstance(mc.yield_, YieldSummary)
        assert isinstance(mc.nominal, RunSummary)
        assert mc.to_record()["yield"]["n_samples"] == mc.yield_.n_samples


class TestConditionalKeys:
    def test_variation_gate_only_serialized_when_set(self):
        gated = legacy_records()["mc_gated"]
        plain = legacy_records()["mc"]
        assert "variation_gate" in record_from_dict(gated).to_record()
        assert "variation_gate" not in record_from_dict(plain).to_record()

    def test_legacy_error_record_keeps_its_minimal_envelope(self):
        legacy = legacy_records()["error"]
        parsed = record_from_dict(legacy)
        assert parsed.pipeline is MISSING
        assert parsed.seed is MISSING
        assert parsed.envelope("seed") is None
        assert list(parsed.to_record()) == ["job", "instance", "flow", "engine", "error"]

    def test_new_error_record_carries_the_spec_envelope(self):
        record = ErrorRecord(
            job="x", instance="ti:30", flow="contango", engine="elmore",
            error="boom", pipeline=None, seed=11,
        )
        serialized = record.to_record()
        assert serialized["seed"] == 11
        assert serialized["pipeline"] is None
        assert "samples" not in serialized  # untouched optionals stay absent
        assert record_from_dict(serialized).to_record() == serialized


#: A serialized ``TraceSummary`` as a traced job attaches it (no golden
#: carries one).
TRACE = {
    "schema": 1,
    "spans": 3,
    "total_s": 0.25,
    "top": [{"name": "evaluate", "count": 2, "total_s": 0.2, "self_s": 0.15}],
    "counters": {"cache_hits": 4, "cache_misses": 2},
    "paths": {"job/evaluate": {"cache_hits": 4, "cache_misses": 2}},
}


class TestGateAndTrace:
    @pytest.mark.parametrize("name, cls", [("run", RunRecord), ("mc_gated", McRecord)])
    def test_record_with_both_tail_keys_round_trips(self, name, cls):
        record = dict(legacy_records()[name])
        record["variation_gate"] = legacy_records()["mc_gated"]["variation_gate"]
        record["trace"] = TRACE
        parsed = record_from_dict(record)
        assert isinstance(parsed, cls)
        assert parsed.variation_gate == record["variation_gate"]
        assert parsed.trace == TRACE
        round_tripped = parsed.to_record()
        assert round_tripped == record
        assert list(round_tripped) == list(record)
        assert list(round_tripped)[-3:] == ["wall_clock_s", "variation_gate", "trace"]


class TestParseDefaults:
    def test_absent_run_keys_parse_to_field_defaults(self):
        parsed = RunRecord.from_record({"job": "x"})
        assert parsed.stage_table == []
        assert parsed.pass_notes == {}
        assert parsed.evaluator_cache == {}
        assert parsed.summary is None
        serialized = parsed.to_record()
        assert serialized == {
            "job": "x", "instance": None, "flow": None, "engine": None,
            "pipeline": None, "seed": None, "instance_fingerprint": None,
            "config_digest": None, "fingerprint": None, "sinks": None,
            "summary": None, "stage_table": [], "pass_notes": {},
            "evaluator_cache": {}, "wall_clock_s": None,
        }
        assert list(serialized) == [
            "job", "instance", "flow", "engine", "pipeline", "seed",
            "instance_fingerprint", "config_digest", "fingerprint", "sinks",
            "summary", "stage_table", "pass_notes", "evaluator_cache",
            "wall_clock_s",
        ]

    def test_absent_mc_keys_parse_to_none(self):
        parsed = McRecord.from_record({"job": "x"})
        assert parsed.yield_ is None
        assert parsed.nominal is None
        serialized = parsed.to_record()
        assert serialized == {
            "job": "x", "instance": None, "flow": None, "engine": None,
            "samples": None, "family": None, "seed": None, "gated": None,
            "sinks": None, "yield": None, "nominal": None, "wall_clock_s": None,
        }
        assert list(serialized) == [
            "job", "instance", "flow", "engine", "samples", "family", "seed",
            "gated", "sinks", "yield", "nominal", "wall_clock_s",
        ]

    def test_absent_envelope_keys_parse_to_missing(self):
        parsed = ErrorRecord.from_record({"job": "x", "error": "boom"})
        for name in ("pipeline", "seed", "samples", "family", "gated"):
            assert getattr(parsed, name) is MISSING
        assert parsed.to_record() == {
            "job": "x", "instance": None, "flow": None, "engine": None,
            "error": "boom",
        }
        assert list(parsed.to_record()) == ["job", "instance", "flow", "engine", "error"]

    def test_absent_stage_columns_parse_to_none(self):
        serialized = StageRow.from_record({"stage": "INITIAL"}).to_record()
        assert serialized == {
            "stage": "INITIAL", "skew_ps": None, "clr_ps": None,
            "max_latency_ps": None, "worst_slew_ps": None,
            "total_capacitance_fF": None, "capacitance_utilization": None,
            "wirelength_um": None, "buffer_count": None, "evaluations": None,
            "elapsed_s": 0.0,
        }
        assert list(serialized) == [
            "stage", "skew_ps", "clr_ps", "max_latency_ps", "worst_slew_ps",
            "total_capacitance_fF", "capacitance_utilization", "wirelength_um",
            "buffer_count", "evaluations", "elapsed_s",
        ]

    @pytest.mark.parametrize("cls", [RunSummary, YieldSummary])
    def test_absent_summary_keys_parse_to_none(self, cls):
        serialized = cls.from_record({}).to_record()
        assert set(serialized.values()) == {None}
        assert list(serialized) == [f.name for f in fields(cls)]


class TestStageRow:
    def test_round_trip_preserves_order_and_values(self):
        row = legacy_records()["run"]["stage_table"][0]
        assert StageRow.from_record(row).to_record() == row
        assert list(StageRow.from_record(row).to_record()) == list(row)

    def test_missing_elapsed_defaults_to_zero(self):
        # Pre-PR2 saved rows had no elapsed_s; table rendering relied on a
        # setdefault that the schema now owns.
        row = dict(legacy_records()["run"]["stage_table"][0])
        del row["elapsed_s"]
        assert StageRow.from_record(row).elapsed_s == 0.0


#: Optional error-envelope values as they appear in real records.
_envelope_values = {
    "pipeline": st.one_of(st.none(), st.lists(st.sampled_from(
        ["initial", "tbsz", "twsz", "twsn", "bwsn"]), max_size=3)),
    "seed": st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
    "samples": st.integers(min_value=1, max_value=10_000),
    "family": st.sampled_from(["independent", "correlated", "corner_anchored"]),
    "gated": st.booleans(),
}


class TestPropertyRoundTrips:
    @given(
        present=st.sets(st.sampled_from(sorted(_envelope_values))),
        data=st.data(),
    )
    def test_error_record_round_trips_for_any_envelope_subset(self, present, data):
        record = {
            "job": "j", "instance": "ti:30", "flow": "contango",
            "engine": "elmore", "error": "Traceback...",
        }
        # Insert in the schema's canonical envelope order, the order the
        # runner itself produces (arbitrary dict orders only promise content
        # equality, like the sort_keys store lines).
        for key in ("pipeline", "seed", "samples", "family", "gated"):
            if key in present:
                record[key] = data.draw(_envelope_values[key], label=key)
        round_tripped = record_from_dict(record).to_record()
        assert round_tripped == record
        assert list(round_tripped) == list(record)

    @given(gate=st.one_of(st.none(), st.fixed_dictionaries({"checks": st.integers(0, 99)})))
    def test_run_record_gate_key_presence_round_trips(self, gate):
        record = dict(legacy_records()["run"])
        if gate is not None:
            record["variation_gate"] = gate
        parsed = record_from_dict(record)
        # An empty/absent gate never re-serializes; a non-empty one must.
        expected = dict(record)
        if not gate:
            expected.pop("variation_gate", None)
        assert parsed.to_record() == expected
