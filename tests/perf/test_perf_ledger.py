"""Unit tests for the append-only JSONL performance ledger."""

import json

import pytest

from repro.obs import strip_timings
from repro.perf.case import PERF_SCHEMA
from repro.perf.ledger import PerfLedger


def make_entry(case="tiny", fingerprint="f00d", version="1.0.0", **extra):
    entry = {
        "schema": PERF_SCHEMA,
        "kind": "perf-case",
        "case": case,
        "description": "stub",
        "package_version": version,
        "fingerprint": fingerprint,
        "counters": {"widgets": 4},
        "span_counters": {"work": {"widgets": 4}},
        "checks": [{"name": "always", "ok": True, "detail": "", "timing": False}],
        "timings": {"repeats": 1, "wall_clock_s": {"median": 0.01, "iqr": 0.0}},
    }
    entry.update(extra)
    return entry


class TestAppend:
    def test_round_trips_and_stamps_inside_timings(self, tmp_path):
        ledger = PerfLedger(tmp_path / "ledger")
        stored = ledger.append(make_entry())
        assert "recorded_at" in stored["timings"]
        assert "recorded_at" not in stored["counters"]
        (read,) = ledger.entries()
        assert read == stored
        # The stamp never perturbs the deterministic remainder.
        assert strip_timings(read) == strip_timings(make_entry())

    def test_is_append_only(self, tmp_path):
        ledger = PerfLedger(tmp_path)
        ledger.append(make_entry(version="1.0.0"))
        first_line = ledger.path.read_text().splitlines()[0]
        ledger.append(make_entry(version="1.1.0"))
        assert ledger.path.read_text().splitlines()[0] == first_line
        assert len(ledger) == 2

    def test_does_not_mutate_the_caller_entry(self, tmp_path):
        entry = make_entry()
        PerfLedger(tmp_path).append(entry)
        assert "recorded_at" not in entry["timings"]

    def test_rejects_non_perf_case_payloads(self, tmp_path):
        ledger = PerfLedger(tmp_path)
        with pytest.raises(ValueError, match="perf-case"):
            ledger.append({"kind": "trace", "case": "tiny"})
        with pytest.raises(ValueError, match="perf-case"):
            ledger.append(make_entry(case=""))


class TestEntries:
    def test_empty_ledger_reads_as_no_entries(self, tmp_path):
        ledger = PerfLedger(tmp_path / "never-written")
        assert ledger.entries() == []
        assert ledger.cases() == []
        assert ledger.latest("tiny") is None

    def test_filters_by_every_key_axis(self, tmp_path):
        # Entries are filtered by case only; the CLI and ``perf trend`` need no more.
        ledger = PerfLedger(tmp_path)
        ledger.append(make_entry(case="a", fingerprint="x", version="1"))
        ledger.append(make_entry(case="a", fingerprint="y", version="2"))
        ledger.append(make_entry(case="b", fingerprint="x", version="2"))
        assert [e["fingerprint"] for e in ledger.entries(case="a")] == ["x", "y"]
        assert [e["case"] for e in ledger.entries(case="b")] == ["b"]
        assert len(ledger.entries()) == 3

    def test_cases_preserve_first_appended_order(self, tmp_path):
        ledger = PerfLedger(tmp_path)
        for case in ("zeta", "alpha", "zeta"):
            ledger.append(make_entry(case=case))
        assert ledger.cases() == ["zeta", "alpha"]

    def test_latest_returns_the_last_matching_line(self, tmp_path):
        ledger = PerfLedger(tmp_path)
        ledger.append(make_entry(version="1.0.0"))
        ledger.append(make_entry(version="1.1.0"))
        ledger.append(make_entry(case="other", version="2.0.0"))
        assert ledger.latest("tiny")["package_version"] == "1.1.0"

    def test_rejects_newer_schema_lines_with_location(self, tmp_path):
        ledger = PerfLedger(tmp_path)
        ledger.append(make_entry())
        with ledger.path.open("a") as handle:
            handle.write(json.dumps(make_entry(schema=PERF_SCHEMA + 1)) + "\n")
        with pytest.raises(ValueError, match=r"perf\.jsonl:2.*newer"):
            ledger.entries()

    def test_rejects_corrupt_lines_with_location(self, tmp_path):
        ledger = PerfLedger(tmp_path)
        ledger.append(make_entry())
        with ledger.path.open("a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ValueError, match=r"perf\.jsonl:2.*corrupt"):
            ledger.entries()

    def test_blank_lines_are_skipped(self, tmp_path):
        ledger = PerfLedger(tmp_path)
        ledger.append(make_entry())
        with ledger.path.open("a") as handle:
            handle.write("\n")
        ledger.append(make_entry())
        assert len(ledger) == 2
