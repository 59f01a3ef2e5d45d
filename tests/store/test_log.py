"""Tests for the append-only JSONL log under RunStore and PerfLedger.

A line counts only once its newline is written: a torn last line (an append
that died mid-write) is skipped by readers and truncated by the next append,
appends from several processes never interleave, a read from any line
boundary is the matching suffix of a whole-file read, and the run store's
fingerprint index never trusts the size of a file it read with a torn tail.
"""

import multiprocessing
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from log_writers import append_many, writer_record
from repro.perf.case import PERF_SCHEMA
from repro.perf.ledger import PerfLedger
from repro.store import STORE_SCHEMA_VERSION, RunStore
from repro.store.log import AppendOnlyLog, encode_line

#: The first bytes of a store line, as a crash mid-append leaves them.
FRAGMENT = b'{"fingerprint": "fp-torn", "record": {"engine": "elm'


def record(fingerprint):
    return {
        "job": f"job-{fingerprint}",
        "instance": "ti:30",
        "flow": "contango",
        "engine": "elmore",
        "fingerprint": fingerprint,
    }


def ledger_entry(case):
    return {
        "schema": PERF_SCHEMA,
        "kind": "perf-case",
        "case": case,
        "fingerprint": "f00d",
        "package_version": "1.0.0",
        "counters": {"widgets": 4},
        "timings": {"repeats": 1},
    }


def tear(path):
    with open(path, "ab") as handle:
        handle.write(FRAGMENT)


def torn_warning(path, size):
    return pytest.warns(
        RuntimeWarning, match=rf"{re.escape(str(path))}: truncated a torn {size}-byte"
    )


class TestTornTail:
    def test_store_skips_the_torn_line_and_the_next_append_repairs_it(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(record("fp-1"), run_id="r1")
        store.append(record("fp-2"), run_id="r1")
        tear(store.path)
        assert [e["fingerprint"] for e in store.entries()] == ["fp-1", "fp-2"]
        assert store.log.torn_bytes == len(FRAGMENT)
        assert store.latest_by_fingerprint("fp-2") == record("fp-2")
        assert store.latest_by_fingerprint("fp-torn") is None
        with torn_warning(store.path, len(FRAGMENT)):
            store.append(record("fp-3"), run_id="r2")
        reread = RunStore(tmp_path)
        assert [e["fingerprint"] for e in reread.entries()] == ["fp-1", "fp-2", "fp-3"]
        assert reread.log.torn_bytes == 0
        assert store.latest_by_fingerprint("fp-3") == record("fp-3")

    def test_ledger_skips_the_torn_line_and_the_next_append_repairs_it(self, tmp_path):
        ledger = PerfLedger(tmp_path)
        ledger.append(ledger_entry("a"))
        ledger.append(ledger_entry("b"))
        tear(ledger.path)
        assert ledger.cases() == ["a", "b"]
        assert ledger.log.torn_bytes == len(FRAGMENT)
        with torn_warning(ledger.path, len(FRAGMENT)):
            ledger.append(ledger_entry("c"))
        assert PerfLedger(tmp_path).cases() == ["a", "b", "c"]

    def test_a_terminated_line_that_does_not_parse_still_raises(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(record("fp-1"), run_id="r1")
        tear(store.path)
        with open(store.path, "ab") as handle:
            handle.write(b"\n")
        with pytest.raises(ValueError, match="runs.jsonl:2: corrupt store line"):
            store.entries()


class TestCutPoints:
    @given(
        payloads=st.lists(
            st.fixed_dictionaries(
                {"schema": st.just(1), "value": st.text(max_size=40)}
            ),
            min_size=1,
            max_size=5,
        ),
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_cut_inside_the_last_line_loses_only_that_line(self, payloads, fraction):
        with tempfile.TemporaryDirectory() as root:
            log = AppendOnlyLog(Path(root) / "log.jsonl", "store", 1)
            for payload in payloads:
                log.append(payload)
            last = len(encode_line(payloads[-1]))
            start = log.path.stat().st_size - last
            cut = start + int(fraction * last)  # start <= cut < end of line
            with open(log.path, "r+b") as handle:
                handle.truncate(cut)
            assert log.read() == payloads[:-1]
            assert log.torn_bytes == cut - start
            new = {"schema": 1, "value": "appended"}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                log.append(new)
            assert len(caught) == (1 if cut > start else 0)
            assert log.read() == payloads[:-1] + [new]
            assert log.torn_bytes == 0


class TestReadFromAnOffset:
    @given(
        lines=st.lists(
            st.one_of(
                st.none(),  # a blank line
                st.fixed_dictionaries({"schema": st.just(1), "value": st.text(max_size=20)}),
            ),
            max_size=8,
        ),
        torn=st.binary(max_size=12).filter(lambda tail: b"\n" not in tail),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_read_from_any_line_boundary_is_a_suffix_of_the_whole_read(
        self, lines, torn
    ):
        with tempfile.TemporaryDirectory() as root:
            log = AppendOnlyLog(Path(root) / "runs.jsonl", "store", 1)
            log.path.write_bytes(
                b"".join(b"\n" if line is None else encode_line(line) for line in lines)
                + torn
            )
            whole = log.read()
            offsets = (log.complete_bytes, log.torn_bytes)
            assert whole == [line for line in lines if line is not None]
            boundary = 0
            for index, line in enumerate(lines + [None]):
                before = sum(earlier is not None for earlier in lines[:index])
                assert log.read(boundary) == whole[before:]
                assert (log.complete_bytes, log.torn_bytes) == offsets
                boundary += 1 if line is None else len(encode_line(line))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (b"{not json\n", "corrupt store line"),
            (encode_line({"schema": 2}), "schema 2 is newer than supported version 1"),
        ],
    )
    def test_a_bad_line_after_the_offset_raises_the_whole_read_error(
        self, tmp_path, bad, message
    ):
        log = AppendOnlyLog(tmp_path / "runs.jsonl", "store", 1)
        boundaries = [0] + [log.append({"schema": 1, "value": value})[1] for value in range(3)]
        with open(log.path, "ab") as handle:
            handle.write(b"\n" + bad)  # a blank line counts in the numbering too
        boundaries.append(boundaries[-1] + 1)
        with pytest.raises(ValueError, match=message) as whole:
            log.read()
        assert f"runs.jsonl:5: {message}" in str(whole.value)
        for boundary in boundaries:
            with pytest.raises(ValueError) as tail:
                log.read(boundary)
            assert str(tail.value) == str(whole.value)


class TestConcurrentWriters:
    def test_four_processes_leave_every_envelope_intact(self, tmp_path):
        # ~1 KB to over 64 KB per line: larger than any pipe or stdio buffer.
        sizes = [1_000, 9_000, 70_000, 3_000, 66_000] * 5
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(target=append_many, args=(str(tmp_path), writer, sizes))
            for writer in range(4)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=60)
        assert [process.exitcode for process in writers] == [0, 0, 0, 0]
        store = RunStore(tmp_path)
        envelopes = store.entries()
        assert store.log.torn_bytes == 0
        expected = {
            (f"w{writer}", index): writer_record(writer, index, size)
            for writer in range(4)
            for index, size in enumerate(sizes)
        }
        assert len(envelopes) == len(expected) == 100
        got = {}
        for envelope in envelopes:
            assert envelope["schema"] == STORE_SCHEMA_VERSION
            index = int(envelope["fingerprint"].rsplit("-", 1)[1])
            got[envelope["run_id"], index] = envelope["record"]
        assert got == expected


class TestFingerprintIndexOverTornTails:
    def test_equal_length_repair_is_not_mistaken_for_an_unchanged_file(self, tmp_path):
        reader = RunStore(tmp_path)
        RunStore(tmp_path).append(record("fp-1"), run_id="r1")
        envelope = {
            "schema": STORE_SCHEMA_VERSION,
            "run_id": "r2",
            "recorded_at": "2026-01-01T00:00:00+00:00",
            "fingerprint": "fp-2",
            "record": record("fp-2"),
        }
        # A torn tail exactly as long as the line that will replace it.
        with open(reader.path, "ab") as handle:
            handle.write(b"x" * len(encode_line(envelope)))
        assert reader.latest_by_fingerprint("fp-2") is None  # indexes the torn file
        size = reader.path.stat().st_size
        with pytest.warns(RuntimeWarning, match="torn"):
            RunStore(tmp_path).log.append(envelope)
        assert reader.path.stat().st_size == size
        assert reader.latest_by_fingerprint("fp-2") == record("fp-2")
