"""Tests for the append-only run store (repro.store.store)."""

import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import STORE_SCHEMA_VERSION, RunStore
from repro.store.log import encode_line


def record(instance="ti:30", flow="contango", engine="elmore", skew=1.0, **extra):
    payload = {
        "job": f"{instance}-{flow}-{engine}".replace(":", "-"),
        "instance": instance,
        "flow": flow,
        "engine": engine,
        "pipeline": None,
        "seed": None,
        "fingerprint": f"fp-{instance}-{flow}-{engine}-{skew}",
        "summary": {"skew_ps": skew, "clr_ps": 2 * skew, "evaluations": 10},
        "wall_clock_s": 0.1,
    }
    payload.update(extra)
    return payload


class TestAppend:
    def test_append_creates_directory_and_file(self, tmp_path):
        store = RunStore(tmp_path / "store")
        envelope = store.append(record(), run_id="r1")
        assert store.path.exists()
        assert envelope["schema"] == STORE_SCHEMA_VERSION
        assert envelope["run_id"] == "r1"
        assert envelope["recorded_at"].startswith("20")
        assert envelope["fingerprint"] == record()["fingerprint"]

    def test_append_is_append_only(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(record(skew=1.0), run_id="r1")
        first = store.path.read_text()
        store.append(record(skew=2.0), run_id="r2")
        assert store.path.read_text().startswith(first)
        assert len(store) == 2

    def test_error_records_store_null_fingerprint(self, tmp_path):
        store = RunStore(tmp_path)
        envelope = store.append(
            {"job": "x", "instance": "nope:1", "flow": "contango",
             "engine": "elmore", "error": "boom"},
            run_id="r1",
        )
        assert envelope["fingerprint"] is None

    @pytest.mark.parametrize(
        "bad",
        ["", "has space", "tab\tid",
         # '@' and 'all' are reserved by the STORE[@RUN_ID] compare syntax:
         "v1@final", "all"],
    )
    def test_bad_run_ids_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError, match="run_id"):
            RunStore(tmp_path).append(record(), run_id=bad)


class TestQuery:
    def make(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(record(instance="ti:30", flow="contango"), run_id="base")
        store.append(record(instance="ti:30", flow="unoptimized_dme"), run_id="base")
        store.append(record(instance="scenario:maze", flow="contango"), run_id="cand")
        return store

    def test_entries_preserve_append_order(self, tmp_path):
        store = self.make(tmp_path)
        flows = [e["record"]["flow"] for e in store.entries()]
        assert flows == ["contango", "unoptimized_dme", "contango"]

    def test_filter_by_run_id(self, tmp_path):
        store = self.make(tmp_path)
        assert len(store.records(run_id="base")) == 2
        assert len(store.records(run_id="cand")) == 1
        assert store.records(run_id="nope") == []

    def test_filter_by_axes(self, tmp_path):
        store = self.make(tmp_path)
        assert len(store.records(flow="contango")) == 2
        assert len(store.records(instance="scenario:maze")) == 1
        assert len(store.records(run_id="base", flow="contango")) == 1

    def test_run_ids_in_first_seen_order(self, tmp_path):
        store = self.make(tmp_path)
        assert store.run_ids() == ["base", "cand"]
        assert store.latest_run_id() == "cand"

    def test_run_ids_keep_first_appended_order_over_repeated_ids(self, tmp_path):
        store = RunStore(tmp_path)
        for run_id in ["b", "a", "b", "c", "a", "d", "c", "b"]:
            store.append(record(), run_id=run_id)
        assert store.run_ids() == ["b", "a", "c", "d"]
        assert store.latest_run_id() == "d"

    def test_empty_store_reads_empty(self, tmp_path):
        store = RunStore(tmp_path / "missing")
        assert store.entries() == []
        assert store.latest_run_id() is None
        assert len(store) == 0


class TestSchema:
    def test_newer_schema_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(record(), run_id="r1")
        line = json.dumps(
            {"schema": STORE_SCHEMA_VERSION + 1, "run_id": "r2", "record": {}}
        )
        with store.path.open("a") as handle:
            handle.write(line + "\n")
        with pytest.raises(ValueError, match="newer than supported"):
            store.entries()

    def test_corrupt_line_reports_location(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(record(), run_id="r1")
        with store.path.open("a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ValueError, match="runs.jsonl:2"):
            store.entries()

    def test_blank_lines_ignored(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(record(), run_id="r1")
        with store.path.open("a") as handle:
            handle.write("\n\n")
        assert len(store.entries()) == 1


FINGERPRINTS = ["fp-a", "fp-b", "fp-c", None]

#: One change to a store directory, made behind or through the primary handle.
OPERATIONS = st.one_of(
    # An append through the primary (0) or one of two other handles.
    st.tuples(st.just("append"), st.integers(0, 2), st.sampled_from(FINGERPRINTS)),
    # An append that died after this fraction of its line; the next append
    # (through any handle) repairs it.
    st.tuples(st.just("tear"), st.floats(0.0, 1.0, exclude_max=True)),
    # The file unlinked and recreated with these lines (none: left missing).
    st.tuples(st.just("replace"), st.lists(st.sampled_from(FINGERPRINTS), max_size=6)),
    # The file cut back to one of its line boundaries (taken modulo their count).
    st.tuples(st.just("truncate"), st.integers(0, 30)),
    # A copy with fp-a and fp-b swapped in its first line (same length) renamed
    # over the file: only its (st_dev, st_ino) shows the change.
    st.tuples(st.just("rewrite")),
)


class TestFingerprintIndex:
    """latest_by_fingerprint: the serve cache's O(1) store lookup."""

    @staticmethod
    def latest_linear(store, fingerprint):
        """The reference semantics: scan the envelopes backwards."""
        for envelope in reversed(store.entries()):
            if envelope.get("fingerprint") == fingerprint:
                return envelope["record"]
        return None

    def test_empty_store_and_unknown_fingerprint_miss(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.latest_by_fingerprint("fp-x") is None
        store.append(record(), run_id="r1")
        assert store.latest_by_fingerprint("fp-x") is None

    def test_duplicate_fingerprints_resolve_to_the_latest_append(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(record(skew=1.0, fingerprint="fp-dup"), run_id="r1")
        store.append(record(skew=2.0, fingerprint="fp-dup"), run_id="r2")
        found = store.latest_by_fingerprint("fp-dup")
        assert found["summary"]["skew_ps"] == 2.0

    def test_index_extends_in_place_on_same_handle_appends(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(record(fingerprint="fp-1"), run_id="r1")
        assert store.latest_by_fingerprint("fp-1") is not None  # index built
        store.append(record(fingerprint="fp-2"), run_id="r1")
        assert store.latest_by_fingerprint("fp-2") is not None

    def test_null_fingerprint_error_records_are_never_indexed(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(record(fingerprint=None), run_id="r1")
        store.append(record(fingerprint="fp-ok"), run_id="r1")
        assert store.latest_by_fingerprint("fp-ok") is not None
        assert store.latest_by_fingerprint("None") is None

    def test_out_of_band_appends_are_detected_by_file_growth(self, tmp_path):
        primary = RunStore(tmp_path)
        primary.append(record(fingerprint="fp-1"), run_id="r1")
        assert primary.latest_by_fingerprint("fp-2") is None  # index built
        # A second handle (another process in real life) appends behind the
        # primary's back: the index must not serve a stale miss.
        RunStore(tmp_path).append(record(fingerprint="fp-2"), run_id="r2")
        assert primary.latest_by_fingerprint("fp-2") is not None

    def test_a_bad_line_past_the_indexed_offset_raises_with_its_line_number(
        self, tmp_path
    ):
        primary = RunStore(tmp_path)
        primary.append(record(fingerprint="fp-1"), run_id="r1")
        RunStore(tmp_path).append(record(fingerprint="fp-2"), run_id="r2")
        assert primary.latest_by_fingerprint("fp-1") is not None  # index built
        with primary.path.open("a") as handle:
            handle.write("\n{not json\n")
        with pytest.raises(ValueError, match="runs.jsonl:4: corrupt store line"):
            primary.latest_by_fingerprint("fp-2")
        assert primary.index_rebuilds == 1

    def test_growth_parses_only_the_new_lines(self, tmp_path):
        primary = RunStore(tmp_path)
        primary.append(record(fingerprint="fp-1"), run_id="r1")
        assert primary.latest_by_fingerprint("fp-1") is not None  # index built
        RunStore(tmp_path).append(record(fingerprint="fp-2"), run_id="r2")
        # This handle's own line lands after the other writer's: the index is
        # kept, and the next lookup reads both lines.
        primary.append(record(fingerprint="fp-3"), run_id="r1")
        assert primary.latest_by_fingerprint("fp-2") is not None
        assert primary.latest_by_fingerprint("fp-3") is not None
        assert primary.index_bytes_parsed == primary.path.stat().st_size
        assert primary.index_rebuilds == 1

    def test_a_store_this_handle_created_is_extended_not_rebuilt(self, tmp_path):
        # repro serve on a new store: the first lookup finds no file, the
        # service's own append creates it, then another process appends.
        primary = RunStore(tmp_path)
        assert primary.latest_by_fingerprint("fp-1") is None
        primary.append(record(fingerprint="fp-1"), run_id="serve")
        own = primary.path.stat().st_size
        RunStore(tmp_path).append(record(fingerprint="fp-2"), run_id="sweep")
        assert primary.latest_by_fingerprint("fp-2") is not None
        assert primary.index_bytes_parsed == primary.path.stat().st_size - own
        assert primary.index_rebuilds == 1

    @staticmethod
    def apply(operation, serial, root, handles):
        """Make one of the OPERATIONS on the store under ``root``."""
        kind, *args = operation
        path = handles[0].path
        if kind == "append":
            handle, fingerprint = args
            handles[handle].append(
                record(skew=float(serial), fingerprint=fingerprint), run_id="r1"
            )
        elif kind == "tear":
            line = encode_line(
                {
                    "schema": STORE_SCHEMA_VERSION,
                    "run_id": "torn",
                    "recorded_at": "2026-01-01T00:00:00+00:00",
                    "fingerprint": "fp-a",
                    "record": record(skew=-1.0, fingerprint="fp-a"),
                }
            )
            with open(path, "ab") as handle:
                handle.write(line[: int(args[0] * len(line))])
        elif kind == "replace":
            if path.exists():
                os.unlink(path)
            writer = RunStore(root)
            for index, fingerprint in enumerate(args[0]):
                writer.append(
                    record(skew=serial + index / 10, fingerprint=fingerprint),
                    run_id="r2",
                )
        elif kind == "truncate" and path.exists():
            data = path.read_bytes()
            boundaries = [0] + [i + 1 for i, byte in enumerate(data) if byte == 10]
            os.truncate(path, boundaries[args[0] % len(boundaries)])
        elif kind == "rewrite" and path.exists():
            data = path.read_bytes()
            first = data.find(b"\n") + 1
            swapped = (
                data[:first]
                .replace(b"fp-a", b"fp-?")
                .replace(b"fp-b", b"fp-a")
                .replace(b"fp-?", b"fp-b")
            )
            copy = path.with_name("rewritten.jsonl")
            copy.write_bytes(swapped + data[first:])
            os.replace(copy, path)

    @given(ops=st.lists(OPERATIONS, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_index_matches_linear_scan_under_interleaved_appends(self, ops):
        # Every kind of change a store file can see: appends through the
        # primary (in-place extension) and two other handles (tail reads), a
        # torn tail and its repair, a replaced file (on ext4 an unlinked and
        # recreated file often keeps its inode number), a cut and a rewrite.
        with tempfile.TemporaryDirectory() as root, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # torn-tail repairs
            handles = [RunStore(root) for _ in range(3)]
            for serial, operation in enumerate(ops):
                self.apply(operation, serial, root, handles)
                scan = RunStore(root)
                for probe in ("fp-a", "fp-b", "fp-c", "fp-missing"):
                    assert handles[0].latest_by_fingerprint(
                        probe
                    ) == self.latest_linear(scan, probe)
