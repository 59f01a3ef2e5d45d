"""Append-only persistent run store (one JSONL line per completed job).

Layout: a store is a directory holding ``runs.jsonl``; every line is one
envelope::

    {"schema": 1, "run_id": "...", "recorded_at": "...Z",
     "fingerprint": "<sha256>", "record": {<runner job record>}}

The lines are written and read by :class:`~repro.store.log.AppendOnlyLog`:
appending never rewrites existing lines and is serialized by a file lock, so
concurrent sweeps from several processes are safe and the file is a faithful
experiment log -- ``repro compare`` and the query helpers select slices of it
by run id and job axes.  A crash mid-append leaves a torn last line that
readers skip and the next append truncates.  The schema version is per line;
readers reject lines from a *newer* schema rather than misinterpreting them.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.api.records import Record, record_from_dict
from repro.store.log import AppendOnlyLog

__all__ = ["STORE_SCHEMA_VERSION", "RunStore"]

STORE_SCHEMA_VERSION = 1


class RunStore:
    """An append-only JSONL store of runner job records under one directory."""

    FILENAME = "runs.jsonl"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.log = AppendOnlyLog(self.path, "store", STORE_SCHEMA_VERSION)
        # Fingerprint -> latest record, built lazily on the first
        # latest_by_fingerprint() call and maintained on append, plus the
        # bytes of complete lines it covers.  A file of any other size has
        # grown behind this handle's back (another handle or process
        # appended) or ends in a torn line, so the next lookup rebuilds it.
        self._fingerprint_index: Optional[Dict[str, Dict]] = None
        self._indexed_bytes = -1

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    def __len__(self) -> int:
        return len(self.entries())

    @staticmethod
    def check_run_id(run_id: str) -> str:
        """Validate a run id (callers use this up front, before long batches).

        ``@`` is the compare-selection separator and ``all`` its select-
        everything keyword, so neither can name a run -- it would be stored
        fine but unaddressable (or mis-addressed) by ``repro compare``.
        """
        if not run_id or any(c.isspace() for c in run_id):
            raise ValueError(
                f"run_id must be non-empty and whitespace-free, got {run_id!r}"
            )
        if "@" in run_id or run_id == "all":
            raise ValueError(
                f"run_id {run_id!r} is not addressable by STORE[@RUN_ID] "
                "selections ('@' and the literal 'all' are reserved)"
            )
        return run_id

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: Union[Dict, Record], run_id: str) -> Dict:
        """Append one job record under ``run_id``; returns the stored envelope.

        Accepts a legacy record dict or any typed :mod:`repro.api.records`
        record (serialized via its ``to_record()``).  The record is expected
        to carry its own ``fingerprint`` (the runner computes it from the
        resolved instance content and config); records without one -- e.g.
        error records -- are stored with ``null``.
        """
        if not isinstance(record, dict):
            record = record.to_record()
        self.check_run_id(run_id)
        envelope = {
            "schema": STORE_SCHEMA_VERSION,
            "run_id": run_id,
            "recorded_at": datetime.now(timezone.utc).isoformat(),
            "fingerprint": record.get("fingerprint"),
            "record": record,
        }
        start, end = self.log.append(envelope)
        if self._fingerprint_index is not None:
            if start == self._indexed_bytes:
                # The line landed right after the indexed bytes: extend in place.
                if envelope["fingerprint"] is not None:
                    self._fingerprint_index[str(envelope["fingerprint"])] = record
                self._indexed_bytes = end
            else:
                # Out-of-band growth; drop the index and rebuild on demand.
                self._fingerprint_index = None
                self._indexed_bytes = -1
        return envelope

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries(
        self,
        run_id: Optional[str] = None,
        instance: Optional[str] = None,
        flow: Optional[str] = None,
        engine: Optional[str] = None,
    ) -> List[Dict]:
        """Stored envelopes, in append order, filtered by the given axes."""
        selected: List[Dict] = []
        for envelope in self.log.read():
            record = envelope.get("record", {})
            if run_id is not None and envelope.get("run_id") != run_id:
                continue
            if instance is not None and record.get("instance") != instance:
                continue
            if flow is not None and record.get("flow") != flow:
                continue
            if engine is not None and record.get("engine") != engine:
                continue
            selected.append(envelope)
        return selected

    def latest_by_fingerprint(self, fingerprint: str) -> Optional[Dict]:
        """The most recently appended record with this content fingerprint.

        Equivalent to scanning :meth:`records` backwards for a matching
        ``fingerprint`` field, but O(1) after the first call: the lookup is
        backed by an in-memory index built from the file once and maintained
        on every :meth:`append`.  Appends from *other* handles on the same
        directory are detected by file growth and trigger a rebuild, so the
        index never serves a stale miss for a record that is already on
        disk.  The index covers complete lines only: while the file ends in
        a torn line its size never matches, so every lookup re-reads until a
        read sees no torn tail -- even when a repair replaced the tail with a
        line of exactly the same length.  Error records store
        ``fingerprint: null`` and are therefore never returned -- a failure
        must not shadow (or impersonate) a completed computation.
        """
        if self._fingerprint_index is None or self.log.size() != self._indexed_bytes:
            index: Dict[str, Dict] = {}
            for envelope in self.entries():
                stored = envelope.get("fingerprint")
                if stored is not None:
                    index[str(stored)] = envelope["record"]
            self._fingerprint_index = index
            self._indexed_bytes = self.log.complete_bytes
        return self._fingerprint_index.get(fingerprint)

    def records(self, **filters: Optional[str]) -> List[Dict]:
        """The job-record payloads of :meth:`entries` (same filters)."""
        return [envelope["record"] for envelope in self.entries(**filters)]

    def typed_records(self, **filters: Optional[str]) -> List[Record]:
        """:meth:`records` parsed into typed :mod:`repro.api.records` classes."""
        return [record_from_dict(record) for record in self.records(**filters)]

    def run_ids(self) -> List[str]:
        """Distinct run ids in first-appended order."""
        seen: List[str] = []
        for envelope in self.entries():
            run_id = envelope["run_id"]
            if run_id not in seen:
                seen.append(run_id)
        return seen

    def latest_run_id(self) -> Optional[str]:
        """The most recently started run id (``None`` for an empty store)."""
        ids = self.run_ids()
        return ids[-1] if ids else None
