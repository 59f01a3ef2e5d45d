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

:meth:`RunStore.latest_by_fingerprint` (the serve cache's lookup) keeps an
index of the lines it has read and the offset where they end.  When another
handle or process appends, the next lookup parses only the new lines; only
a replaced, cut or rewritten file is read again from byte 0.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.api.records import Record, record_from_dict
from repro.store.log import AppendOnlyLog

__all__ = ["STORE_SCHEMA_VERSION", "RunStore"]

STORE_SCHEMA_VERSION = 1

#: A lookup checks that the last indexed line still ends at the indexed
#: offset by comparing up to this many of its final bytes.  A store line ends
#: with its microsecond ``recorded_at`` stamp and its run id, well within
#: this; comparing a whole traced record would read it on every lookup.
INDEX_TAIL_BYTES = 256


class RunStore:
    """An append-only JSONL store of runner job records under one directory."""

    FILENAME = "runs.jsonl"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.log = AppendOnlyLog(self.path, "store", STORE_SCHEMA_VERSION)
        # Fingerprint -> latest record, built on the first
        # latest_by_fingerprint() call and extended after that, plus what
        # it covers: the file's (st_dev, st_ino) (None while it is missing),
        # the end offset of the last complete line it has read (-1: no
        # index yet) and that line's last bytes (see _unindexed_start).
        self._fingerprint_index: Dict[str, Dict] = {}
        self._indexed_file: Optional[Tuple[int, int]] = None
        self._indexed_bytes = -1
        self._indexed_tail = b""
        #: Bytes of complete lines the index has parsed, and how many times
        #: it was built from byte 0 (the first lookup's build included).
        self.index_bytes_parsed = 0
        self.index_rebuilds = 0

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
        indexed_file = self._indexed_file in (None, self.log.identity)
        if start == self._indexed_bytes and indexed_file:
            # The line landed right after the indexed bytes of the indexed file
            # (or created it): extend in place.
            if envelope["fingerprint"] is not None:
                self._fingerprint_index[str(envelope["fingerprint"])] = record
            self._indexed_file = self.log.identity
            self._indexed_bytes = end
            self._indexed_tail = self.log.last_line[-INDEX_TAIL_BYTES:]
        # Anywhere else, other writers' lines come first (or the file was cut
        # or replaced): the next lookup reads them and this line together, or
        # rebuilds.
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
        start: int = 0,
    ) -> List[Dict]:
        """Stored envelopes, in append order, filtered by the given axes.

        ``start`` skips the lines before that byte offset: 0 or the end of a
        complete line (see :meth:`AppendOnlyLog.read`).
        """
        selected: List[Dict] = []
        for envelope in self.log.read(start):
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
        ``fingerprint`` field, but backed by an in-memory index: built from
        the file on the first call, extended in place by this handle's
        :meth:`append`, and, when other handles or processes have appended,
        extended by parsing only the complete lines past the offset it
        covers, so it never serves a stale miss for a record already on disk.
        The index covers complete lines only: a torn tail is left for a later
        lookup, so a repair that replaced it with a line of exactly the same
        length is still read.  Error records store ``fingerprint: null`` and
        are therefore never returned -- a failure must not shadow (or
        impersonate) a completed computation.
        """
        identity, start = self._unindexed_start()
        if start is not None:
            envelopes = self.entries(start=start)
            if start == 0:
                self._fingerprint_index = {}
                self.index_rebuilds += 1
            for envelope in envelopes:
                stored = envelope.get("fingerprint")
                if stored is not None:
                    self._fingerprint_index[str(stored)] = envelope["record"]
            self.index_bytes_parsed += self.log.complete_bytes - start
            if self.log.complete_bytes > start or start == 0:
                self._indexed_tail = self.log.last_line[-INDEX_TAIL_BYTES:]
            self._indexed_file = identity
            self._indexed_bytes = self.log.complete_bytes
        return self._fingerprint_index.get(fingerprint)

    def _unindexed_start(self) -> Tuple[Optional[Tuple[int, int]], Optional[int]]:
        """The file's identity and the offset the index must be read from.

        The offset is ``None`` when the index covers the whole file, the
        indexed offset when the file has only grown, and 0 when the index must
        be built from byte 0: on first use, or when the file has another
        ``(st_dev, st_ino)`` or no longer holds the end of the last indexed
        line just before the offset (which a shorter file cannot).  Identity
        alone does not show a replaced file: an unlinked ``runs.jsonl`` and
        its successor often share an inode number.  The line check catches
        that, and it implies the weaker check that the byte before the offset
        is a newline.
        """
        offset, tail = self._indexed_bytes, self._indexed_tail
        try:
            fd = os.open(self.log.path, os.O_RDONLY)  # self.path joins on every call
        except FileNotFoundError:
            # Nothing to read if the index was taken while it was missing too.
            missing = offset == 0 and self._indexed_file is None
            return None, (None if missing else 0)
        try:
            info = os.fstat(fd)
            identity = (info.st_dev, info.st_ino)
            if (
                offset < 0
                or identity != self._indexed_file
                or os.pread(fd, len(tail), offset - len(tail)) != tail
            ):
                return identity, 0
            return identity, (None if info.st_size == offset else offset)
        finally:
            os.close(fd)

    def records(
        self,
        run_id: Optional[str] = None,
        instance: Optional[str] = None,
        flow: Optional[str] = None,
        engine: Optional[str] = None,
    ) -> List[Dict]:
        """The job-record payloads of :meth:`entries` (same filters)."""
        selected = self.entries(run_id, instance, flow, engine)
        return [envelope["record"] for envelope in selected]

    def typed_records(self, **filters: Optional[str]) -> List[Record]:
        """:meth:`records` parsed into typed :mod:`repro.api.records` classes."""
        return [record_from_dict(record) for record in self.records(**filters)]

    def run_ids(self) -> List[str]:
        """Distinct run ids in first-appended order."""
        return list(dict.fromkeys(envelope["run_id"] for envelope in self.entries()))

    def latest_run_id(self) -> Optional[str]:
        """The most recently started run id (``None`` for an empty store)."""
        ids = self.run_ids()
        return ids[-1] if ids else None
