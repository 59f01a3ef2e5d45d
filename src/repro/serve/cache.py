"""Content-addressed result cache over the run store's job fingerprints.

The key is :func:`repro.runner.spec_fingerprint` -- for plain synthesis jobs
bit-identical to the ``fingerprint`` field their records carry, so every
record the attached :class:`~repro.store.RunStore` has *ever* persisted
(this process or any earlier one) is a valid cache entry; Monte Carlo jobs
use the serve-side extended key and are cached in memory for the process
lifetime only (their records carry no fingerprint field to find again on
disk).

Invariants (see CONTRIBUTING "Fingerprint-cache invariants"):

* a hit returns the stored record *unchanged* -- bit-identical to a fresh
  run outside the wall-clock fields (:func:`repro.api.records.stable_record`
  is the comparison projection);
* :class:`~repro.api.records.ErrorRecord` results are never cached: a
  transient failure must not shadow the computation forever, so the next
  identical submission misses and re-executes;
* hit/miss/coalesced counts live here only; :meth:`stats` reports them and
  the scheduler's ``/metrics`` block nests them under ``cache``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.api.records import ErrorRecord, Record, record_from_dict
from repro.store import RunStore

__all__ = ["ResultCache"]


class ResultCache:
    """Fingerprint-keyed completed-result cache, store-backed when attached."""

    def __init__(self, store: Optional[RunStore] = None) -> None:
        self.store = store
        self._memory: Dict[str, Record] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0

    def lookup(self, fingerprint: str) -> Optional[Record]:
        """The cached record for ``fingerprint``, counting the hit or miss.

        Memory first (covers MC jobs and everything this process completed),
        then the attached store's fingerprint index -- which also surfaces
        results persisted by *previous* processes over the same store.
        """
        record = self._memory.get(fingerprint)
        if record is None and self.store is not None:
            stored = self.store.latest_by_fingerprint(fingerprint)
            if stored is not None:
                typed = record_from_dict(stored)
                if not isinstance(typed, ErrorRecord):
                    record = typed
                    self._memory[fingerprint] = typed
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, fingerprint: str, record: Record) -> bool:
        """Memoize a completed record; refuses error records (returns False).

        The store append itself is the service's job (every dispatched record
        is persisted before its future resolves); the cache only remembers
        the fingerprint -> record association.
        """
        if isinstance(record, ErrorRecord):
            return False
        self._memory[fingerprint] = record
        return True

    def note_coalesced(self) -> None:
        """Count one submission that attached to an identical in-flight job."""
        self.coalesced += 1

    def stats(self) -> Dict[str, int]:
        """Deterministic counters (the serve PerfCase's regression surface)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "memory_entries": len(self._memory),
        }
