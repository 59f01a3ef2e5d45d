"""Append-only JSONL performance ledger.

One line per perf-case entry, exactly as :func:`repro.perf.case.run_case`
produced it, plus a ``recorded_at`` stamp tucked *inside the entry's
``timings`` block* -- the stamp is wall-clock metadata, so it lives with
the wall-clock and :func:`repro.obs.strip_timings` keeps ledger lines
byte-comparable across runs.  The lines are written and read by
:class:`~repro.store.log.AppendOnlyLog`, as the run store's are: appending
never rewrites existing lines, a torn last line is skipped and repaired,
and readers reject lines from a newer schema rather than misinterpreting
them.

Entries are keyed by ``(case, fingerprint, package_version)`` -- the
trajectory of one case on one workload across package versions is the
slice ``repro perf trend`` renders, and ``repro perf compare`` only diffs
entries whose case and fingerprint agree.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.perf.case import PERF_SCHEMA
from repro.store.log import AppendOnlyLog

__all__ = ["PerfLedger", "entry_key"]


def entry_key(entry: Dict[str, Any]) -> Tuple[str, str, str]:
    """The identity a ledger entry is keyed (and compared) by."""
    return (
        str(entry.get("case", "")),
        str(entry.get("fingerprint", "")),
        str(entry.get("package_version", "")),
    )


class PerfLedger:
    """An append-only JSONL ledger of perf-case entries under one directory."""

    FILENAME = "perf.jsonl"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.log = AppendOnlyLog(self.path, "ledger", PERF_SCHEMA)

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    def __len__(self) -> int:
        return len(self.entries())

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Append one perf-case entry; returns the stored line's payload.

        The entry must already carry its identity (``case``,
        ``fingerprint``, ``package_version``) and schema; the ledger only
        adds the ``recorded_at`` stamp -- inside ``timings`` so the
        deterministic remainder stays byte-stable.
        """
        if entry.get("kind") != "perf-case" or not entry.get("case"):
            raise ValueError("only perf-case entries with a case name are ledgerable")
        stored = dict(entry)
        stored["timings"] = dict(stored.get("timings", {}))
        stored["timings"]["recorded_at"] = datetime.now(timezone.utc).isoformat()
        self.log.append(stored)
        return stored

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries(
        self,
        case: Optional[str] = None,
        fingerprint: Optional[str] = None,
        package_version: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Stored entries, in append order, filtered by the key axes."""
        selected: List[Dict[str, Any]] = []
        for entry in self.log.read():
            if case is not None and entry.get("case") != case:
                continue
            if fingerprint is not None and entry.get("fingerprint") != fingerprint:
                continue
            if (
                package_version is not None
                and entry.get("package_version") != package_version
            ):
                continue
            selected.append(entry)
        return selected

    def cases(self) -> List[str]:
        """Distinct case names in first-appended order."""
        seen: List[str] = []
        for entry in self.entries():
            name = str(entry.get("case", ""))
            if name not in seen:
                seen.append(name)
        return seen

    def latest(
        self,
        case: str,
        fingerprint: Optional[str] = None,
        package_version: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """The most recent entry of ``case`` (``None`` if absent)."""
        matching = self.entries(
            case=case, fingerprint=fingerprint, package_version=package_version
        )
        return matching[-1] if matching else None
