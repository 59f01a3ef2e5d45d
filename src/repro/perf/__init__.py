"""``repro.perf`` -- benchmark-case registry, performance ledger, regression gates.

The performance counterpart of the lint and mypy ratchets:

* :mod:`repro.perf.case` -- :class:`PerfCase` + the register-or-fail
  :data:`CASE_REGISTRY`; :func:`run_case` folds repeats into one
  schema-versioned entry whose deterministic counters are strictly
  quarantined from its wall-clock ``timings`` block.
* :mod:`repro.perf.cases` -- the registered cases (buffering, evaluator,
  variation, service, runner, propagation, trace, serve, store).
* :mod:`repro.perf.ledger` -- :class:`PerfLedger`, the append-only JSONL
  trajectory keyed by case + workload fingerprint + package version.
* :mod:`repro.perf.compare` -- :func:`compare_entries`: hard exact-match
  counter gates, soft IQR-banded timing gates, and span-subtree
  localization of timing regressions.
* :mod:`repro.perf.trend` -- per-case history tables.

``repro perf run|compare|trend`` is the CLI surface; CI's single ``perf``
job gates ``repro perf compare --fail-on-counter-regression`` against the
committed baseline ledger under ``benchmarks/``.
"""

from __future__ import annotations

import repro.perf.cases  # noqa: F401  -- importing registers the built-in cases
from repro.perf.case import (
    CASE_REGISTRY,
    PERF_SCHEMA,
    CaseCheck,
    CaseOutcome,
    PerfCase,
    available_cases,
    register_case,
    resolve_cases,
    run_case,
    timing_stats,
)
from repro.perf.compare import (
    PerfComparison,
    TimingBands,
    compare_entries,
    diff_counter_maps,
    diff_path_counters,
)
from repro.perf.ledger import PerfLedger, entry_key
from repro.perf.trend import trend_columns, trend_rows

__all__ = [
    "PERF_SCHEMA",
    "PerfCase",
    "CaseCheck",
    "CaseOutcome",
    "CASE_REGISTRY",
    "register_case",
    "available_cases",
    "resolve_cases",
    "run_case",
    "timing_stats",
    "PerfLedger",
    "entry_key",
    "TimingBands",
    "PerfComparison",
    "compare_entries",
    "diff_counter_maps",
    "diff_path_counters",
    "trend_rows",
    "trend_columns",
]
