"""``repro.obs`` -- the observability plane: structured tracing.

Dependency-free so every layer of the package (including the strict-typed
leaves) can use it without cycles:

* :mod:`repro.obs.trace` -- :class:`Tracer` produces one nested span tree per
  job (``flow`` -> ``pass`` -> ``ivc_round`` -> ``evaluate`` ->
  ``propagate`` / ``candidate_batch``) with per-span counters;
  :data:`NULL_TRACER` is the shared disabled tracer whose spans are cached
  no-ops, so instrumentation left in place costs one attribute check on the
  hot paths.  :func:`trace_artifact` / :func:`write_trace` /
  :func:`read_trace` persist the schema-1 JSON artifact (wall-clock confined
  to the ``timings`` block so the structural remainder is byte-stable) and
  :func:`spans_from_artifact` rebuilds its spans, e.g. to hang another
  process's trace below a span of this one;
  :func:`chrome_trace` exports to the Chrome trace-event format Perfetto
  reads; :class:`TraceSummary` is the compact record-attachable digest.

There is no process-global counter registry.  A counter lives on the object
that does the work (``ClockNetworkEvaluator.cache_stats()``,
``ResultCache.stats()``, ``JobScheduler.stats()``); records carry per-job
totals (``evaluator_cache``, ``variation_gate``), and span counters are
per-path deltas of the same counts when tracing is on.

Timing attribution flows through the tracer *only*: the ``untimed-wallclock``
lint rule flags direct ``time.perf_counter``/``time.monotonic`` calls outside
this package (record-level wall-clock fields carry explicit suppressions).
"""

from __future__ import annotations

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceSummary,
    Tracer,
    TracerBase,
    chrome_trace,
    path_counters,
    path_timings,
    read_trace,
    render_span_tree,
    spans_from_artifact,
    strip_timings,
    summarize,
    trace_artifact,
    write_trace,
)

__all__ = [
    "Span",
    "Tracer",
    "TracerBase",
    "NullTracer",
    "NULL_TRACER",
    "TraceSummary",
    "summarize",
    "path_counters",
    "path_timings",
    "trace_artifact",
    "spans_from_artifact",
    "write_trace",
    "read_trace",
    "strip_timings",
    "chrome_trace",
    "render_span_tree",
]
