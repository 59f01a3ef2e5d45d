"""Structured tracing: nested spans, JSON artifacts, Chrome export, summaries.

One :class:`Tracer` records one job's execution as a tree of named
:class:`Span` objects.  The span *structure* (names, nesting, per-span
counters) is deterministic for a deterministic computation; wall-clock lives
in separate per-span timing fields, and the persisted artifact keeps every
timing in its own ``timings`` block so two traces of the same job are
byte-identical outside it (the property ``tests/obs`` pins).

Design constraints, in order:

1. **Disabled tracing is near-free.**  Hot call sites guard with
   ``tracer.enabled`` and skip their counter bookkeeping entirely;
   :data:`NULL_TRACER` hands out one cached no-op context manager, so an
   instrumented-but-untraced call costs an attribute read and a branch
   (``repro perf run --case trace`` holds the ti:200 flow to <2% overhead).
2. **Traces never feed fingerprints.**  Content addresses come from job
   identity (:mod:`repro.store.fingerprint`), records attach only the
   compact :class:`TraceSummary`, and the full artifact quarantines
   wall-clock in the ``timings`` envelope.
3. **No repro imports.**  The module is a stdlib-only leaf, usable from the
   evaluator and the IVC engine without cycles.

Garbage-collection pauses are timing too.  While a :class:`Tracer` has an
open span it keeps a hook in :data:`gc.callbacks` that charges each pause
of the cyclic collector to the innermost open span (:attr:`Span.gc_s`, the
``gc_s`` of the span's ``timings`` entry) and to the tracer's totals
(:attr:`Tracer.gc_s`, :attr:`Tracer.gc_collections`).  A pause is charged
where it happened, not to the code that allocated the garbage.  The hook
goes when the last root span closes; :data:`NULL_TRACER` installs none.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "TRACE_SCHEMA",
    "Span",
    "TracerBase",
    "Tracer",
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

#: Version number of the persisted trace artifact; readers reject newer
#: schemas instead of misparsing them (the run-store convention).
TRACE_SCHEMA = 1


class Span:
    """One named region of execution: children, counters, and timing.

    ``start_s``/``total_s`` are relative to the owning tracer's origin;
    ``self_s`` is derived (total minus the children's totals).  ``gc_s`` is
    the collector pause charged while this span was the innermost open one,
    a part of ``self_s``.  Counters are plain int accumulators --
    deterministic payload, never wall-clock.
    """

    __slots__ = ("name", "children", "counters", "start_s", "total_s", "gc_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: List["Span"] = []
        self.counters: Dict[str, int] = {}
        self.start_s = 0.0
        self.total_s = 0.0
        self.gc_s = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - sum(child.total_s for child in self.children)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"Span({self.name!r}, total_s={self.total_s:.6f})"


class _NullSpan:
    """The one reusable no-op context manager of the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> Optional[Span]:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager that opens one real span on ``__enter__``."""

    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Optional[Span]:
        return self._tracer._open(self._name)

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._close()
        return False


class TracerBase:
    """Shared interface of :class:`Tracer` and :class:`NullTracer`.

    Instrumented code holds a ``TracerBase`` and guards any bookkeeping
    beyond the span itself with :attr:`enabled`::

        with self.tracer.span("evaluate") as span:
            ...
            if span is not None:
                span.count("stages", len(stages))
    """

    enabled: bool = False

    def span(self, name: str) -> ContextManager[Optional[Span]]:
        raise NotImplementedError

    def count(self, key: str, amount: int = 1) -> None:
        raise NotImplementedError


class NullTracer(TracerBase):
    """The disabled tracer: every span is the same cached no-op."""

    enabled = False

    def span(self, name: str) -> ContextManager[Optional[Span]]:
        return _NULL_SPAN

    def count(self, key: str, amount: int = 1) -> None:
        return None


#: The shared disabled tracer; instrumented modules default to it so tracing
#: is opt-in per call, never ambient state.
NULL_TRACER = NullTracer()


class Tracer(TracerBase):
    """Records one nested span tree (typically: one traced job).

    ``gc_s`` and ``gc_collections`` total the collector pauses charged to
    this tracer's spans (see the module docstring).
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._origin = time.perf_counter()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_began = 0.0

    # -- recording ------------------------------------------------------
    def span(self, name: str) -> ContextManager[Optional[Span]]:
        return _OpenSpan(self, name)

    def count(self, key: str, amount: int = 1) -> None:
        """Increment a counter on the innermost open span (no-op at root)."""
        if self._stack:
            self._stack[-1].count(key, amount)

    def _open(self, name: str) -> Span:
        span = Span(name)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
            gc.callbacks.append(self._on_gc)
        self._stack.append(span)
        span.start_s = time.perf_counter() - self._origin
        return span

    def _close(self) -> None:
        span = self._stack.pop()
        span.total_s = time.perf_counter() - self._origin - span.start_s
        if not self._stack:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """The :data:`gc.callbacks` hook: charge a pause to the innermost span."""
        if phase == "start":
            self._gc_began = time.perf_counter()
        elif self._stack:
            pause = time.perf_counter() - self._gc_began
            self._stack[-1].gc_s += pause
            self.gc_s += pause
            self.gc_collections += 1

    # -- reading --------------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def spans(self) -> Iterator[Span]:
        """Every recorded span, pre-order across the root forest."""
        for root in self.roots:
            yield from root.walk()

    def total_s(self) -> float:
        return sum(root.total_s for root in self.roots)


# ----------------------------------------------------------------------
# Span-path aggregation (the counter-export helpers)
# ----------------------------------------------------------------------
#: Separator joining span names into a span *path* ("job/flow:contango/...").
PATH_SEPARATOR = "/"


def _walk_paths(tracer: Tracer) -> Iterator[Tuple[str, Span]]:
    """Every span with its slash-joined name path, pre-order."""

    def visit(span: Span, prefix: str) -> Iterator[Tuple[str, Span]]:
        path = f"{prefix}{PATH_SEPARATOR}{span.name}" if prefix else span.name
        yield path, span
        for child in span.children:
            yield from visit(child, path)

    for root in tracer.roots:
        yield from visit(root, "")


def path_counters(tracer: Tracer) -> Dict[str, Dict[str, int]]:
    """Deterministic counters aggregated by span path, sorted both ways.

    Spans sharing a path (e.g. every ``ivc_round`` under the same pass)
    merge their counters; paths without any counter are omitted, so the
    result is exactly the deterministic counter payload of a trace --
    the block ``repro.perf`` gates exactly and ``repro trace --diff``
    compares.
    """
    merged: Dict[str, Dict[str, int]] = {}
    for path, span in _walk_paths(tracer):
        if not span.counters:
            continue
        bucket = merged.setdefault(path, {})
        for key, amount in span.counters.items():
            bucket[key] = bucket.get(key, 0) + amount
    return {
        path: {key: merged[path][key] for key in sorted(merged[path])}
        for path in sorted(merged)
    }


def path_timings(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Wall-clock aggregated by span path: count plus total/self seconds.

    The quarantined complement of :func:`path_counters` -- everything here
    is timing and must never be compared exactly.
    """
    merged: Dict[str, Dict[str, float]] = {}
    for path, span in _walk_paths(tracer):
        bucket = merged.setdefault(
            path, {"count": 0.0, "total_s": 0.0, "self_s": 0.0}
        )
        bucket["count"] += 1
        bucket["total_s"] += span.total_s
        bucket["self_s"] += span.self_s
    return {path: merged[path] for path in sorted(merged)}


# ----------------------------------------------------------------------
# The compact record-attachable digest
# ----------------------------------------------------------------------
@dataclass
class TraceSummary:
    """Aggregate view of one trace, small enough to ride on a job record.

    ``top`` lists every distinct span *name*, heaviest aggregated self-time
    first (one entry per name, not per span; ``repro trace --top`` truncates
    what it prints);
    ``counters`` merges every span's counters and ``paths`` keeps the same
    counters keyed by span path (:func:`path_counters`), which is what
    ``repro trace --diff`` localizes counter drift with.  Serialized under
    the record key ``"trace"`` -- conditionally, so untraced runs stay
    byte-identical to their historical shapes.
    """

    schema: int = TRACE_SCHEMA
    spans: int = 0
    total_s: float = 0.0
    top: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    paths: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "spans": self.spans,
            "total_s": self.total_s,
            "top": self.top,
            "counters": self.counters,
            "paths": self.paths,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "TraceSummary":
        schema = int(record.get("schema", TRACE_SCHEMA))
        if schema > TRACE_SCHEMA:
            raise ValueError(
                f"trace summary schema {schema} is newer than supported "
                f"schema {TRACE_SCHEMA}"
            )
        return cls(
            schema=schema,
            spans=int(record.get("spans", 0)),
            total_s=float(record.get("total_s", 0.0)),
            top=list(record.get("top", [])),
            counters=dict(record.get("counters", {})),
            # Pre-paths summaries (schema-1 records written before the perf
            # subsystem) parse with an empty mapping; consumers fall back to
            # the merged counters.
            paths={
                str(path): dict(counters)
                for path, counters in dict(record.get("paths", {})).items()
            },
        )


def summarize(tracer: Tracer) -> TraceSummary:
    """Fold a tracer's span forest into a :class:`TraceSummary`."""
    by_name: Dict[str, Dict[str, Any]] = {}
    counters: Dict[str, int] = {}
    span_count = 0
    for span in tracer.spans():
        span_count += 1
        entry = by_name.setdefault(
            span.name, {"name": span.name, "count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += span.total_s
        entry["self_s"] += span.self_s
        for key, amount in span.counters.items():
            counters[key] = counters.get(key, 0) + amount
    top = sorted(by_name.values(), key=lambda e: (-e["self_s"], e["name"]))
    for entry in top:
        entry["total_s"] = round(entry["total_s"], 6)
        entry["self_s"] = round(entry["self_s"], 6)
    return TraceSummary(
        schema=TRACE_SCHEMA,
        spans=span_count,
        total_s=round(tracer.total_s(), 6),
        top=top,
        counters={key: counters[key] for key in sorted(counters)},
        paths=path_counters(tracer),
    )


# ----------------------------------------------------------------------
# The persisted artifact (schema 1)
# ----------------------------------------------------------------------
def trace_artifact(
    tracer: Tracer, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Build the schema-1 JSON artifact of one trace.

    Structure (names, nesting, counters, pre-order ids) lives in ``spans``;
    every wall-clock number is quarantined in the parallel ``timings`` list,
    so :func:`strip_timings` of two traces of the same deterministic job are
    byte-identical when serialized with sorted keys.
    """
    spans: List[Dict[str, Any]] = []
    timings: List[Dict[str, Any]] = []

    def visit(span: Span, parent: Optional[int]) -> None:
        span_id = len(spans)
        spans.append(
            {
                "id": span_id,
                "parent": parent,
                "name": span.name,
                "counters": {key: span.counters[key] for key in sorted(span.counters)},
            }
        )
        timings.append(
            {
                "id": span_id,
                "start_s": round(span.start_s, 9),
                "total_s": round(span.total_s, 9),
                "self_s": round(span.self_s, 9),
                "gc_s": round(span.gc_s, 9),
            }
        )
        for child in span.children:
            visit(child, span_id)

    for root in tracer.roots:
        visit(root, None)
    return {
        "schema": TRACE_SCHEMA,
        "kind": "trace",
        "meta": dict(meta or {}),
        "spans": spans,
        "timings": timings,
    }


def spans_from_artifact(artifact: Dict[str, Any]) -> List[Span]:
    """The root spans of an artifact, rebuilt with their counters and times.

    The inverse of :func:`trace_artifact`, so a trace recorded in another
    process can hang below a span of this one
    (``span.children.extend(spans_from_artifact(artifact))``).  Start times
    stay relative to the recording tracer's origin.
    """
    timings = {timing["id"]: timing for timing in artifact["timings"]}
    built: Dict[int, Span] = {}
    roots: List[Span] = []
    for record in artifact["spans"]:  # pre-order: a parent precedes its children
        span = Span(record["name"])
        span.counters = dict(record["counters"])
        timing = timings[record["id"]]
        span.start_s, span.total_s = timing["start_s"], timing["total_s"]
        span.gc_s = timing["gc_s"]
        parent = record["parent"]
        (roots if parent is None else built[parent].children).append(span)
        built[record["id"]] = span
    return roots


def strip_timings(artifact: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic remainder of an artifact (everything but timings)."""
    return {key: value for key, value in artifact.items() if key != "timings"}


def write_trace(path: Union[str, Path], artifact: Dict[str, Any]) -> Path:
    """Persist one artifact as sorted-key JSON (the byte-stable layout)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")
    return target


def read_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Load one artifact, rejecting newer schemas instead of misparsing."""
    artifact = json.loads(Path(path).read_text())
    if not isinstance(artifact, dict) or artifact.get("kind") != "trace":
        raise ValueError(f"{path} is not a trace artifact")
    schema = int(artifact.get("schema", 0))
    if schema > TRACE_SCHEMA:
        raise ValueError(
            f"trace artifact schema {schema} is newer than supported "
            f"schema {TRACE_SCHEMA}"
        )
    return artifact


def chrome_trace(artifact: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a schema-1 artifact to Chrome trace-event JSON (Perfetto).

    Complete (``"ph": "X"``) events in microseconds on one pid/tid, which is
    what ``chrome://tracing`` and https://ui.perfetto.dev open directly.
    """
    timing_by_id: Dict[int, Dict[str, Any]] = {
        entry["id"]: entry for entry in artifact.get("timings", [])
    }
    events: List[Dict[str, Any]] = []
    for span in artifact.get("spans", []):
        timing = timing_by_id.get(span["id"], {})
        events.append(
            {
                "ph": "X",
                "name": span["name"],
                "ts": round(float(timing.get("start_s", 0.0)) * 1e6, 3),
                "dur": round(float(timing.get("total_s", 0.0)) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": dict(span.get("counters", {})),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _format_span_line(span: Span, depth: int) -> str:
    counters = ""
    if span.counters:
        packed = ", ".join(
            f"{key}={span.counters[key]}" for key in sorted(span.counters)
        )
        counters = f"  [{packed}]"
    indent = "  " * depth
    return (
        f"{indent}{span.name:<{max(1, 34 - 2 * depth)}s} "
        f"total {span.total_s * 1e3:9.2f} ms  self {span.self_s * 1e3:9.2f} ms"
        f"{counters}"
    )


def render_span_tree(tracer: Tracer) -> str:
    """Human-readable indented span tree (the ``repro profile`` output)."""
    lines: List[str] = []

    def visit(span: Span, depth: int) -> None:
        lines.append(_format_span_line(span, depth))
        for child in span.children:
            visit(child, depth + 1)

    for root in tracer.roots:
        visit(root, 0)
    return "\n".join(lines)
