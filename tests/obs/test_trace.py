"""Unit tests for repro.obs.trace: spans, tracers, artifacts, exports."""

import gc
import json

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    TraceSummary,
    chrome_trace,
    read_trace,
    render_span_tree,
    spans_from_artifact,
    strip_timings,
    summarize,
    trace_artifact,
    write_trace,
)
from repro.obs import path_counters, path_timings
from repro.obs.trace import TRACE_SCHEMA


def record_tree(tracer):
    """A small fixed span tree: job -> (evaluate x2, propagate)."""
    with tracer.span("job"):
        with tracer.span("evaluate") as span:
            span.count("stages", 3)
        with tracer.span("evaluate") as span:
            span.count("stages", 2)
            span.count("cache_hits")
        with tracer.span("propagate"):
            tracer.count("corners", 4)


class TestSpan:
    def test_self_time_is_total_minus_children(self):
        parent = Span("parent")
        parent.total_s = 1.0
        child = Span("child")
        child.total_s = 0.3
        parent.children.append(child)
        assert parent.self_s == pytest.approx(0.7)

    def test_count_accumulates(self):
        span = Span("s")
        span.count("hits")
        span.count("hits", 4)
        assert span.counters == {"hits": 5}

    def test_walk_is_preorder(self):
        root = Span("a")
        b, c = Span("b"), Span("c")
        b.children.append(c)
        root.children.append(b)
        assert [s.name for s in root.walk()] == ["a", "b", "c"]


class TestTracer:
    def test_nesting_and_counters(self):
        tracer = Tracer()
        record_tree(tracer)
        (root,) = tracer.roots
        assert root.name == "job"
        assert [c.name for c in root.children] == [
            "evaluate",
            "evaluate",
            "propagate",
        ]
        assert root.children[1].counters == {"stages": 2, "cache_hits": 1}
        # tracer.count targets the innermost open span
        assert root.children[2].counters == {"corners": 4}

    def test_spans_nest_under_the_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("sibling") as sibling:
                pass
        with tracer.span("next") as after:
            pass
        # A span opened inside another is its child; once every span has
        # closed, the next one starts a new root.
        assert tracer.roots == [outer, after]
        assert outer.children == [inner, sibling]
        assert inner.children == sibling.children == after.children == []

    def test_timings_are_monotone(self):
        tracer = Tracer()
        record_tree(tracer)
        (root,) = tracer.roots
        assert root.total_s >= sum(c.total_s for c in root.children) >= 0.0
        assert tracer.total_s() == root.total_s
        assert sum(1 for _ in tracer.spans()) == 4

    def test_count_outside_any_span_is_a_noop(self):
        tracer = Tracer()
        tracer.count("orphan")
        record_tree(tracer)
        assert all("orphan" not in s.counters for s in tracer.spans())


class TestNullTracer:
    def test_span_yields_none_and_records_nothing(self):
        with NULL_TRACER.span("anything") as span:
            assert span is None
        NULL_TRACER.count("ignored", 7)
        assert not NULL_TRACER.enabled

    def test_span_context_manager_is_cached(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            with NullTracer().span("x"):
                raise RuntimeError("boom")


class TestGcPauses:
    """Collector pauses land on the innermost open span of a live tracer."""

    @pytest.fixture
    def manual_gc(self):
        """Only explicit ``gc.collect()`` calls collect during the test."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if was_enabled:
                gc.enable()

    def test_pause_is_charged_to_the_innermost_span(self, manual_gc):
        tracer = Tracer()
        with tracer.span("job") as job:
            with tracer.span("evaluate") as evaluate:
                gc.collect()
                gc.collect()
        assert tracer.gc_collections == 2
        assert evaluate.gc_s > 0.0
        assert job.gc_s == 0.0
        assert tracer.gc_s == evaluate.gc_s
        assert evaluate.gc_s <= evaluate.self_s

    def test_hook_lives_while_a_span_is_open(self, manual_gc):
        callbacks = list(gc.callbacks)
        tracer = Tracer()
        with tracer.span("first"):
            assert len(gc.callbacks) == len(callbacks) + 1
            with tracer.span("inner"):
                assert len(gc.callbacks) == len(callbacks) + 1
        assert gc.callbacks == callbacks
        gc.collect()
        assert tracer.gc_collections == 0
        with pytest.raises(RuntimeError):
            with tracer.span("second"):
                raise RuntimeError("boom")
        assert gc.callbacks == callbacks

    def test_null_tracer_installs_no_hook(self):
        callbacks = list(gc.callbacks)
        with NULL_TRACER.span("job"):
            assert gc.callbacks == callbacks

    def test_pause_reaches_the_timings_block_only(self, manual_gc):
        tracer = Tracer()
        record_tree(tracer)
        with tracer.span("collect"):
            gc.collect()
        artifact = trace_artifact(tracer)
        assert [entry["gc_s"] > 0.0 for entry in artifact["timings"]] == [
            False, False, False, False, True,
        ]
        plain = Tracer()
        record_tree(plain)
        with plain.span("collect"):
            pass
        assert strip_timings(artifact) == strip_timings(trace_artifact(plain))
        assert summarize(tracer).counters == summarize(plain).counters
        assert set(path_timings(tracer)["collect"]) == {"count", "total_s", "self_s"}


class TestSummarize:
    def test_aggregates_per_name_and_merges_counters(self):
        tracer = Tracer()
        record_tree(tracer)
        summary = summarize(tracer)
        assert summary.schema == TRACE_SCHEMA
        assert summary.spans == 4
        entries = {e["name"]: e for e in summary.top}
        assert entries["evaluate"]["count"] == 2
        assert summary.counters == {"cache_hits": 1, "corners": 4, "stages": 5}
        assert list(summary.counters) == sorted(summary.counters)

    def test_top_keeps_every_span_name(self):
        tracer = Tracer()
        with tracer.span("job"):
            for index in range(19):
                with tracer.span(f"stage{index:02d}"):
                    pass
        top = summarize(tracer).top
        assert len(top) == 20
        assert {entry["name"] for entry in top} == {"job"} | {
            f"stage{index:02d}" for index in range(19)
        }
        selfs = [entry["self_s"] for entry in top]
        assert selfs == sorted(selfs, reverse=True)

    def test_round_trips_through_its_record_form(self):
        tracer = Tracer()
        record_tree(tracer)
        summary = summarize(tracer)
        assert TraceSummary.from_record(summary.to_record()) == summary

    def test_from_record_rejects_newer_schema(self):
        with pytest.raises(ValueError, match="newer"):
            TraceSummary.from_record({"schema": TRACE_SCHEMA + 1})


class TestPathHelpers:
    def test_path_counters_merge_same_path_and_skip_counterless(self):
        tracer = Tracer()
        record_tree(tracer)
        paths = path_counters(tracer)
        # The two sibling "evaluate" spans share one slash-joined path.
        assert paths["job/evaluate"] == {"stages": 5, "cache_hits": 1}
        assert paths["job/propagate"] == {"corners": 4}
        # The counter-less root is omitted entirely.
        assert "job" not in paths
        assert list(paths) == sorted(paths)

    def test_path_timings_accumulate_count_total_and_self(self):
        tracer = Tracer()
        record_tree(tracer)
        timings = path_timings(tracer)
        assert timings["job/evaluate"]["count"] == 2
        assert timings["job"]["count"] == 1
        assert timings["job"]["total_s"] >= timings["job"]["self_s"]
        assert set(timings["job"]) == {"count", "total_s", "self_s"}

    def test_summary_carries_paths_and_round_trips(self):
        tracer = Tracer()
        record_tree(tracer)
        summary = summarize(tracer)
        assert summary.paths == path_counters(tracer)
        assert TraceSummary.from_record(summary.to_record()) == summary

    def test_pre_paths_records_parse_with_empty_paths(self):
        tracer = Tracer()
        record_tree(tracer)
        record = summarize(tracer).to_record()
        del record["paths"]
        assert TraceSummary.from_record(record).paths == {}


class TestArtifact:
    def test_structure_ids_parents_and_quarantined_timings(self):
        tracer = Tracer()
        record_tree(tracer)
        artifact = trace_artifact(tracer, meta={"label": "t"})
        assert artifact["schema"] == TRACE_SCHEMA
        assert artifact["kind"] == "trace"
        assert artifact["meta"] == {"label": "t"}
        assert [s["id"] for s in artifact["spans"]] == [0, 1, 2, 3]
        assert [s["parent"] for s in artifact["spans"]] == [None, 0, 0, 0]
        assert {t["id"] for t in artifact["timings"]} == {0, 1, 2, 3}
        # no timing field leaks into the structural block
        assert all(
            set(span) == {"id", "parent", "name", "counters"}
            for span in artifact["spans"]
        )

    def test_strip_timings_is_deterministic_across_runs(self):
        payloads = []
        for _ in range(2):
            tracer = Tracer()
            record_tree(tracer)
            artifact = trace_artifact(tracer, meta={"label": "t"})
            payloads.append(
                json.dumps(strip_timings(artifact), sort_keys=True)
            )
        assert payloads[0] == payloads[1]
        assert '"timings"' not in payloads[0]

    def test_spans_from_artifact_rebuilds_and_grafts_the_trace(self):
        tracer = Tracer()
        record_tree(tracer)
        artifact = trace_artifact(tracer)
        rebuilt = Tracer()
        rebuilt.roots = spans_from_artifact(artifact)
        again = trace_artifact(rebuilt)
        assert strip_timings(again) == strip_timings(artifact)
        for got, want in zip(again["timings"], artifact["timings"]):
            assert [got[k] for k in ("start_s", "total_s", "gc_s")] == [
                want[k] for k in ("start_s", "total_s", "gc_s")
            ]
        # Grafted below a span of another tracer, the paths nest under it.
        host = Tracer()
        with host.span("interpreter") as span:
            pass
        span.children.extend(spans_from_artifact(artifact))
        assert path_counters(host)["interpreter/job/evaluate"] == {
            "stages": 5,
            "cache_hits": 1,
        }

    def test_write_read_round_trip(self, tmp_path):
        tracer = Tracer()
        record_tree(tracer)
        artifact = trace_artifact(tracer)
        path = write_trace(tmp_path / "deep" / "trace.json", artifact)
        assert read_trace(path) == artifact

    def test_read_rejects_non_trace_and_newer_schema(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ValueError, match="not a trace artifact"):
            read_trace(bogus)
        future = tmp_path / "future.json"
        future.write_text(
            json.dumps({"kind": "trace", "schema": TRACE_SCHEMA + 1})
        )
        with pytest.raises(ValueError, match="newer"):
            read_trace(future)


class TestExports:
    def test_chrome_trace_events_mirror_spans(self):
        tracer = Tracer()
        record_tree(tracer)
        artifact = trace_artifact(tracer)
        chrome = chrome_trace(artifact)
        events = chrome["traceEvents"]
        assert len(events) == len(artifact["spans"])
        assert all(e["ph"] == "X" for e in events)
        names = [e["name"] for e in events]
        assert names[0] == "job"
        by_name = {e["name"]: e for e in events}
        assert by_name["propagate"]["args"] == {"corners": 4}

    def test_render_span_tree_indents_children(self):
        tracer = Tracer()
        record_tree(tracer)
        lines = render_span_tree(tracer).splitlines()
        assert lines[0].startswith("job")
        assert lines[1].startswith("  evaluate")
        assert "[cache_hits=1, stages=2]" in lines[2]
