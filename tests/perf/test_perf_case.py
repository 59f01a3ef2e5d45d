"""Unit tests for the PerfCase registry and the run_case entry builder."""

import json
import os

import pytest

from repro.api.jobs import JobSpec
from repro.obs import Tracer, path_counters, strip_timings
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
from repro.perf.cases import RunnerCase, StartupCase, StoreCase
from repro.runner import run_job
from repro.store.log import encode_line


class TinyCase(PerfCase):
    """Deterministic stub: fixed span and case counters, one check."""

    name = "tiny"
    description = "test stub"
    repeats = 2

    def fingerprint(self):
        return "feedc0de"

    def run_once(self, tracer):
        with tracer.span("work") as span:
            span.count("widgets", 3)
            with tracer.span("inner") as inner:
                inner.count("widgets", 1)
        outcome = CaseOutcome()
        outcome.counters["extra"] = 5
        outcome.timings["phase_s"] = 0.001
        outcome.checks.append(CaseCheck(name="always", ok=True, detail="fine"))
        outcome.checks.append(
            CaseCheck(name="floor", ok=True, detail="fast enough", timing=True)
        )
        return outcome


class WobblyCase(TinyCase):
    """Counters that differ between repeats -- must fail the built-in check."""

    name = "wobbly"

    def __init__(self):
        self.calls = 0

    def run_once(self, tracer):
        self.calls += 1
        outcome = super().run_once(tracer)
        outcome.counters["extra"] = self.calls
        return outcome


class TestRegistry:
    def test_built_in_cases_are_registered(self):
        assert {
            "evaluator",
            "variation",
            "service",
            "runner",
            "propagation",
            "trace",
            "store",
            "startup",
        } <= set(available_cases())

    def test_register_requires_a_name(self, monkeypatch):
        monkeypatch.setattr("repro.perf.case.CASE_REGISTRY", {})

        with pytest.raises(ValueError, match="non-empty 'name'"):

            @register_case
            class Nameless(PerfCase):
                pass

    def test_register_rejects_duplicates(self, monkeypatch):
        monkeypatch.setattr("repro.perf.case.CASE_REGISTRY", {"tiny": TinyCase})
        with pytest.raises(ValueError, match="already registered"):
            register_case(TinyCase)

    def test_resolve_unknown_name_lists_the_registry(self):
        with pytest.raises(KeyError, match="unknown perf case"):
            resolve_cases(["no-such-case"])

    def test_resolve_default_is_every_case_sorted(self, monkeypatch):
        monkeypatch.setattr(
            "repro.perf.case.CASE_REGISTRY",
            {"b": TinyCase, "a": TinyCase},
        )
        assert [type(c).name for c in resolve_cases()] == ["tiny", "tiny"]


class TestTimingStats:
    def test_median_and_iqr_of_a_known_series(self):
        stats = timing_stats([4.0, 1.0, 2.0, 3.0])
        assert stats["n"] == 4
        assert stats["median"] == pytest.approx(2.5)
        assert stats["iqr"] == pytest.approx(1.5)  # q75=3.25, q25=1.75
        assert stats["min"] == 1.0 and stats["max"] == 4.0

    def test_single_sample_has_zero_iqr(self):
        stats = timing_stats([0.25])
        assert stats["median"] == 0.25
        assert stats["iqr"] == 0.0

    def test_empty_series_is_all_zero(self):
        assert timing_stats([])["median"] == 0.0


class TestRunCase:
    def test_entry_shape_and_counter_sources(self):
        entry = run_case(TinyCase(), package_version="1.2.3")
        assert entry["schema"] == PERF_SCHEMA
        assert entry["kind"] == "perf-case"
        assert entry["case"] == "tiny"
        assert entry["package_version"] == "1.2.3"
        assert entry["fingerprint"] == "feedc0de"
        # Merged counters: span counters + case counters, nothing else.
        assert entry["counters"] == {"extra": 5, "widgets": 4}
        # Per-path counters keep the tree structure.
        assert entry["span_counters"]["work"] == {"widgets": 3}
        assert entry["span_counters"]["work/inner"] == {"widgets": 1}
        # The timing quarantine: repeats, wall clock, spans, extra, checks.
        timings = entry["timings"]
        assert timings["repeats"] == 2
        assert timings["wall_clock_s"]["n"] == 2
        assert timings["extra"]["phase_s"]["median"] == pytest.approx(0.001)
        assert [c["name"] for c in timings["checks"]] == ["floor"]
        assert [c["name"] for c in entry["checks"]] == [
            "always",
            "counters_deterministic",
        ]
        assert all(c["ok"] for c in entry["checks"])

    def test_nondeterministic_counters_fail_the_built_in_check(self):
        entry = run_case(WobblyCase())
        checks = {c["name"]: c for c in entry["checks"]}
        assert not checks["counters_deterministic"]["ok"]

    def test_deterministic_remainder_is_byte_identical_across_runs(self):
        one = json.dumps(strip_timings(run_case(TinyCase())), sort_keys=True)
        two = json.dumps(strip_timings(run_case(TinyCase())), sort_keys=True)
        assert one == two

    def test_repeats_override_is_clamped_to_one(self):
        entry = run_case(TinyCase(), repeats=0)
        assert entry["timings"]["repeats"] == 1

    def test_registry_holds_classes_not_instances(self):
        for name in available_cases():
            assert isinstance(CASE_REGISTRY[name], type)


class SmallRunnerCase(RunnerCase):
    """The runner case shrunk to a 2-job ti:30 matrix on 2 workers."""

    INSTANCE = "ti:30"
    JOBS = 2
    WORKERS = 2
    repeats = 1


class TestRunnerCase:
    def test_records_counters_parity_and_a_truthful_speedup_flag(self):
        entry = run_case(SmallRunnerCase())
        counters = entry["counters"]
        assert (counters["jobs"], counters["workers"], counters["failures"]) == (2, 2, 0)
        checks = {check["name"]: check["ok"] for check in entry["checks"]}
        assert checks["pooled_records_match_in_process"]
        assert {"serial", "parallel"} <= set(entry["timings"]["spans"])
        # The single-CPU flag must be present and truthful, so downstream
        # gates can trust it instead of re-deriving it.
        extra = entry["timings"]["extra"]
        cpu_count = os.cpu_count() or 1
        assert extra["speedup_meaningful"]["median"] == float(cpu_count > 1)
        assert extra["serial_s"]["median"] > 0.0
        assert extra["parallel_s"]["median"] > 0.0
        (speedup_check,) = entry["timings"]["checks"]
        if cpu_count >= 4:
            # With real cores available the pooled matrix must win; on a
            # starved host only both timings are required.
            assert extra["speedup"]["median"] > 1.0
            assert speedup_check["ok"]


class SmallStoreCase(StoreCase):
    """The store case shrunk to a 40-envelope store and one repeat."""

    RECORDS = 40
    repeats = 1


class TestStoreCase:
    def test_the_tail_lookup_parses_only_the_appended_line(self):
        case = SmallStoreCase()
        entry = run_case(case)
        history = sum(len(encode_line(case._envelope(i))) for i in range(case.RECORDS))
        assert entry["counters"] == {
            "build_bytes_parsed": history,
            "hits": 2,
            "lookups": 2,
            "rebuilds": 1,
            "records": 40,
            "tail_bytes_parsed": len(encode_line(case._envelope(case.RECORDS))),
        }
        assert all(check["ok"] for check in entry["checks"])
        assert {"first_lookup", "tail_lookup"} <= set(entry["timings"]["spans"])
        assert [check["name"] for check in entry["timings"]["checks"]] == [
            "tail_speedup_floor"
        ]


class TestStartupCase:
    def test_the_fresh_interpreter_trace_hangs_below_its_span(self):
        entry = run_case(StartupCase(), repeats=1)
        assert all(check["ok"] for check in entry["checks"])
        assert entry["counters"]["repro_modules"] > 0
        assert {"interpreter", "interpreter/import_job_stack", "interpreter/job"} <= set(
            entry["timings"]["spans"]
        )
        # The child's span counters arrive intact: they equal an in-process
        # trace of the same job.
        tracer = Tracer()
        run_job(JobSpec(instance=StartupCase.INSTANCE, engine="arnoldi"), tracer=tracer)
        assert entry["span_counters"] == {
            f"interpreter/{path}": counters
            for path, counters in path_counters(tracer).items()
        }
