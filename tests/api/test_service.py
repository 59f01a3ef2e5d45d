"""Tests for the warm-pool SynthesisService facade (repro.api.service)."""

import asyncio

import pytest

from repro.api.jobs import JobMatrix, JobSpec, McJobSpec, MonteCarloAxes
from repro.api.records import ErrorRecord, McRecord, RunRecord
from repro.api.service import JobEvent, SynthesisService
from repro.runner import JobError
from repro.serve import JobScheduler
from repro.serve.session import FAILED
from repro.store import RunStore

from pool_faults import FATAL_SEED, execute_or_exit

FAST = ("initial",)  # initial-tree-only pipeline keeps service tests quick


class TestFacadeCalls:
    def test_synthesize_returns_typed_record(self):
        with SynthesisService() as service:
            record = service.synthesize("ti:30", engine="elmore", pipeline=FAST)
        assert isinstance(record, RunRecord)
        assert record.sinks == 30
        assert record.pipeline == ["initial"]
        assert record.fingerprint

    def test_monte_carlo_returns_typed_record(self):
        with SynthesisService() as service:
            record = service.monte_carlo(
                "ti:30", samples=16, seed=3, pipeline=FAST
            )
        assert isinstance(record, McRecord)
        assert record.yield_.n_samples == 16

    def test_failed_single_job_raises_job_error(self):
        with SynthesisService() as service:
            with pytest.raises(JobError, match="unknown instance spec"):
                service.synthesize("nope:1")

    def test_sweep_runs_a_matrix_in_job_order(self):
        with SynthesisService() as service:
            batch = service.sweep(
                families=["banks"],
                fixed={"sinks": 16},
                sweeps={"clusters": [2, 4]},
                engines=["elmore"],
                pipeline=FAST,
            )
        assert [r.instance for r in batch.records] == [
            "scenario:banks:clusters=2,sinks=16",
            "scenario:banks:clusters=4,sinks=16",
        ]
        assert not batch.failures
        assert batch.wall_clock_s > 0.0

    def test_sweep_accepts_a_prebuilt_matrix(self):
        matrix = JobMatrix(
            instances=["ti:30"],
            engines=["elmore"],
            pipeline=FAST,
            monte_carlo=MonteCarloAxes(samples=(8,)),
        )
        with SynthesisService() as service:
            batch = service.sweep(matrix)
        (record,) = batch.records
        assert isinstance(record, McRecord)
        assert record.samples == 8


class TestStreaming:
    def jobs(self):
        return [
            JobSpec(instance="ti:30", engine="elmore", pipeline=FAST),
            JobSpec(instance="nope:1"),
        ]

    def test_stream_yields_started_and_completed_events(self):
        with SynthesisService() as service:
            events = list(service.stream(self.jobs()))
        assert [(e.index, e.kind) for e in events] == [
            (0, "started"),
            (0, "completed"),
            (1, "started"),
            (1, "completed"),
        ]
        assert all(e.total == 2 for e in events)
        assert all(not e.cached and e.note == "" for e in events)
        assert all(e.record is None for e in events if e.kind == "started")
        completed = [e for e in events if e.kind == "completed"]
        assert [e.failed for e in completed] == [False, True]
        assert isinstance(completed[1].record, ErrorRecord)

    def test_pooled_stream_emits_all_started_events_up_front(self):
        jobs = [
            JobSpec(instance="ti:20", engine="elmore", pipeline=FAST),
            JobSpec(instance="ti:24", engine="elmore", pipeline=FAST),
        ]
        with SynthesisService(max_workers=2) as service:
            kinds = [e.kind for e in service.stream(jobs)]
        assert kinds == ["started", "started", "completed", "completed"]

    def test_traced_service_attaches_span_summaries(self):
        with SynthesisService(trace=True) as traced:
            record = traced.synthesize(
                "ti:30", engine="elmore", pipeline=FAST, seed=5
            )
        assert record.trace is not None
        assert record.trace["schema"] == 1
        assert record.trace["spans"] > 0
        names = {entry["name"] for entry in record.trace["top"]}
        assert "flow:contango" in names
        # Tracing never perturbs results: same job untraced, same fingerprint
        # and summary.
        with SynthesisService() as plain:
            baseline = plain.synthesize(
                "ti:30", engine="elmore", pipeline=FAST, seed=5
            )
        assert baseline.trace is None
        assert baseline.fingerprint == record.fingerprint
        traced_dict, plain_dict = record.to_record(), baseline.to_record()
        for payload in (traced_dict, plain_dict):
            payload.pop("trace", None)
            payload.pop("wall_clock_s")
            payload["summary"].pop("runtime_s")
            for row in payload["stage_table"]:
                row.pop("elapsed_s")
        assert traced_dict == plain_dict

    def test_traced_pool_serializes_spans_back_with_records(self):
        jobs = [
            JobSpec(instance="ti:20", engine="elmore", pipeline=FAST),
            JobSpec(instance="ti:24", engine="elmore", pipeline=FAST),
        ]
        with SynthesisService(max_workers=2, trace=True) as service:
            batch = service.run(jobs)
        assert not batch.failures
        for record in batch.records:
            assert record.trace is not None and record.trace["spans"] > 0

    def test_run_fires_callback_and_collects_in_job_order(self):
        seen = []
        with SynthesisService() as service:
            batch = service.run(self.jobs(), on_event=seen.append)
        assert all(isinstance(e, JobEvent) for e in seen)
        assert len(batch.records) == 2
        assert isinstance(batch.records[0], RunRecord)
        assert len(batch.failures) == 1

    def test_failed_job_yields_error_record_not_crash(self):
        events = []
        with SynthesisService() as service:
            batch = service.run(self.jobs(), on_event=events.append)
        assert sorted(e.index for e in events if e.kind == "completed") == [0, 1]
        assert len(batch.failures) == 1
        assert "unknown instance spec" in batch.failures[0].error

    def test_empty_stream_is_empty(self):
        with SynthesisService() as service:
            assert list(service.stream([])) == []


class TestProgressEvents:
    """The default event sequence's stability (``progress`` events come
    only from the serve scheduler)."""

    jobs = staticmethod(
        lambda: [
            JobSpec(instance="ti:20", engine="elmore", pipeline=FAST),
            JobSpec(instance="ti:24", engine="elmore", pipeline=FAST),
        ]
    )

    @staticmethod
    def shape(event):
        """Every JobEvent field except the record (which carries wall-clock)."""
        return (event.index, event.total, event.kind, event.cached, event.note)

    def test_default_started_completed_events_are_byte_identical(self):
        """stream() yields exactly started/completed per job, in job order,
        with ``cached``/``note`` at their defaults on every event, and two
        services stream field-identical events and records."""
        with SynthesisService() as service:
            first = list(service.stream(self.jobs()))
        with SynthesisService() as service:
            second = list(service.stream(self.jobs()))
        assert [self.shape(e) for e in first] == [
            (0, 2, "started", False, ""),
            (0, 2, "completed", False, ""),
            (1, 2, "started", False, ""),
            (1, 2, "completed", False, ""),
        ]
        assert [self.shape(e) for e in second] == [self.shape(e) for e in first]
        for again, once in zip(
            (e.record for e in second if e.kind == "completed"),
            (e.record for e in first if e.kind == "completed"),
        ):
            assert again.fingerprint == once.fingerprint


class TestSubmit:
    """The future-returning dispatch primitive under the serve scheduler."""

    def test_in_process_submit_resolves_to_a_record(self):
        with SynthesisService() as service:
            future = service.submit(
                JobSpec(instance="ti:20", engine="elmore", pipeline=FAST)
            )
            record = future.result(timeout=0)  # already resolved: ran inline
        assert isinstance(record, RunRecord)
        assert service.jobs_dispatched == 1

    def test_pooled_submit_resolves_to_a_record(self):
        with SynthesisService(max_workers=2) as service:
            future = service.submit(
                JobSpec(instance="ti:20", engine="elmore", pipeline=FAST)
            )
            record = future.result(timeout=300)
        assert isinstance(record, RunRecord)

    def test_failed_job_resolves_to_an_error_record_not_an_exception(self):
        with SynthesisService() as service:
            record = service.submit(JobSpec(instance="nope:1")).result(timeout=0)
        assert isinstance(record, ErrorRecord)
        assert "unknown instance spec" in record.error

    def test_record_is_stored_before_the_future_resolves(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with SynthesisService(store=store, run_id="submit") as service:
            record = service.submit(
                JobSpec(instance="ti:20", engine="elmore", pipeline=FAST)
            ).result(timeout=0)
        stored = store.records(run_id="submit")
        assert [row["fingerprint"] for row in stored] == [record.fingerprint]

    def test_closed_service_refuses_submit(self):
        service = SynthesisService()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(JobSpec(instance="ti:20"))


class FullStore(RunStore):
    """A store whose every append fails, as on a full disk."""

    def append(self, record, run_id):
        raise OSError(28, "No space left on device")


class TestFailingStore:
    """A store write that raises must surface as an error, never a hang."""

    job = JobSpec(instance="ti:20", engine="elmore", pipeline=FAST)

    def test_pooled_submit_resolves_with_the_store_error(self, tmp_path):
        with SynthesisService(max_workers=2, store=FullStore(tmp_path)) as service:
            future = service.submit(self.job)
            with pytest.raises(OSError, match="No space left"):
                future.result(timeout=30)

    def test_pooled_stream_raises_the_store_error(self, tmp_path):
        with SynthesisService(max_workers=2, store=FullStore(tmp_path)) as service:
            with pytest.raises(OSError, match="No space left"):
                list(service.stream([self.job]))

    def test_scheduled_job_fails_instead_of_hanging(self, tmp_path):
        async def scenario():
            scheduler = JobScheduler(service, max_queue=4)
            await scheduler.start()
            try:
                state = await scheduler.submit(self.job)
                await asyncio.wait_for(scheduler.drain(), timeout=30)
            finally:
                await scheduler.close(drain=False)  # never wait on a hung job
            return state

        with SynthesisService(max_workers=2, store=FullStore(tmp_path)) as service:
            state = asyncio.run(scenario())
        assert state.status == FAILED
        assert "No space left" in state.record.error


class TestAttachedStore:
    def test_every_call_is_recorded_and_content_addressed(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with SynthesisService(store=store, run_id="api") as service:
            record = service.synthesize("ti:30", engine="elmore", pipeline=FAST)
            service.monte_carlo("ti:30", samples=8, seed=3, pipeline=FAST)
            with pytest.raises(JobError):
                service.synthesize("nope:1")
        stored = store.typed_records(run_id="api")
        assert [type(r) for r in stored] == [RunRecord, McRecord, ErrorRecord]
        assert stored[0].to_record() == record.to_record()
        (envelope,) = store.entries(instance="ti:30", flow="contango")[:1]
        assert envelope["fingerprint"] == record.fingerprint

    def test_store_path_is_accepted_directly(self, tmp_path):
        with SynthesisService(store=str(tmp_path / "s")) as service:
            service.synthesize("ti:30", engine="elmore", pipeline=FAST)
        assert len(RunStore(tmp_path / "s").records(run_id="service")) == 1

    def test_compare_diffs_two_store_runs(self, tmp_path):
        store = RunStore(tmp_path / "store")
        for run_id in ("base", "cand"):
            with SynthesisService(store=store, run_id=run_id) as service:
                service.synthesize("ti:30", engine="elmore", pipeline=FAST)
        with SynthesisService(store=store) as service:
            result = service.compare("base", "cand")
        (row,) = result.rows
        assert not row.regressed
        assert not row.fingerprint_changed

    def test_compare_without_store_is_an_error(self):
        with SynthesisService() as service:
            with pytest.raises(ValueError, match="attached RunStore"):
                service.compare("a", "b")

    def test_bad_run_id_rejected_at_construction(self):
        with pytest.raises(ValueError, match="run_id"):
            SynthesisService(run_id="has space")


class TestWarmPool:
    def test_workers_are_reused_across_calls(self):
        with SynthesisService(max_workers=2) as service:
            assert not service.pool_started
            service.run(
                [JobSpec(instance="ti:20", engine="elmore", pipeline=FAST),
                 JobSpec(instance="ti:24", engine="elmore", pipeline=FAST)]
            )
            assert service.pool_started
            service.synthesize("ti:20", engine="elmore", pipeline=FAST)
            service.run([JobSpec(instance="ti:20", engine="elmore", pipeline=FAST)])
            assert service.pools_created == 1
            assert service.jobs_dispatched == 4

    def test_parallel_results_match_in_process_results(self):
        jobs = [
            JobSpec(instance="ti:20", engine="elmore", pipeline=FAST),
            JobSpec(instance="ti:24", engine="elmore", pipeline=FAST),
        ]
        with SynthesisService(max_workers=1) as inproc:
            serial = inproc.run(jobs)
        with SynthesisService(max_workers=2) as pooled:
            parallel = pooled.run(jobs)

        def comparable(record):
            summary = record.summary.to_record()
            summary.pop("runtime_s")
            return (record.job, record.fingerprint, summary)

        assert [comparable(r) for r in serial.records] == [
            comparable(r) for r in parallel.records
        ]

    def test_closed_service_refuses_work(self):
        service = SynthesisService()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(service.stream([JobSpec(instance="ti:20", pipeline=FAST)]))

    def test_broken_pool_is_replaced_not_cached(self):
        # A worker killed mid-call (OOM/segfault) leaves the executor in the
        # BrokenProcessPool state; a long-lived service must recover on the
        # next call instead of raising forever.  The broken flag is forced
        # directly (crashing a real worker deterministically is platform
        # teardown the synthesis jobs cannot provide).
        job = JobSpec(instance="ti:20", engine="elmore", pipeline=FAST)
        with SynthesisService(max_workers=2) as service:
            first = service.run([job])
            assert not first.failures
            service._executor._broken = "simulated worker death"
            second = service.run([job])
            assert not second.failures
            assert service.pools_created == 2
        assert first.records[0].fingerprint == second.records[0].fingerprint

    def test_killed_worker_ends_as_error_record_and_pool_recovers(self, monkeypatch):
        # A worker process that really dies: the pool breaks, the killed job
        # settles as an error record, and the next submit replaces the pool.
        job = JobSpec(instance="ti:20", engine="elmore", pipeline=FAST)
        fatal = JobSpec(instance="ti:20", engine="elmore", pipeline=FAST, seed=FATAL_SEED)
        with SynthesisService(max_workers=2) as service:
            monkeypatch.setattr(service, "_worker", execute_or_exit)
            killed = service.submit(fatal).result(timeout=120)
            assert isinstance(killed, ErrorRecord)
            assert killed.seed == FATAL_SEED
            assert "BrokenProcessPool" in killed.error
            survivor = service.submit(job).result(timeout=120)
            assert isinstance(survivor, RunRecord)
            assert service.pools_created == 2

    def test_in_process_mode_never_starts_a_pool(self):
        with SynthesisService(max_workers=1) as service:
            service.synthesize("ti:20", engine="elmore", pipeline=FAST)
            assert not service.pool_started
            assert service.pools_created == 0
