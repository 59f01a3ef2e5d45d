"""Edge-case tests for the asyncio job scheduler (repro.serve.scheduler).

pytest-asyncio is not a dependency: every test drives its coroutine with a
plain ``asyncio.run`` wrapper (bounded by a watchdog timeout so a deadlock
fails instead of hanging the suite).  Dispatch goes through a duck-typed
stub service whose futures the tests resolve by hand, so in-flight windows
(coalescing, error propagation, stream cancellation) are exact, not timed.
One test uses a real two-worker service, because what it checks -- evaluator
counters coming home from pool workers -- needs a process boundary.
"""

import asyncio
from concurrent.futures import Future

import pytest

from repro.api.jobs import JobSpec
from repro.api.records import ErrorRecord
from repro.api.service import SynthesisService
from repro.runner import error_record, run_job
from repro.serve import JobScheduler, QueueFullError
from repro.serve.session import COMPLETED, FAILED, QUEUED, REJECTED

FAST = ("initial",)


def job(seed=None, sinks=16):
    return JobSpec(
        instance=f"ti:{sinks}", engine="elmore", pipeline=FAST, seed=seed
    )


@pytest.fixture(scope="module")
def record():
    """One real completed record the stub resolves every job with."""
    return run_job(job())


class StubService:
    """Duck-typed SynthesisService: pooled dispatch with hand-held futures."""

    max_workers = 2  # >1: the scheduler calls submit() directly on the loop
    store = None

    def __init__(self, result=None):
        self._result = result  # auto-resolve when set, else tests resolve
        self.executed = []
        self.futures = []

    def submit(self, spec):
        future = Future()
        future.set_running_or_notify_cancel()
        self.executed.append(spec)
        self.futures.append(future)
        if self._result is not None:
            future.set_result(self._result)
        return future


def drive(coro, timeout=30.0):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=timeout)

    return asyncio.run(bounded())


async def until(predicate, timeout=10.0):
    """Spin the loop until ``predicate()`` holds (watchdog-bounded)."""
    async def spin():
        while not predicate():
            await asyncio.sleep(0)

    await asyncio.wait_for(spin(), timeout=timeout)


def kinds(state):
    return [event.kind for event in state.events]


class TestCoalescing:
    def test_duplicate_racing_an_in_flight_leader_coalesces(self, record):
        async def scenario():
            stub = StubService()
            scheduler = JobScheduler(stub, workers=1)
            await scheduler.start()
            leader = await scheduler.submit(job(), client="first")
            # The leader is mid-execution (dispatched, future unresolved)
            # when the duplicate arrives: the race the sync-window design
            # makes safe.
            await until(lambda: stub.executed)
            follower = await scheduler.submit(job(), client="second")
            assert follower.coalesced and follower.cached
            assert follower.fingerprint == leader.fingerprint
            stub.futures[0].set_result(record)
            await scheduler.drain()
            await scheduler.close()
            return stub, scheduler, leader, follower

        stub, scheduler, leader, follower = drive(scenario())
        assert len(stub.executed) == 1
        assert scheduler.pool_executions == 1
        assert leader.status == follower.status == COMPLETED
        assert follower.record is leader.record
        assert not leader.cached and follower.cached
        assert kinds(leader) == kinds(follower) == ["started", "completed"]
        assert [e.cached for e in leader.events] == [False, False]
        assert [e.cached for e in follower.events] == [False, True]
        assert scheduler.cache.stats()["coalesced"] == 1

    def test_duplicate_after_completion_is_a_cache_hit(self, record):
        async def scenario():
            stub = StubService(result=record)
            scheduler = JobScheduler(stub, workers=1)
            await scheduler.start()
            first = await scheduler.submit(job())
            await scheduler.drain()
            second = await scheduler.submit(job())
            await scheduler.close()
            return stub, scheduler, first, second

        stub, scheduler, first, second = drive(scenario())
        assert len(stub.executed) == 1
        assert second.status == COMPLETED
        assert second.cached and not second.coalesced
        assert second.record is first.record
        assert scheduler.cache.stats() == {
            "hits": 1, "misses": 1, "coalesced": 0, "memory_entries": 1,
        }


class TestBackpressure:
    def test_reject_policy_raises_and_marks_the_state(self, record):
        async def scenario():
            stub = StubService(result=record)
            scheduler = JobScheduler(stub, max_queue=1, policy="reject", workers=1)
            # Not started: the first submission occupies the whole queue.
            first = await scheduler.submit(job(seed=1))
            with pytest.raises(QueueFullError):
                await scheduler.submit(job(seed=2))
            rejected = scheduler.registry.states()[-1]
            assert rejected.status == REJECTED
            await scheduler.start()
            await scheduler.close()  # drains the surviving submission
            return stub, scheduler, first, rejected

        stub, scheduler, first, rejected = drive(scenario())
        assert first.status == COMPLETED
        assert rejected.finished and rejected.record is None
        assert kinds(rejected) == []  # no completed event is ever fabricated
        assert scheduler.rejected == 1
        assert len(stub.executed) == 1

    def test_wait_policy_parks_the_submitter_until_space_frees(self, record):
        async def scenario():
            stub = StubService(result=record)
            scheduler = JobScheduler(stub, max_queue=1, policy="wait", workers=1)
            await scheduler.submit(job(seed=1))
            parked = asyncio.get_running_loop().create_task(
                scheduler.submit(job(seed=2))
            )
            for _ in range(10):  # the submitter stays parked pre-start
                await asyncio.sleep(0)
            assert not parked.done()
            await scheduler.start()
            second = await parked
            await scheduler.drain()
            await scheduler.close()
            return stub, scheduler, second

        stub, scheduler, second = drive(scenario())
        assert second.status == COMPLETED
        assert len(stub.executed) == 2
        assert scheduler.rejected == 0


class TestErrorPropagation:
    def test_worker_error_reaches_every_coalesced_waiter_uncached(self, record):
        async def scenario():
            stub = StubService()
            scheduler = JobScheduler(stub, workers=1)
            await scheduler.start()
            leader = await scheduler.submit(job(), client="a")
            await until(lambda: stub.executed)
            follower = await scheduler.submit(job(), client="b")
            stub.futures[0].set_exception(RuntimeError("pool fell over"))
            await scheduler.drain()
            # The failure was not cached: the next identical submission
            # re-executes instead of being served the stale error.
            retry = await scheduler.submit(job(), client="c")
            await until(lambda: len(stub.executed) == 2)
            stub.futures[1].set_result(record)
            await scheduler.drain()
            await scheduler.close()
            return stub, scheduler, leader, follower, retry

        stub, scheduler, leader, follower, retry = drive(scenario())
        assert leader.status == follower.status == FAILED
        for waiter in (leader, follower):
            assert isinstance(waiter.record, ErrorRecord)
            assert "pool fell over" in waiter.record.error
            assert not waiter.cached  # an error is never a cache hit
            assert waiter.events[-1].kind == "completed"
        assert retry.status == COMPLETED and not retry.cached
        assert len(stub.executed) == 2
        assert scheduler.cache.stats()["hits"] == 0

    def test_error_record_result_fails_the_job_without_caching(self):
        failure = error_record(job(), "deterministic failure")

        async def scenario():
            stub = StubService(result=failure)
            scheduler = JobScheduler(stub, workers=1)
            await scheduler.start()
            state = await scheduler.submit(job())
            await scheduler.drain()
            await scheduler.close()
            return scheduler, state

        scheduler, state = drive(scenario())
        assert state.status == FAILED and state.record is failure
        assert scheduler.cache.stats()["memory_entries"] == 0


class TestStreams:
    def test_cancelled_stream_reader_leaves_the_job_unharmed(self, record):
        async def scenario():
            stub = StubService()
            scheduler = JobScheduler(stub, workers=1)
            await scheduler.start()
            state = await scheduler.submit(job())
            seen = []

            async def reader():
                async for event in state.stream():
                    seen.append(event.kind)

            task = asyncio.get_running_loop().create_task(reader())
            await until(lambda: seen == ["started"])
            task.cancel()  # the client hung up mid-stream
            with pytest.raises(asyncio.CancelledError):
                await task
            stub.futures[0].set_result(record)
            await scheduler.drain()
            # A fresh reader replays the full buffered sequence.
            replay = [event.kind async for event in state.stream()]
            await scheduler.close()
            return state, seen, replay

        state, seen, replay = drive(scenario())
        assert state.status == COMPLETED
        assert seen == ["started"]
        assert replay == ["started", "completed"]

    def test_queued_jobs_receive_progress_heartbeats(self, record):
        async def scenario():
            stub = StubService(result=record)
            scheduler = JobScheduler(stub, workers=1)
            first = await scheduler.submit(job(seed=1))
            second = await scheduler.submit(job(seed=2))
            await scheduler.start()
            await scheduler.drain()
            await scheduler.close()
            return first, second

        first, second = drive(scenario())
        assert kinds(first) == ["started", "completed"]
        # The job behind it heard a heartbeat for the completion ahead of it.
        assert kinds(second) == ["progress", "started", "completed"]
        progress = second.events[0]
        assert "1 completed" in progress.note


class TestSchedulingOrder:
    def test_round_robin_across_clients(self, record):
        async def scenario():
            stub = StubService(result=record)
            scheduler = JobScheduler(stub, workers=1)
            a1 = await scheduler.submit(job(seed=1), client="alice")
            a2 = await scheduler.submit(job(seed=2), client="alice")
            b1 = await scheduler.submit(job(seed=3), client="bob")
            await scheduler.start()
            await scheduler.drain()
            await scheduler.close()
            return scheduler, a1, a2, b1

        scheduler, a1, a2, b1 = drive(scenario())
        assert scheduler.dispatch_order == [a1.job_id, b1.job_id, a2.job_id]

    def test_priority_jumps_the_line(self, record):
        async def scenario():
            stub = StubService(result=record)
            scheduler = JobScheduler(stub, workers=1)
            low = await scheduler.submit(job(seed=1), priority=0)
            high = await scheduler.submit(job(seed=2), priority=5)
            await scheduler.start()
            await scheduler.drain()
            await scheduler.close()
            return scheduler, low, high

        scheduler, low, high = drive(scenario())
        assert scheduler.dispatch_order == [high.job_id, low.job_id]


class TestLifecycle:
    def test_submit_after_close_raises(self, record):
        async def scenario():
            scheduler = JobScheduler(StubService(result=record), workers=1)
            await scheduler.start()
            await scheduler.close()
            with pytest.raises(RuntimeError, match="closing"):
                await scheduler.submit(job())

        drive(scenario())

    def test_close_without_drain_abandons_queued_work(self, record):
        async def scenario():
            stub = StubService(result=record)
            scheduler = JobScheduler(stub, workers=1)
            state = await scheduler.submit(job())
            await scheduler.close(drain=False)
            return stub, state

        stub, state = drive(scenario())
        assert state.status == QUEUED and not state.finished
        assert stub.executed == []

    def test_stats_shape(self, record):
        async def scenario():
            scheduler = JobScheduler(StubService(result=record), workers=1)
            await scheduler.start()
            await scheduler.submit(job())
            await scheduler.drain()
            stats = scheduler.stats()
            await scheduler.close()
            return stats

        stats = drive(scenario())
        assert stats["jobs"] == 1 and stats["pending"] == 0
        assert stats["completed"] == 1 and stats["pool_executions"] == 1
        assert stats["queue_depth"] == 0 and stats["queue_policy"] == "wait"
        assert stats["cache"]["misses"] == 1
        assert stats["evaluator"] == record.evaluator_cache

    def test_pool_workers_evaluator_counters_reach_the_stats(self):
        async def scenario():
            with SynthesisService(max_workers=2) as service:
                scheduler = JobScheduler(service)
                await scheduler.start()
                executed = await scheduler.submit(job())
                await scheduler.drain()
                after_run = scheduler.stats()
                hit = await scheduler.submit(job())
                await scheduler.drain()
                after_hit = scheduler.stats()
                await scheduler.close()
            return executed, hit, after_run, after_hit

        executed, hit, after_run, after_hit = drive(scenario(), timeout=120.0)
        # The job ran in a pool worker; its counters came home on the record.
        counters = executed.record.evaluator_cache
        assert counters["misses"] > 0
        assert after_run["evaluator"] == counters
        # A cache hit dispatches nothing and adds nothing.
        assert hit.cached and after_hit["pool_executions"] == 1
        assert after_hit["evaluator"] == counters
