"""The asyncio job scheduler: many clients, one warm synthesis pool.

:class:`JobScheduler` accepts :class:`~repro.api.jobs.Job` submissions from
any number of concurrent clients, runs them through a bounded
:class:`~repro.serve.queue.FairQueue` (priority + per-client round-robin,
reject-or-wait backpressure) and dispatches to an existing
:class:`~repro.api.service.SynthesisService` *off-loop*: pooled services are
driven through :meth:`SynthesisService.submit` +
:func:`asyncio.wrap_future`, and in-process services (``max_workers=1``,
where ``submit`` executes inline) are pushed onto the scheduler's thread
bridge so a running job never blocks the event loop.

Deduplication is content-addressed (:func:`repro.runner.spec_fingerprint`):

* a submission whose fingerprint is already **in flight** coalesces onto the
  running leader -- one pool execution, every waiter gets the same record;
* a fingerprint that already **completed** (this process, or any record the
  attached store holds from previous processes) is served from the
  :class:`~repro.serve.cache.ResultCache` without dispatching at all.

Either way the short-circuited submission's ``completed`` event is flagged
``cached=True``; an :class:`~repro.api.records.ErrorRecord` outcome is
propagated to *all* coalesced waiters but never cached, so the next
identical submission re-executes.

Concurrency notes: all mutable scheduler state is touched only from the
owning event loop; the only worker threads are the executor bridge (job
fingerprinting, and inline execution for poolless services), which runs pure
functions and returns results to the loop.  The scheduler opens no tracer
spans (the stack-based :class:`~repro.obs.Tracer` is not safe for spans held
across ``await`` by concurrent coroutines); it reports through
:meth:`JobScheduler.stats` counters.  Those include ``evaluator``: the sum of
the ``evaluator_cache`` of every :class:`~repro.api.records.RunRecord` the
service returned, so work done inside pool workers shows up too (cache hits
and coalesced followers add nothing; Monte Carlo records carry no evaluator
counters).
"""

from __future__ import annotations

import asyncio
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.api.jobs import Job
from repro.api.records import ErrorRecord, Record, RunRecord
from repro.api.service import JobEvent, SynthesisService
from repro.runner import error_record, spec_fingerprint
from repro.serve.cache import ResultCache
from repro.serve.queue import FairQueue, QueueFullError
from repro.serve.session import (
    COMPLETED,
    FAILED,
    QUEUED,
    REJECTED,
    RUNNING,
    JobState,
    SessionRegistry,
)

__all__ = ["JobScheduler", "QueueFullError"]

#: Backpressure policies of a full queue: ``"wait"`` parks the submitter
#: until space frees up, ``"reject"`` raises :class:`QueueFullError`.
POLICIES = ("wait", "reject")


class JobScheduler:
    """Asyncio front door of one :class:`SynthesisService` warm pool."""

    def __init__(
        self,
        service: SynthesisService,
        max_queue: int = 64,
        policy: str = "wait",
        workers: Optional[int] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.service = service
        self.policy = policy
        self.registry = SessionRegistry()
        self.cache = ResultCache(service.store)
        self._queue: FairQueue[JobState] = FairQueue(max_queue)
        #: fingerprint -> [leader, *followers] for work not yet completed.
        self._inflight: Dict[str, List[JobState]] = {}
        self._workers = workers if workers is not None else service.max_workers
        if self._workers < 1:
            raise ValueError("workers must be >= 1")
        #: The annotated executor bridge: fingerprinting always runs here, and
        #: so does the whole job when the service executes in-process -- the
        #: one sanctioned way to call blocking code off the event loop (the
        #: ``blocking-in-async`` lint rule polices the rest).
        self._bridge = ThreadPoolExecutor(
            max_workers=self._workers + 1, thread_name_prefix="repro-serve"
        )
        self._tasks: List["asyncio.Task[None]"] = []
        self._closing = False
        self._closed = False
        #: Jobs actually handed to the service (the dedup denominator).
        self.pool_executions = 0
        #: Summed ``evaluator_cache`` of every run record the service returned.
        self.evaluator: Dict[str, int] = {}
        #: Leader job ids in dispatch order (fairness is observable).
        self.dispatch_order: List[str] = []
        self._completed_jobs = 0
        self.rejected = 0
        # Conditions are created lazily on the running loop (creating them in
        # a loopless constructor binds the wrong loop on Python 3.9).
        self._work: Optional[asyncio.Condition] = None
        self._space: Optional[asyncio.Condition] = None
        self._done: Optional[asyncio.Condition] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _cond(self, name: str) -> asyncio.Condition:
        value: Optional[asyncio.Condition] = getattr(self, name)
        if value is None:
            value = asyncio.Condition()
            setattr(self, name, value)
        return value

    @property
    def started(self) -> bool:
        return bool(self._tasks)

    async def start(self) -> None:
        """Spin up the dispatch loops; submissions made earlier start draining.

        Submitting *before* ``start()`` is supported and deterministic --
        nothing executes until the loops exist, so duplicate submissions
        coalesce without racing the first execution (the serve perf case
        relies on this to measure coalescing exactly).
        """
        if self._closed:
            raise RuntimeError("JobScheduler is closed")
        if self._tasks:
            return
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._dispatch_loop()) for _ in range(self._workers)
        ]

    async def close(self, drain: bool = True) -> None:
        """Stop the dispatch loops (after :meth:`drain` by default).

        ``drain=False`` abandons queued work: dispatch tasks are cancelled,
        queued states keep their non-terminal status, and the owned bridge is
        shut down without waiting.  The service itself is *not* closed -- the
        caller that built it owns it.
        """
        if self._closed:
            return
        if drain and self._tasks:
            await self.drain()
        self._closing = True
        async with self._cond("_work"):
            self._cond("_work").notify_all()
        async with self._cond("_space"):
            self._cond("_space").notify_all()
        if not drain:
            for task in self._tasks:
                task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self._closed = True
        # Non-blocking teardown of the scheduler's own executor bridge.
        self._bridge.shutdown(wait=False)  # repro: lint-ok[blocking-in-async] bridge teardown, wait=False

    async def drain(self) -> None:
        """Wait until every submitted job reached a terminal status."""
        done = self._cond("_done")
        async with done:
            while self.registry.pending():
                await done.wait()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self, job: Job, client: str = "anon", priority: int = 0
    ) -> JobState:
        """Submit one job; returns its :class:`JobState` (streamable at once).

        Raises :class:`QueueFullError` under the ``"reject"`` policy when the
        queue is at capacity, and whatever :func:`spec_fingerprint` raises
        for an invalid spec (callers surface both as client errors).
        """
        if self._closing or self._closed:
            raise RuntimeError("JobScheduler is closing")
        loop = asyncio.get_running_loop()
        fingerprint = await loop.run_in_executor(self._bridge, spec_fingerprint, job)
        state = self.registry.create(
            job=job, client=client, priority=priority, fingerprint=fingerprint
        )

        # In-flight coalescing: attach to the leader, never dispatch.
        peers = self._inflight.get(fingerprint)
        if peers is not None:
            peers.append(state)
            state.coalesced = True
            state.cached = True  # completion will be served without a worker
            self.cache.note_coalesced()
            if peers[0].status == RUNNING:
                state.status = RUNNING
                await state.publish(self._event(state, "started"))
            return state

        # Completed-fingerprint short circuit: memory or store, no dispatch.
        cached = self.cache.lookup(fingerprint)
        if cached is not None:
            state.cached = True
            state.status = RUNNING
            await state.publish(self._event(state, "started"))
            await self._complete(state, cached)
            return state

        self._inflight[fingerprint] = [state]
        await self._enqueue(state)
        return state

    async def _enqueue(self, state: JobState) -> None:
        while True:
            try:
                self._queue.push(state.client, state, priority=state.priority)
            except QueueFullError:
                if self.policy == "reject":
                    del self._inflight[state.fingerprint]
                    state.status = REJECTED
                    self.rejected += 1
                    await self._notify("_done")
                    raise
                space = self._cond("_space")
                async with space:
                    await space.wait()
                if self._closing or self._closed:
                    raise RuntimeError("JobScheduler is closing")
                continue
            await self._notify("_work")
            return

    async def _notify(self, name: str) -> None:
        cond = self._cond(name)
        async with cond:
            cond.notify_all()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            state = await self._next_state()
            if state is None:
                return
            await self._run_state(state, loop)

    async def _next_state(self) -> Optional[JobState]:
        work = self._cond("_work")
        while True:
            if self._closing:
                return None
            item = self._queue.pop()
            if item is not None:
                await self._notify("_space")
                return item.payload
            async with work:
                if self._closing:
                    return None
                if len(self._queue):
                    continue
                await work.wait()

    async def _run_state(self, state: JobState, loop: asyncio.AbstractEventLoop) -> None:
        waiters = self._inflight.get(state.fingerprint, [state])
        for waiter in waiters:
            waiter.status = RUNNING
            await waiter.publish(self._event(waiter, "started"))
        self.pool_executions += 1
        self.dispatch_order.append(state.job_id)
        try:
            if self.service.max_workers == 1:
                # Inline-executing service: the whole job runs on the bridge
                # so the blocking execution never touches the loop.
                future = await loop.run_in_executor(
                    self._bridge, self.service.submit, state.job
                )
            else:
                future = self.service.submit(state.job)
            record: Record = await asyncio.wrap_future(future)
        except Exception:
            record = error_record(state.job, traceback.format_exc())
        if isinstance(record, RunRecord):
            for key, value in record.evaluator_cache.items():
                self.evaluator[key] = self.evaluator.get(key, 0) + value
        # From here to the first await: synchronous, so a new duplicate
        # submission either sees the in-flight entry (coalesces) or, once it
        # is popped, the populated cache (hits) -- never a gap in between.
        waiters = self._inflight.pop(state.fingerprint, [state])
        failed = isinstance(record, ErrorRecord)
        if not failed:
            self.cache.put(state.fingerprint, record)
        for waiter in waiters:
            if failed:
                waiter.cached = False
            await self._complete(waiter, record)
        await self._heartbeat()

    async def _complete(self, state: JobState, record: Record) -> None:
        state.record = record
        state.status = FAILED if isinstance(record, ErrorRecord) else COMPLETED
        self._completed_jobs += 1
        await state.publish(self._event(state, "completed", record=record))
        await self._notify("_done")

    async def _heartbeat(self) -> None:
        """Forward a ``progress`` heartbeat to every still-queued job's stream."""
        queued = self.registry.queued()
        if not queued:
            return
        note = f"{self._completed_jobs} completed; {len(self._queue)} queued"
        for state in queued:
            await state.publish(self._event(state, "progress", note=note))

    def _event(
        self,
        state: JobState,
        kind: str,
        record: Optional[Record] = None,
        note: str = "",
    ) -> JobEvent:
        return JobEvent(
            index=0,
            total=1,
            job=state.job,
            record=record,
            kind=kind,
            cached=state.cached if kind == "completed" else False,
            note=note,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The ``/metrics`` JSON block describing this scheduler."""
        return {
            "queue_depth": len(self._queue),
            "queue_policy": self.policy,
            "queue_max_depth": self._queue.max_depth,
            "workers": self._workers,
            "jobs": len(self.registry),
            "pending": len(self.registry.pending()),
            "completed": self._completed_jobs,
            "rejected": self.rejected,
            "pool_executions": self.pool_executions,
            "cache": self.cache.stats(),
            "evaluator": dict(self.evaluator),
        }
