"""`SynthesisService`: the long-lived, warm-pool execution facade.

The service is the one owner of worker processes in the package: the CLI,
the :mod:`repro.serve` scheduler and the perf cases all fan jobs out through
it, while :mod:`repro.runner` only executes one job at a time.  It is built
to *stay up*: it owns one :class:`~concurrent.futures.ProcessPoolExecutor`
that is created on first use and reused across every subsequent call, so
repeated small requests -- the traffic shape of a synthesis service, as
opposed to a nightly sweep -- pay the worker spawn cost once instead of per
call (``repro perf run --case service`` tracks the difference).

The facade speaks the typed API end to end:

* :meth:`synthesize` / :meth:`monte_carlo` -- one job, returning a
  :class:`~repro.api.records.RunRecord` / :class:`~repro.api.records.McRecord`
  (a failed job raises :class:`~repro.runner.JobError` with the worker-side
  traceback);
* :meth:`sweep` -- a whole :class:`~repro.api.jobs.JobMatrix` (or keyword
  axes), returning records in job order;
* :meth:`stream` / :meth:`run` -- the general interface: an iterator of
  :class:`JobEvent` (as jobs complete) or a collected :class:`ServiceBatch`
  with an optional per-event callback;
* :meth:`compare` -- diff two run selections of the attached store.

Attach a :class:`~repro.store.RunStore` and every completed record -- errors
included -- is appended under the service's ``run_id`` before its event is
delivered, so being recorded and content-addressed is not something callers
can forget.

The service is a context manager; :meth:`close` shuts the pool down.  The
CLI subcommands (``repro run`` / ``sweep`` / ``mc``) are thin adapters over
one short-lived service each.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import Executor, Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.jobs import Job, JobMatrix, JobSpec, McJobSpec, MonteCarloAxes
from repro.api.records import ErrorRecord, McRecord, Record, RunRecord
from repro.runner import (
    JobError,
    error_record,
    execute_job_guarded,
    execute_job_traced,
)
from repro.store import CompareTolerances, ComparisonResult, RunStore, diff_records

__all__ = ["JobEvent", "ServiceBatch", "SynthesisService"]


@dataclass(frozen=True)
class JobEvent:
    """One job lifecycle notification, delivered through the streaming interface.

    ``kind`` says which moment of the job's life this is:

    * ``"started"`` -- the job was handed to a worker (``record`` is
      ``None``); long sweeps show liveness before the first completion.
    * ``"completed"`` -- the job finished; ``record`` carries its typed
      result (an :class:`~repro.api.records.ErrorRecord` on failure).
    * ``"progress"`` -- a mid-batch heartbeat for a job that is still
      pending: the :mod:`repro.serve` scheduler publishes one to every
      still-queued job's stream.  ``note`` carries the human-readable
      heartbeat text.  :meth:`SynthesisService.stream` never emits one.

    ``cached`` marks a completion served from the content-addressed result
    cache of :mod:`repro.serve` (no worker ran for *this* submission); both
    new fields default to their zero values so events from producers that
    predate them are indistinguishable from before.
    """

    index: int
    total: int
    job: Job
    record: Optional[Record] = None
    kind: str = "completed"
    cached: bool = False
    note: str = ""

    @property
    def failed(self) -> bool:
        return isinstance(self.record, ErrorRecord)


@dataclass
class ServiceBatch:
    """Outcome of one service call: typed records (in job order) plus timing."""

    jobs: List[Job]
    records: List[Record]
    wall_clock_s: float
    workers: int

    @property
    def failures(self) -> List[ErrorRecord]:
        return [record for record in self.records if isinstance(record, ErrorRecord)]


#: Event callback signature of :meth:`SynthesisService.run`.
EventCallback = Callable[[JobEvent], None]


class SynthesisService:
    """Long-lived synthesis facade with a persistent warm worker pool.

    Parameters
    ----------
    max_workers:
        Worker process count.  ``1`` executes in-process (no pool at all --
        deterministic ordering, zero IPC overhead); higher counts create one
        :class:`~concurrent.futures.ProcessPoolExecutor` lazily and keep it
        warm across calls until :meth:`close`.
    store:
        Optional :class:`~repro.store.RunStore` (or a path understood by its
        constructor).  When attached, every completed record of every call
        is appended under ``run_id``.
    run_id:
        Store tag for this service's appends (default ``"service"``).
    trace:
        When true, every job runs under a fresh :class:`~repro.obs.Tracer`
        (in the worker process) and its record carries the ``trace``
        summary.  Results are bit-identical to untraced runs.
    """

    def __init__(
        self,
        max_workers: int = 1,
        store: Union[RunStore, str, None] = None,
        run_id: str = "service",
        trace: bool = False,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.trace = trace
        self._worker = execute_job_traced if trace else execute_job_guarded
        self.store: Optional[RunStore] = (
            store if isinstance(store, RunStore) or store is None else RunStore(store)
        )
        self.run_id = RunStore.check_run_id(run_id)
        self._executor: Optional[Executor] = None
        #: Total jobs dispatched since construction (pool-reuse telemetry).
        self.jobs_dispatched = 0
        #: Pools created over the service lifetime (stays at 1 across calls
        #: unless a broken pool had to be replaced).
        self.pools_created = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def pool_started(self) -> bool:
        """True once the warm pool exists (it never exists at ``max_workers=1``)."""
        return self._executor is not None

    def _pool(self) -> Executor:
        if self._closed:
            raise RuntimeError("SynthesisService is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
            self.pools_created += 1
        return self._executor

    def close(self) -> None:
        """Shut the warm pool down; the service cannot dispatch afterwards."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._closed = True

    def __enter__(self) -> "SynthesisService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Core streaming execution
    # ------------------------------------------------------------------
    def stream(self, jobs: Iterable[Job]) -> Iterator[JobEvent]:
        """Execute ``jobs``, yielding ``started``/``completed`` events.

        Every job produces a ``kind="started"`` event when it is handed to a
        worker and a ``kind="completed"`` event when it finishes.  With
        workers, all jobs are submitted up front (so every ``started`` event
        arrives first) and completions stream in *completion* order; in-process
        execution interleaves started/completed in job order.  Every completed
        record is appended to the attached store before its event is
        delivered; a store write that raises is re-raised here instead.
        """
        job_list = list(jobs)
        if not job_list:
            return
        if self._closed:
            raise RuntimeError("SynthesisService is closed")
        self.jobs_dispatched += len(job_list)
        total = len(job_list)
        if self.max_workers == 1:
            for index, job in enumerate(job_list):
                yield JobEvent(index=index, total=total, job=job, kind="started")
                record = self._dispatch(job).result()
                yield JobEvent(index=index, total=total, job=job, record=record)
            return
        futures: Dict["Future[Record]", int] = {}
        for index, job in enumerate(job_list):
            futures[self._dispatch(job)] = index
            yield JobEvent(index=index, total=total, job=job, kind="started")
        for future in as_completed(futures):
            index = futures[future]
            yield JobEvent(
                index=index, total=total, job=job_list[index], record=future.result()
            )

    def submit(self, job: Job) -> "Future[Record]":
        """Dispatch one job and return a future for its record, never blocking
        on the *result* (at ``max_workers=1`` the job runs inline before the
        call returns, exactly like every other in-process code path).

        The returned future resolves to a :class:`Record` -- a failed job and
        pool infrastructure failures (a dead worker, a broken pipe) alike
        degrade to the job's :class:`~repro.api.records.ErrorRecord` -- and
        the record is appended to the attached store *before* the future
        resolves, so a waiter that sees the result can rely on it being
        recorded.  A store write that raises resolves the future with that
        error instead.  This is the :mod:`repro.serve` scheduler's dispatch
        primitive: it hands the future to ``asyncio.wrap_future`` and awaits
        it off-loop.
        """
        if self._closed:
            raise RuntimeError("SynthesisService is closed")
        self.jobs_dispatched += 1
        return self._dispatch(job)

    def _dispatch(self, job: Job) -> "Future[Record]":
        """Run ``job`` inline or hand it to the pool (the one dispatch path of
        :meth:`submit` and :meth:`stream`)."""
        result: "Future[Record]" = Future()
        result.set_running_or_notify_cancel()
        if self.max_workers == 1:
            try:
                record = self._worker(job)
            except Exception:  # the guarded worker never raises; belt-and-braces
                record = error_record(job, traceback.format_exc())
            self._settle(result, record)
            return result

        def _resolve(done: "Future[Record]") -> None:
            try:
                record = done.result()
            except Exception:  # pool infrastructure failure
                record = error_record(job, traceback.format_exc())
            self._settle(result, record)

        pool = self._pool()
        try:
            future = pool.submit(self._worker, job)
        except BrokenProcessPool:
            # A worker killed mid-call (OOM, segfault) leaves the pool broken:
            # that call's jobs already settled as error records, but every
            # later submit raises.  A long-lived service replaces the pool
            # once and resubmits.
            pool.shutdown(wait=False)
            self._executor = None
            future = self._pool().submit(self._worker, job)
        future.add_done_callback(_resolve)
        return result

    def _settle(self, result: "Future[Record]", record: Record) -> None:
        """Store ``record``, then resolve ``result`` with it -- or with the
        store's error: ``concurrent.futures`` logs and swallows an exception
        raised by a done-callback, which would leave ``result`` pending."""
        try:
            if self.store is not None:
                self.store.append(record, run_id=self.run_id)
        except Exception as error:
            result.set_exception(error)
        else:
            result.set_result(record)

    def run(
        self, jobs: Iterable[Job], on_event: Optional[EventCallback] = None
    ) -> ServiceBatch:
        """Execute ``jobs`` and collect a :class:`ServiceBatch` in job order.

        ``on_event`` fires for every event (``started`` and ``completed``)
        while the rest of the batch is still running; the batch collects the
        completed records.
        """
        start = time.perf_counter()  # repro: lint-ok[untimed-wallclock]
        job_list = list(jobs)
        records: List[Optional[Record]] = [None] * len(job_list)
        for event in self.stream(job_list):
            if event.kind == "completed":
                records[event.index] = event.record
            if on_event is not None:
                on_event(event)
        return ServiceBatch(
            jobs=job_list,
            records=[record for record in records if record is not None],
            wall_clock_s=time.perf_counter() - start,  # repro: lint-ok[untimed-wallclock]
            workers=self.max_workers,
        )

    # ------------------------------------------------------------------
    # The typed facade
    # ------------------------------------------------------------------
    def _single(self, job: Job) -> Record:
        (event,) = [e for e in self.stream([job]) if e.kind == "completed"]
        if isinstance(event.record, ErrorRecord):
            raise JobError(
                f"job {event.record.job!r} failed:\n{event.record.error}"
            )
        assert event.record is not None  # completed events always carry one
        return event.record

    def synthesize(
        self,
        instance: str,
        flow: str = "contango",
        engine: str = "arnoldi",
        pipeline: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
    ) -> RunRecord:
        """Run one synthesis job and return its typed record (raises on failure)."""
        record = self._single(
            JobSpec(
                instance=instance,
                flow=flow,
                engine=engine,
                pipeline=tuple(pipeline) if pipeline is not None else None,
                seed=seed,
            )
        )
        assert isinstance(record, RunRecord)
        return record

    def monte_carlo(
        self,
        instance: str,
        flow: str = "contango",
        engine: str = "arnoldi",
        samples: int = 1000,
        family: str = "independent",
        seed: int = 7,
        skew_limit_ps: float = 7.5,
        gated: bool = False,
        gate_samples: Optional[int] = None,
        pipeline: Optional[Sequence[str]] = None,
    ) -> McRecord:
        """Synthesize + Monte Carlo-evaluate one instance (raises on failure)."""
        record = self._single(
            McJobSpec(
                instance=instance,
                flow=flow,
                engine=engine,
                pipeline=tuple(pipeline) if pipeline is not None else None,
                seed=seed,
                samples=samples,
                family=family,
                skew_limit_ps=skew_limit_ps,
                gated=gated,
                gate_samples=gate_samples,
            )
        )
        assert isinstance(record, McRecord)
        return record

    def sweep(
        self,
        matrix: Optional[JobMatrix] = None,
        *,
        instances: Sequence[str] = (),
        families: Sequence[str] = (),
        fixed: Optional[Mapping[str, Any]] = None,
        sweeps: Optional[Mapping[str, Sequence[Any]]] = None,
        flows: Sequence[str] = ("contango",),
        engines: Sequence[str] = ("arnoldi",),
        pipeline: Optional[Tuple[str, ...]] = None,
        seed: Optional[int] = None,
        monte_carlo: Optional[MonteCarloAxes] = None,
        on_event: Optional[EventCallback] = None,
    ) -> ServiceBatch:
        """Expand a job matrix and run it through the warm pool.

        Pass a ready :class:`~repro.api.jobs.JobMatrix`, or describe one
        with the keyword axes (the ``repro sweep`` vocabulary).
        """
        if matrix is None:
            matrix = JobMatrix(
                instances=instances,
                families=families,
                fixed=dict(fixed or {}),
                sweeps=dict(sweeps or {}),
                flows=flows,
                engines=engines,
                pipeline=pipeline,
                seed=seed,
                monte_carlo=monte_carlo,
            )
        return self.run(matrix.expand(), on_event=on_event)

    def compare(
        self,
        baseline_run_id: str,
        candidate_run_id: str,
        tolerances: CompareTolerances = CompareTolerances(),
    ) -> ComparisonResult:
        """Diff two run ids of the attached store (requires ``store``)."""
        if self.store is None:
            raise ValueError("compare() needs a service with an attached RunStore")
        return diff_records(
            self.store.records(run_id=baseline_run_id),
            self.store.records(run_id=candidate_run_id),
            tolerances,
        )
