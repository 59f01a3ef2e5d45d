"""The benchmark's four workloads and the checker of their outputs.

Each workload is a closed loop with one client inside this one process: the
next operation starts when the previous one has returned.  Nothing here
starts a pool, a thread or a server; the temporary stores live in a scratch
directory the caller owns and are removed by :meth:`Workload.close`.

Every job seed derives from the one workload seed.  It is the ``seed`` of
each :class:`~repro.api.jobs.McJobSpec` (which picks the Monte Carlo samples
and the gate's scenarios), and it picks the seeds of the replayed jobs.  On
the two synthesis
workloads, whose cost depends on the instance, the workload seed picks the
``JobSpec.seed`` (which picks the TI or scenario instance) from a short list
of instances measured to cost the same; see :data:`FLOW_INSTANCE_SEEDS`.
"""

from __future__ import annotations

import gc
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

from repro.api.jobs import Job, JobSpec, McJobSpec
from repro.api.records import Record, record_from_dict, stable_record
from repro.core.config import BATCHED_PIPELINE
from repro.obs import Tracer
from repro.runner import run_job, run_mc_job, spec_fingerprint
from repro.store import RunStore

#: The workload seed the committed reference records were taken at.
DEFAULT_SEED = 1

#: ti:4000 instance seeds the workload seed picks from.  On each of them the
#: INITIAL tree keeps a slew violation, every IVC round is rejected and the
#: flow spends 18 evaluations (~7 s).  Instances whose rounds are accepted
#: spend 22-26 evaluations and ~30% more time, so drawing from all seeds
#: would spread job_s across seeds wider than any bound the benchmark allows.
FLOW_INSTANCE_SEEDS = (1, 2, 3, 7)
#: Scenario instance seeds for the sweep matrix.  With each job's median of
#: three runs, scaled to the reference host speed, a pass over the matrix
#: took 7.14-7.22 s on these three seeds and 7.36-8.50 s on the other
#: thirteen of seeds 0-15.
SWEEP_INSTANCE_SEEDS = (0, 3, 10)

Output = Union[Record, Dict[str, Any]]


def pick(pool: Sequence[int], seed: int) -> int:
    """The instance seed workload ``seed`` selects from ``pool``."""
    return pool[seed % len(pool)]


def payload(output: Output) -> Dict[str, Any]:
    """The record dict of an operation's output (typed or read from a store)."""
    return output if isinstance(output, dict) else output.to_record()


@dataclass(frozen=True)
class Step:
    """One job of a schedule; ``append_before`` marks store growth first."""

    spec: Job
    append_before: bool = False

    @property
    def key(self) -> str:
        return self.spec.label


class Workload:
    """A named schedule of operations plus the inputs they need."""

    name = ""
    #: Passes over :meth:`schedule` in the traced run, so its counts repeat.
    trace_passes = 1
    #: Steps one timed operation spans: 1, or a whole pass where the steps
    #: differ so much in cost that a median or p90 over single steps would
    #: pick out one job, and jump to another when its cost moves past theirs.
    op_steps = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def prepare(self) -> None:
        """Generate the inputs and warm up; may run again after :meth:`close`."""

    def schedule(self) -> List[Step]:
        """One pass of the closed loop, in order."""
        raise NotImplementedError

    def before(self, step: Step) -> None:
        """Work done ahead of ``step``, outside its latency but in the timed phase."""

    def run(self, step: Step, tracer: Optional[Tracer] = None) -> Output:
        """The timed operation."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever :meth:`prepare` left on disk."""


class FlowLarge(Workload):
    """The default Contango pipeline (arnoldi) on ti:4000, one run_job per operation."""

    name = "flow-large"

    def prepare(self) -> None:
        # A ti:200 warm-up leaves the first ti:4000 job ~20% slower than the
        # next; after a ti:1000 job the first one is as fast as the rest.
        run_job(JobSpec(instance="ti:1000", seed=pick(FLOW_INSTANCE_SEEDS, self.seed)))

    def schedule(self) -> List[Step]:
        return [Step(JobSpec(instance="ti:4000", seed=pick(FLOW_INSTANCE_SEEDS, self.seed)))]

    def run(self, step: Step, tracer: Optional[Tracer] = None) -> Output:
        assert isinstance(step.spec, JobSpec)
        return run_job(step.spec, tracer=tracer)


#: The ``repro sweep --store`` style matrix: two families with blockages, two
#: without, and one job under the K-wide batched pipeline.
SWEEP_MATRIX = (
    ("scenario:maze:sinks=160", None),
    ("scenario:macros:sinks=200", None),
    ("scenario:banks:sinks=200", None),
    ("scenario:strip:sinks=150", None),
    ("scenario:banks:sinks=160", BATCHED_PIPELINE),
)


class SweepObstacles(Workload):
    """One operation is a pass over the matrix, as one ``repro sweep --store`` makes.

    Each job's record is appended to a fresh store and read back by fingerprint.
    """

    name = "sweep-obstacles"
    op_steps = len(SWEEP_MATRIX)
    RUN_ID = "bench-sweep"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.store: Optional[RunStore] = None

    def prepare(self) -> None:
        self.store = RunStore(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        run_job(
            JobSpec(instance="scenario:maze:sinks=24", pipeline=BATCHED_PIPELINE, seed=self.seed)
        )

    def schedule(self) -> List[Step]:
        seed = pick(SWEEP_INSTANCE_SEEDS, self.seed)
        return [
            Step(JobSpec(instance=instance, pipeline=pipeline, seed=seed))
            for instance, pipeline in SWEEP_MATRIX
        ]

    def run(self, step: Step, tracer: Optional[Tracer] = None) -> Output:
        assert self.store is not None and isinstance(step.spec, JobSpec)
        record = run_job(step.spec, tracer=tracer)
        self.store.append(record, run_id=self.RUN_ID)
        stored = self.store.latest_by_fingerprint(str(record.fingerprint))
        if stored != record.to_record():
            raise LookupError(f"{step.key}: the store did not return the record just appended")
        return record

    def close(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
            self.store = None


class YieldMc(Workload):
    """One operation is run_mc_job on an ungated ti:1000 sweep and a gated ti:200 job."""

    name = "yield-mc"
    op_steps = 2

    def prepare(self) -> None:
        run_mc_job(McJobSpec(instance="ti:200", samples=1000, seed=self.seed))

    def schedule(self) -> List[Step]:
        return [
            Step(McJobSpec(instance="ti:1000", samples=10000, seed=self.seed)),
            Step(McJobSpec(instance="ti:200", gated=True, seed=self.seed)),
        ]

    def run(self, step: Step, tracer: Optional[Tracer] = None) -> Output:
        assert isinstance(step.spec, McJobSpec)
        return run_mc_job(step.spec, tracer=tracer)


#: The small real jobs whose records make up the replayed history: five
#: instances of one family and size, so every warm lookup regenerates an
#: instance of the same cost (1.4-1.5 ms for ti:48 over seeds 1-5).  With
#: five families the median lookup was another family's on another seed and
#: job_s ranged over 1.4-2.7 ms across seeds.
REPLAY_INSTANCE = "ti:48"
REPLAY_SOURCES = 5
#: Records in the pre-filled history (~3.4 KB each, ~10 MB in all).
REPLAY_HISTORY = 3000


class StoreReplay(Workload):
    """Cache-hit resubmissions as ``repro serve`` makes them, against a large store.

    One operation is ``spec_fingerprint`` plus ``latest_by_fingerprint`` on a
    reader handle.  Before the first lookup of every pass (one lookup in
    ``REPLAY_SOURCES``) a writer handle on the same directory appends a
    record, so the reader re-indexes the whole file: with one pass in five
    lookups, p90 falls in the middle of the post-append latencies.  The
    workload seed picks the five instance seeds.
    """

    name = "store-replay"
    trace_passes = 6

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.root: Optional[Path] = None
        self.records: Dict[str, Dict[str, Any]] = {}
        self.reader: Optional[RunStore] = None
        self.writer: Optional[RunStore] = None
        self.appended = 0

    def _specs(self) -> List[JobSpec]:
        return [
            JobSpec(instance=REPLAY_INSTANCE, seed=self.seed * REPLAY_SOURCES + index)
            for index in range(REPLAY_SOURCES)
        ]

    def prepare(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        # Wall-clock fields are dropped so the history's bytes repeat exactly.
        self.records = {spec.label: stable_record(run_job(spec)) for spec in self._specs()}
        history = RunStore(self.root)
        sources = list(self.records.values())
        for index in range(REPLAY_HISTORY):
            history.append(sources[index % len(sources)], run_id=f"sweep-{index // len(sources)}")
        self.reader = RunStore(self.root)
        self.writer = RunStore(self.root)
        self.appended = 0
        for step in self.schedule():
            self.run(step)

    def schedule(self) -> List[Step]:
        return [Step(spec, append_before=index == 0) for index, spec in enumerate(self._specs())]

    def before(self, step: Step) -> None:
        if step.append_before:
            assert self.writer is not None
            # Every re-parse starts from the same collector state.  Otherwise
            # about half of them run a full collection, the post-append
            # latencies split in two groups and p90 lands between them.
            gc.collect()
            self.writer.append(self.records[step.key], run_id=f"replay-{self.appended}")
            self.appended += 1

    def run(self, step: Step, tracer: Optional[Tracer] = None) -> Output:
        assert self.reader is not None
        record = self.reader.latest_by_fingerprint(spec_fingerprint(step.spec))
        if record is None:
            raise LookupError(f"{step.key}: store lookup missed")
        return record

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (FlowLarge, SweepObstacles, YieldMc, StoreReplay)
}


class Checker:
    """Decides whether one operation's output is correct.

    On every seed an output must round-trip through ``record_from_dict``,
    carry the fingerprint ``spec_fingerprint`` gives its spec (run records
    only: Monte Carlo records have none), and agree bit for bit with the
    first output of the same job.  With ``reference`` (the default seed) it
    must also equal the reference record of its job.  Every comparison is
    on ``stable_record``, i.e. outside wall-clock fields.
    """

    def __init__(self, reference: Optional[Mapping[str, Dict[str, Any]]]) -> None:
        self.reference = reference
        self._first: Dict[str, Dict[str, Any]] = {}
        self._fingerprints: Dict[str, str] = {}

    def failure(self, step: Step, output: Output) -> Optional[str]:
        """Why ``output`` is wrong, or ``None`` when it is correct."""
        record = payload(output)
        stable = stable_record(record)
        if stable_record(record_from_dict(record).to_record()) != stable:
            return "record does not round-trip through record_from_dict"
        if "fingerprint" in record:
            if step.key not in self._fingerprints:
                self._fingerprints[step.key] = spec_fingerprint(step.spec)
            if record["fingerprint"] != self._fingerprints[step.key]:
                return "fingerprint differs from spec_fingerprint(spec)"
        if stable != self._first.setdefault(step.key, stable):
            return "differs from an earlier operation of the same job"
        if self.reference is not None and stable != self.reference.get(step.key):
            return "differs from the reference record"
        return None

    def self_check(self, step: Step, output: Output) -> bool:
        """True when an altered copy of a checked output is counted as failed."""
        altered = stable_record(payload(output))
        altered["sinks"] = int(altered["sinks"]) + 1
        return self.failure(step, altered) is not None


def verify(checker: Checker, results: Sequence[Tuple[Step, Optional[Output]]]) -> int:
    """Number of failed operations among ``(step, output-or-None)`` pairs.

    ``None`` marks an operation that raised.  Raises :class:`RuntimeError`
    when the checker lets an altered record through.
    """
    failed = 0
    checked = None
    for step, output in results:
        reason = "raised" if output is None else checker.failure(step, output)
        if reason is not None:
            failed += 1
            print(f"repobench: {step.key}: {reason}", file=sys.stderr, flush=True)
        elif checked is None:
            checked = (step, output)
    if checked is not None and not checker.self_check(*checked):
        raise RuntimeError("the checker accepted an altered record")
    return failed
