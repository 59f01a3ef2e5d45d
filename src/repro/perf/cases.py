"""The registered perf cases, each run with ``repro perf run --case <name>``.

Each case is one measurement as a registered
:class:`~repro.perf.case.PerfCase`: the workload runs under the
supplied tracer (so span paths and span counters land in the ledger entry),
every timed region is a span (``span.total_s`` after the ``with`` block --
no raw ``time.perf_counter`` calls, per the ``untimed-wallclock`` rule),
deterministic facts become counters or deterministic checks, and the old
hard acceptance floors (variation 20x, dirty-region 5x, candidate batch 3x,
disabled-trace overhead <2%) become ``timing=True`` checks so they gate in
``repro perf compare`` without contaminating the byte-stable remainder.
"""

from __future__ import annotations

import gc
import hashlib
import json
import operator
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis.variation import VariationModel, default_variation_model
from repro.api.jobs import JobSpec
from repro.api.records import stable_record
from repro.api.service import SynthesisService
from repro.buffering import enumerate_stations, insert_buffers_with_sizing
from repro.core import ContangoFlow, FlowConfig
from repro.core.composite import analyze_composites
from repro.cts.spec import ClockNetworkInstance
from repro.cts.tree import ClockTree
from repro.obs import (
    NULL_TRACER,
    Span,
    Tracer,
    TracerBase,
    spans_from_artifact,
    summarize,
)
from repro.perf.case import CaseCheck, CaseOutcome, PerfCase, register_case
from repro.runner import resolve_instance, run_job
from repro.seeding import derive_rng
from repro.store import STORE_SCHEMA_VERSION, RunStore
from repro.store.log import encode_line
from repro.testing import make_initial_tree
from repro.workloads import generate_ti_benchmark, instance_fingerprint

__all__ = [
    "BufferingCase",
    "EvaluatorCase",
    "VariationCase",
    "ServiceCase",
    "RunnerCase",
    "PropagationCase",
    "TraceCase",
    "ServeCase",
    "StoreCase",
    "StartupCase",
]

SINKS = 200
ENGINE = "arnoldi"


def _span_s(span: Optional[Span]) -> float:
    """Elapsed seconds of a closed span (0.0 under a disabled tracer)."""
    return span.total_s if span is not None else 0.0


def _prefixed(prefix: str, stats: Dict[str, int]) -> Dict[str, int]:
    return {f"{prefix}{key}": int(value) for key, value in stats.items()}


@register_case
class EvaluatorCase(PerfCase):
    """The 200-sink TI Contango flow as one traced runner job.

    Run with ``repro perf run --case evaluator``: the flow's evaluator
    counters (evaluations, cache hits/misses, propagation splits) arrive
    through the span tree, quality metrics stay with the store regression
    gate, and the wall-clock is the entry's median over repeats.
    """

    name = "evaluator"
    description = f"ti:{SINKS} contango flow ({ENGINE}): evaluator + cache counters"
    repeats = 3

    def fingerprint(self) -> str:
        return instance_fingerprint(generate_ti_benchmark(SINKS))

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        record = run_job(
            JobSpec(instance=f"ti:{SINKS}", flow="contango", engine=ENGINE),
            tracer=tracer,
        )
        outcome = CaseOutcome()
        outcome.counters["slew_violations"] = int(record.summary.slew_violations)
        outcome.counters.update(_prefixed("cache_", record.evaluator_cache))
        return outcome


@register_case
class BufferingCase(PerfCase):
    """The INITIAL stage's composite-inverter buffering sweep on two trees.

    Run with ``repro perf run --case buffering``: the default flow's
    four-inverter sweep on the ti:4000 seed-1 DME tree (no obstacles, few
    stations; the strongest inverter fits, so one DP runs) and on the
    ``scenario:maze:sinks=160`` seed-0 tree after obstacle repair (detoured,
    station-dense edges; none fits, so all four run).  The DP count, each
    scored candidate's buffer count and the chosen candidate (both keyed by
    ladder index) and the station counts (all and legal) are counters; each
    sweep is timed by its own span.
    """

    name = "buffering"
    description = "INITIAL ladder sweep: ti:4000 DME tree + repaired maze:160 tree"
    repeats = 3

    #: (counter prefix, instance spec, seed)
    TREES = (("ti4000", "ti:4000", 1), ("maze160", "scenario:maze:sinks=160", 0))

    def __init__(self) -> None:
        self._inputs: List[Tuple[str, ClockNetworkInstance, ClockTree]] = []

    def _trees(self) -> List[Tuple[str, ClockNetworkInstance, ClockTree]]:
        if not self._inputs:
            for label, spec, seed in self.TREES:
                instance = resolve_instance(JobSpec(instance=spec, seed=seed))
                self._inputs.append((label, instance, make_initial_tree(instance)))
        return self._inputs

    def fingerprint(self) -> str:
        return "+".join(instance_fingerprint(instance) for _, instance, _ in self._trees())

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        config = FlowConfig()
        outcome = CaseOutcome()
        for label, instance, tree in self._trees():
            ladder = analyze_composites(
                instance.buffer_library,
                max_parallel=config.composite_max_parallel,
                ladder_steps=config.composite_ladder_steps,
            ).ladder
            obstacles = instance.obstacles if len(instance.obstacles) else None
            # Each sweep starts from an empty collector, so a pause the
            # previous sweep's garbage triggers is not charged to this one.
            gc.collect()
            with tracer.span(f"sweep_{label}") as span:
                sweep = insert_buffers_with_sizing(
                    tree,
                    ladder,
                    capacitance_limit=instance.capacitance_limit,
                    power_reserve=config.power_reserve,
                    slew_limit=instance.slew_limit,
                    slew_margin=config.buffering_slew_margin,
                    station_spacing=config.station_spacing,
                    obstacles=obstacles,
                    die=instance.die,
                    max_options=config.max_dp_options,
                )
            outcome.timings[f"{label}_sweep_s"] = _span_s(span)
            stations = [
                station
                for edge in enumerate_stations(
                    tree,
                    spacing=config.station_spacing,
                    obstacles=obstacles,
                    die=instance.die,
                ).values()
                for station in edge
            ]
            outcome.counters[f"{label}_stations"] = len(stations)
            outcome.counters[f"{label}_stations_legal"] = sum(s.legal for s in stations)
            # One DP per scored candidate; counters are keyed by ladder index.
            outcome.counters[f"{label}_dp_runs"] = len(sweep.outcomes)
            for candidate in sweep.outcomes:
                index = ladder.index(candidate.buffer)
                outcome.counters[f"{label}_buffers_{index}"] = candidate.buffer_count
                if candidate is sweep.chosen:
                    outcome.counters[f"{label}_chosen"] = index
        return outcome


@register_case
class VariationCase(PerfCase):
    """Batched vs per-sample Monte Carlo skew-yield evaluation.

    Run with ``repro perf run --case variation``: the zero-variance
    bit-parity check is deterministic, the 20x-over-serial floor is a timing
    check, and both wall-clocks land in the ``timings.extra`` series.
    """

    name = "variation"
    description = f"ti:{SINKS} {ENGINE} Monte Carlo: batched vs serial reference"
    repeats = 2

    SAMPLES = 1000
    SERIAL_SAMPLES = 30
    SEED = 7
    SPEEDUP_FLOOR = 20.0

    def fingerprint(self) -> str:
        return instance_fingerprint(generate_ti_benchmark(SINKS))

    def _make_evaluator(self, instance: Any, corners: Any = None) -> ClockNetworkEvaluator:
        return ClockNetworkEvaluator(
            config=EvaluatorConfig(engine=ENGINE, slew_limit=instance.slew_limit),
            corners=corners,
            capacitance_limit=instance.capacitance_limit,
        )

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        instance = generate_ti_benchmark(SINKS)
        with tracer.span("synthesize"):
            result = ContangoFlow(FlowConfig(engine=ENGINE)).run(instance)
        tree = result.require_tree()
        model = default_variation_model()

        evaluator = self._make_evaluator(instance)
        with tracer.span("warmup"):
            evaluator.evaluate_yield(
                tree, model, samples=8, rng=derive_rng(self.SEED, "warmup")
            )
        with tracer.span("batched_mc") as batched_span:
            report = evaluator.evaluate_yield(
                tree,
                model,
                samples=self.SAMPLES,
                rng=derive_rng(self.SEED, "variation-bench"),
            )
        batched_s = _span_s(batched_span)

        rng = derive_rng(self.SEED, "variation-bench-serial")
        base_corners = FlowConfig().corners
        with tracer.span("serial_reference") as serial_span:
            for _ in range(self.SERIAL_SAMPLES):
                draw = model.sample(1, rng, n_stages=1)
                corners = [
                    corner.scaled(
                        driver=float(draw.driver[0, 0]),
                        wire=float(draw.wire_res[0, 0]),
                    )
                    for corner in base_corners
                ]
                self._make_evaluator(instance, corners).evaluate(tree)
        serial_per_sample = _span_s(serial_span) / self.SERIAL_SAMPLES

        nominal = evaluator.evaluate(tree)
        zero = evaluator.evaluate_yield(
            tree, VariationModel(), samples=4, rng=derive_rng(self.SEED, "parity")
        )
        parity = bool(
            np.all(zero.skew_samples == nominal.skew)
            and np.all(zero.clr_samples == nominal.clr)
            and np.all(zero.worst_slew_samples == nominal.worst_slew)
        )
        speedup = (
            serial_per_sample / (batched_s / self.SAMPLES) if batched_s > 0 else 0.0
        )

        outcome = CaseOutcome()
        outcome.counters["mc_samples"] = self.SAMPLES
        outcome.counters["serial_reference_samples"] = self.SERIAL_SAMPLES
        outcome.counters["skew_yield_millis"] = int(round(report.skew_yield * 1000))
        outcome.counters.update(_prefixed("cache_", evaluator.cache_stats()))
        outcome.timings["batched_mc_s"] = batched_s
        outcome.timings["serial_per_sample_s"] = serial_per_sample
        outcome.checks.append(
            CaseCheck(
                name="zero_variance_bit_parity",
                ok=parity,
                detail="zero-variance Monte Carlo equals nominal evaluation bit "
                "for bit",
            )
        )
        outcome.checks.append(
            CaseCheck(
                name="batched_speedup_floor",
                ok=speedup >= self.SPEEDUP_FLOOR,
                detail=f"batched path {speedup:.1f}x over the serial reference "
                f"(floor {self.SPEEDUP_FLOOR:.0f}x)",
                timing=True,
            )
        )
        return outcome


@register_case
class ServiceCase(PerfCase):
    """Warm-pool vs per-call-pool dispatch of many tiny jobs.

    Run with ``repro perf run --case service``: the reuse invariant (one
    pool for the whole warm run, identical fingerprints either way) gates
    deterministically; the speedup stays an untracked trajectory because a
    1-core host serializes both variants onto the same CPU.
    """

    name = "service"
    description = "warm-pool vs per-call-pool dispatch overhead (ti:24 initial)"
    repeats = 2

    CALLS = 4
    WORKERS = 2
    JOB = JobSpec(instance="ti:24", engine="elmore", pipeline=("initial",))

    def fingerprint(self) -> str:
        return instance_fingerprint(generate_ti_benchmark(24))

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        cold_records: List[Any] = []
        with tracer.span("cold_pools") as cold_span:
            for _ in range(self.CALLS):
                with SynthesisService(max_workers=self.WORKERS) as service:
                    cold_records.extend(service.run([self.JOB]).records)

        warm_records: List[Any] = []
        with tracer.span("warm_pool") as warm_span:
            with SynthesisService(max_workers=self.WORKERS) as service:
                for _ in range(self.CALLS):
                    warm_records.extend(service.run([self.JOB]).records)

        cold_fps = [record.fingerprint for record in cold_records]
        warm_fps = [record.fingerprint for record in warm_records]

        outcome = CaseOutcome()
        outcome.counters["calls"] = self.CALLS
        outcome.counters["pools_created_warm"] = int(service.pools_created)
        outcome.counters["jobs_dispatched_warm"] = int(service.jobs_dispatched)
        outcome.timings["cold_pools_s"] = _span_s(cold_span)
        outcome.timings["warm_pool_s"] = _span_s(warm_span)
        outcome.checks.append(
            CaseCheck(
                name="single_warm_pool",
                ok=service.pools_created == 1,
                detail="the warm service creates exactly one pool for all calls",
            )
        )
        outcome.checks.append(
            CaseCheck(
                name="cold_warm_fingerprints_equal",
                ok=bool(cold_fps) and cold_fps == warm_fps,
                detail="pool reuse does not change job results",
            )
        )
        return outcome


@register_case
class RunnerCase(PerfCase):
    """A small synthesis matrix in-process vs across pool workers.

    Run with ``repro perf run --case runner``: the 4-job ``ti:200``
    arnoldi matrix (seeds 7-10) runs through ``SynthesisService`` at one
    worker (in-process) and at four.  The pooled records must equal the
    in-process ones outside wall-clock fields, in job order.  The speedup
    is a timing check that only has to exceed 1.0x on hosts with at least
    four CPUs; ``speedup_meaningful`` records whether the host had more
    than one, so a 1-CPU host's ~1.0x is not read as a regression.
    """

    name = "runner"
    description = f"ti:{SINKS} {ENGINE} 4-job matrix: in-process vs 4 pool workers"
    repeats = 2

    INSTANCE = f"ti:{SINKS}"
    JOBS = 4
    WORKERS = 4
    FIRST_SEED = 7

    def jobs(self) -> List[JobSpec]:
        # Distinct seeds make the matrix a mixed workload rather than one
        # instance computed several times.
        return [
            JobSpec(instance=self.INSTANCE, engine=ENGINE, seed=self.FIRST_SEED + offset)
            for offset in range(self.JOBS)
        ]

    def fingerprint(self) -> str:
        return "+".join(instance_fingerprint(resolve_instance(job)) for job in self.jobs())

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        jobs = self.jobs()
        with tracer.span("serial") as serial_span:
            with SynthesisService(max_workers=1) as service:
                serial = service.run(jobs)
        with tracer.span("parallel") as parallel_span:
            with SynthesisService(max_workers=self.WORKERS) as service:
                parallel = service.run(jobs)
        serial_s, parallel_s = _span_s(serial_span), _span_s(parallel_span)
        speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
        cpu_count = os.cpu_count() or 1

        outcome = CaseOutcome()
        outcome.counters["jobs"] = len(jobs)
        outcome.counters["workers"] = self.WORKERS
        outcome.counters["failures"] = len(serial.failures) + len(parallel.failures)
        outcome.timings["serial_s"] = serial_s
        outcome.timings["parallel_s"] = parallel_s
        outcome.timings["speedup"] = speedup
        outcome.timings["speedup_meaningful"] = float(cpu_count > 1)
        outcome.checks.append(
            CaseCheck(
                name="pooled_records_match_in_process",
                ok=[stable_record(record) for record in serial.records]
                == [stable_record(record) for record in parallel.records],
                detail="pooled records equal the in-process ones outside "
                "wall-clock fields, in job order",
            )
        )
        outcome.checks.append(
            CaseCheck(
                name="pooled_speedup",
                ok=speedup > 1.0 or cpu_count < 4,
                detail=f"{self.WORKERS} pool workers {speedup:.2f}x over in-process "
                f"on {cpu_count} CPUs (must exceed 1.0x with 4 or more)",
                timing=True,
            )
        )
        return outcome


# The six objective values an ``EvaluationReport`` and a ``CandidateScore`` share.
_OBJECTIVES = operator.attrgetter(
    "skew", "clr", "max_latency", "worst_slew", "total_capacitance", "wirelength"
)


@register_case
class PropagationCase(PerfCase):
    """Dirty-region re-evaluation and batched candidate scoring.

    Run with ``repro perf run --case propagation``.  Two references gate
    bit parity deterministically: a cold ``evaluate(tree,
    incremental=False)`` and a serial loop that applies each candidate move
    under a checkpoint, evaluates and rolls back (:meth:`_serial_scores`).
    The 5x (dirty) and 3x (batch) floors over those references are timing
    checks, and the float-keyed timing-cache finding's hit/miss deltas are
    counters so the finding itself is regression-gated.
    """

    name = "propagation"
    description = f"ti:{SINKS} {ENGINE} dirty-region + candidate-batch speedups"
    repeats = 2

    TOUCH_REPEATS = 20
    BATCH_REPEATS = 10
    CANDIDATES = 12
    COLD_FLOOR = 5.0
    BATCH_FLOOR = 3.0

    def fingerprint(self) -> str:
        return instance_fingerprint(generate_ti_benchmark(SINKS))

    @staticmethod
    def _make_evaluator(instance: Any, engine: str = ENGINE) -> ClockNetworkEvaluator:
        return ClockNetworkEvaluator(
            config=EvaluatorConfig(engine=engine, slew_limit=instance.slew_limit),
            capacitance_limit=instance.capacitance_limit,
        )

    @staticmethod
    def _serial_scores(
        evaluator: ClockNetworkEvaluator, tree: Any, moves: List[Any]
    ) -> List[Tuple[float, ...]]:
        """Score each move by applying it, evaluating and rolling it back."""
        scores: List[Tuple[float, ...]] = []
        for move in moves:
            token = tree.checkpoint()
            try:
                move()
                scores.append(_OBJECTIVES(evaluator.evaluate(tree)))
            finally:
                tree.rollback_to(token)
        return scores

    @staticmethod
    def _reports_bit_identical(a: Any, b: Any) -> bool:
        if set(a.corners) != set(b.corners):
            return False
        for name in a.corners:
            got, want = a.corners[name], b.corners[name]
            if got.latency != want.latency or got.tap_slew != want.tap_slew:
                return False
            if got.slew != want.slew:
                return False
        return bool(a.summary() == b.summary())

    def _candidate_moves(self, tree: Any) -> List[Any]:
        sinks = sorted(s.node_id for s in tree.sinks())

        def make(index: int) -> Any:
            first = sinks[(2 * index) % len(sinks)]
            second = sinks[(2 * index + 1) % len(sinks)]

            def move() -> int:
                tree.add_snake(first, 5.0 + index)
                tree.add_snake(second, 2.5 + index)
                return 2

            return move

        return [make(index) for index in range(self.CANDIDATES)]

    @staticmethod
    def _deepest_buffer_edge(tree: Any) -> Any:
        best, best_depth = None, -1
        for node in tree.buffers():
            depth = 0
            up = node.parent
            while up is not None:
                ancestor = tree.node(up)
                if ancestor.buffer is not None:
                    depth += 1
                up = ancestor.parent
            if depth > best_depth:
                best, best_depth = node.node_id, depth
        return best

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        outcome = CaseOutcome()
        instance = generate_ti_benchmark(SINKS)
        with tracer.span("synthesize"):
            tree = ContangoFlow(FlowConfig(engine=ENGINE)).run(instance).require_tree()

        # Dirty-region re-evaluation: parity first, then the timed loops.
        evaluator = self._make_evaluator(instance)
        evaluator.evaluate(tree)
        sinks = sorted(s.node_id for s in tree.sinks())
        tree.add_snake(sinks[0], 1.0)
        incremental = evaluator.evaluate(tree)
        cold_reference = self._make_evaluator(instance).evaluate(tree, incremental=False)
        dirty_parity = self._reports_bit_identical(incremental, cold_reference)

        with tracer.span("dirty_touch_loop") as touch_span:
            for index in range(self.TOUCH_REPEATS):
                tree.add_snake(sinks[index % len(sinks)], 0.5)
                evaluator.evaluate(tree)
        touch_s = _span_s(touch_span) / self.TOUCH_REPEATS
        with tracer.span("cold_eval_loop") as cold_span:
            for _ in range(self.TOUCH_REPEATS):
                evaluator.evaluate(tree, incremental=False)
        cold_s = _span_s(cold_span) / self.TOUCH_REPEATS
        dirty_speedup = cold_s / touch_s if touch_s > 0 else 0.0
        outcome.counters.update(_prefixed("dirty_", evaluator.cache_stats()))

        # Batched candidate scoring vs the serial reference.
        moves = self._candidate_moves(tree)
        batched_eval = self._make_evaluator(instance)
        batched_eval.evaluate(tree)
        serial_eval = self._make_evaluator(instance)
        serial_eval.evaluate(tree)
        batched = batched_eval.evaluate_candidates(tree, moves)
        serial = self._serial_scores(serial_eval, tree, moves)
        batch_parity = serial == [_OBJECTIVES(score) for score in batched]
        with tracer.span("batched_candidates") as batched_span:
            for _ in range(self.BATCH_REPEATS):
                batched_eval.evaluate_candidates(tree, moves)
        with tracer.span("serial_candidates") as serial_span:
            for _ in range(self.BATCH_REPEATS):
                self._serial_scores(serial_eval, tree, moves)
        batched_s = _span_s(batched_span) / self.BATCH_REPEATS
        serial_s = _span_s(serial_span) / self.BATCH_REPEATS
        batch_speedup = serial_s / batched_s if batched_s > 0 else 0.0
        outcome.counters["candidates"] = len(moves)
        outcome.counters["candidates_batched"] = int(batched.batched)
        outcome.counters["candidate_fallbacks"] = int(batched.fallbacks)

        # Float-keyed timing-cache finding (spice engine, small instance).  A
        # throwaway transient analysis on its own evaluator first, so the
        # span never holds the process's one-time transient-engine set-up.
        small = generate_ti_benchmark(40)
        small_tree = (
            ContangoFlow(FlowConfig(engine=ENGINE, pipeline=["initial"]))
            .run(small)
            .require_tree()
        )
        self._make_evaluator(small, engine="spice").evaluate(small_tree)
        with tracer.span("timing_cache_finding"):
            edge = self._deepest_buffer_edge(small_tree)
            spice = self._make_evaluator(small, engine="spice")
            spice.evaluate(small_tree)
            warm = spice.cache_stats()
            small_tree.add_snake(edge, 0.25)
            spice.evaluate(small_tree)
            stats = spice.cache_stats()
            outcome.counters["timing_cache_dirty_hits_delta"] = stats["hits"] - warm["hits"]
            outcome.counters["timing_cache_dirty_misses_delta"] = (
                stats["misses"] - warm["misses"]
            )

        outcome.timings["dirty_touch_s"] = touch_s
        outcome.timings["cold_eval_s"] = cold_s
        outcome.timings["batched_candidates_s"] = batched_s
        outcome.timings["serial_candidates_s"] = serial_s
        outcome.checks.extend(
            [
                CaseCheck(
                    name="dirty_region_bit_parity",
                    ok=dirty_parity,
                    detail="incremental re-evaluation equals a cold evaluation "
                    "bit for bit",
                ),
                CaseCheck(
                    name="candidate_batch_bit_parity",
                    ok=batch_parity,
                    detail="batched candidate scores equal serial scoring",
                ),
                CaseCheck(
                    name="dirty_region_speedup_floor",
                    ok=dirty_speedup >= self.COLD_FLOOR,
                    detail=f"single-touch re-evaluation {dirty_speedup:.1f}x over "
                    f"cold (floor {self.COLD_FLOOR:.0f}x)",
                    timing=True,
                ),
                CaseCheck(
                    name="candidate_batch_speedup_floor",
                    ok=batch_speedup >= self.BATCH_FLOOR,
                    detail=f"batched candidate scoring {batch_speedup:.1f}x over "
                    f"serial (floor {self.BATCH_FLOOR:.0f}x)",
                    timing=True,
                ),
            ]
        )
        return outcome


@register_case
class TraceCase(PerfCase):
    """Tracing parity and the disabled-instrumentation overhead ceiling.

    Run with ``repro perf run --case trace``: traced/untraced record parity
    and fingerprint equality gate deterministically; the <2% disabled
    overhead ceiling (per-event null-span cost scaled by the traced run's
    span count, against the untraced flow runtime) is a timing check.
    """

    name = "trace"
    description = f"ti:{SINKS} {ENGINE} tracing parity + disabled overhead"
    repeats = 2

    NULL_SPAN_ITERATIONS = 200_000
    OVERHEAD_CEILING_PCT = 2.0
    SEED = 11

    def fingerprint(self) -> str:
        return instance_fingerprint(generate_ti_benchmark(SINKS))

    def _spec(self) -> JobSpec:
        return JobSpec(instance=f"ti:{SINKS}", engine=ENGINE, seed=self.SEED)

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        inner = Tracer()
        with tracer.span("traced_job"):
            traced = run_job(self._spec(), tracer=inner)
        with tracer.span("untraced_job") as untraced_span:
            plain = run_job(self._spec())
        untraced_s = _span_s(untraced_span)
        summary = summarize(inner)

        null = NULL_TRACER
        with tracer.span("null_span_loop") as null_span:
            for _ in range(self.NULL_SPAN_ITERATIONS):
                if null.enabled:  # the wrapper-guard branch
                    raise AssertionError("NULL_TRACER must be disabled")
                with null.span("x"):  # the unconditional-span path
                    pass
        per_event_s = _span_s(null_span) / self.NULL_SPAN_ITERATIONS
        overhead_pct = (
            100.0 * per_event_s * summary.spans / untraced_s if untraced_s > 0 else 0.0
        )

        outcome = CaseOutcome()
        outcome.counters["span_events"] = int(summary.spans)
        outcome.timings["untraced_job_s"] = untraced_s
        outcome.timings["null_span_cost_ns"] = per_event_s * 1e9
        outcome.checks.extend(
            [
                CaseCheck(
                    name="traced_untraced_parity",
                    ok=stable_record(traced) == stable_record(plain),
                    detail="traced and untraced records of the same job agree "
                    "outside wall-clock fields",
                ),
                CaseCheck(
                    name="fingerprints_equal",
                    ok=traced.fingerprint == plain.fingerprint,
                    detail="tracing does not change the job's content fingerprint",
                ),
                CaseCheck(
                    name="disabled_overhead_ceiling",
                    ok=overhead_pct < self.OVERHEAD_CEILING_PCT,
                    detail=f"disabled-tracing overhead {overhead_pct:.3f}% of the "
                    f"untraced flow (ceiling {self.OVERHEAD_CEILING_PCT:.0f}%)",
                    timing=True,
                ),
            ]
        )
        return outcome


@register_case
class ServeCase(PerfCase):
    """Scheduler dedup latency: cold executions vs coalesced vs cache hit.

    The serve subsystem's acceptance case.  Three submissions over two
    distinct fingerprints (one cold job, one duplicate pair) plus a
    post-completion resubmit must produce *exactly two* pool executions:
    the duplicate coalesces onto its in-flight leader and the resubmit is
    served from the :class:`~repro.serve.cache.ResultCache`, both flagged
    ``cached``.  The cache-hit record must equal a fresh :func:`run_job`
    of the same spec outside wall-clock fields
    (:func:`~repro.api.records.stable_record` parity).  The scheduler's
    own counters (``cache.stats()`` hits/misses/coalesced and
    ``pool_executions``) are pinned exactly by the deterministic checks.
    """

    name = "serve"
    description = "ti:24 scheduler dedup: cold vs coalesced vs cache-hit latency"
    repeats = 2

    COLD_JOB = JobSpec(instance="ti:24", engine="elmore", pipeline=("initial",))
    PAIR_JOB = JobSpec(instance="ti:24", engine="elmore", pipeline=("initial",), seed=3)
    HIT_SPEEDUP_FLOOR = 3.0

    def fingerprint(self) -> str:
        return instance_fingerprint(generate_ti_benchmark(24))

    async def _drive(self, tracer: TracerBase) -> Dict[str, Any]:
        # Imported here (with asyncio below) so the serving stack never loads
        # on the plain ``repro run`` path that imports this module's siblings.
        from repro.serve import JobScheduler

        with SynthesisService(max_workers=1) as service:
            scheduler = JobScheduler(service, max_queue=8)
            try:
                # Submitting before start() is the deterministic-coalescing
                # window: nothing executes until the dispatch loops exist, so
                # the duplicate always attaches to its in-flight leader
                # instead of racing the leader's completion.
                cold = await scheduler.submit(self.COLD_JOB, client="cold")
                leader = await scheduler.submit(self.PAIR_JOB, client="pair")
                with tracer.span("coalesced_submit") as coalesced_span:
                    follower = await scheduler.submit(
                        self.PAIR_JOB, client="pair-dup"
                    )
                with tracer.span("cold_executions") as cold_span:
                    await scheduler.start()
                    await scheduler.drain()
                with tracer.span("cache_hit_submit") as hit_span:
                    hit = await scheduler.submit(self.COLD_JOB, client="hit")
            finally:
                await scheduler.close()
        return {
            "cold": cold,
            "leader": leader,
            "follower": follower,
            "hit": hit,
            "pool_executions": scheduler.pool_executions,
            "dispatched": list(scheduler.dispatch_order),
            "cache": scheduler.cache.stats(),
            "jobs": len(scheduler.registry),
            "cold_s": _span_s(cold_span),
            "hit_s": _span_s(hit_span),
            "coalesced_s": _span_s(coalesced_span),
        }

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        import asyncio

        with tracer.span("fresh_reference"):
            fresh = run_job(self.COLD_JOB)
        driven = asyncio.run(self._drive(tracer))

        cold, leader = driven["cold"], driven["leader"]
        follower, hit = driven["follower"], driven["hit"]
        cache: Dict[str, int] = driven["cache"]
        distinct = len({cold.fingerprint, leader.fingerprint})
        hit_s, cold_s = driven["hit_s"], driven["cold_s"]
        hit_speedup = cold_s / hit_s if hit_s > 0 else 0.0

        outcome = CaseOutcome()
        outcome.counters["serve_jobs"] = int(driven["jobs"])
        outcome.counters["serve_distinct_fingerprints"] = distinct
        outcome.counters["serve_cache_memory_entries"] = cache["memory_entries"]
        outcome.timings["cold_executions_s"] = cold_s
        outcome.timings["cache_hit_submit_s"] = hit_s
        outcome.timings["coalesced_submit_s"] = driven["coalesced_s"]
        outcome.checks.extend(
            [
                CaseCheck(
                    name="one_execution_per_fingerprint",
                    ok=driven["pool_executions"] == distinct == 2
                    and len(driven["dispatched"]) == 2,
                    detail="four submissions over two fingerprints dispatch "
                    "exactly two pool executions",
                ),
                CaseCheck(
                    name="duplicates_served_without_dispatch",
                    ok=follower.coalesced
                    and follower.cached
                    and follower.record is leader.record
                    and hit.cached
                    and not hit.coalesced
                    and cache["hits"] == 1
                    and cache["misses"] == 2
                    and cache["coalesced"] == 1,
                    detail="the coalesced duplicate shares its leader's record "
                    "and the resubmit completes from cache, both flagged cached",
                ),
                CaseCheck(
                    name="cached_record_bit_identical",
                    ok=hit.record is not None
                    and stable_record(hit.record) == stable_record(fresh),
                    detail="the cache-hit record equals a fresh run_job of the "
                    "same spec outside wall-clock fields",
                ),
                CaseCheck(
                    name="cache_hit_speedup_floor",
                    ok=hit_speedup >= self.HIT_SPEEDUP_FLOOR,
                    detail=f"cache-hit completion {hit_speedup:.1f}x faster than "
                    f"the cold executions (floor {self.HIT_SPEEDUP_FLOOR:.0f}x)",
                    timing=True,
                ),
            ]
        )
        return outcome


@register_case
class StoreCase(PerfCase):
    """The run store's fingerprint lookups: a first build, then a tail read.

    Run with ``repro perf run --case store``.  A writer handle fills a store
    with ``RECORDS`` envelopes of ~3.4 KB (the size of a ti:48 run record),
    a fresh reader looks one up and so builds its index from byte 0, the
    writer appends one more envelope, and the reader looks that one up,
    which parses only the new line.  The reader's own counters give the
    bytes each lookup parsed and its rebuilds; the tail lookup must parse
    exactly the appended line, rebuild nothing, and be at least
    ``TAIL_SPEEDUP_FLOOR`` times faster than the build.  Envelopes are
    written through the writer's log with a fixed ``recorded_at``
    (``RunStore.append`` stamps the time, whose length varies), so every
    byte count repeats exactly.
    """

    name = "store"
    description = "run-store lookups: first index build vs tail read after an append"
    repeats = 3

    RECORDS = 1000
    TAIL_SPEEDUP_FLOOR = 10.0
    RECORDED_AT = "2026-01-01T00:00:00.000000+00:00"

    def _envelope(self, index: int) -> Dict[str, Any]:
        """Envelope ``index``: a run-record-sized payload under its own fingerprint."""
        fingerprint = hashlib.sha256(f"store-case-{index}".encode()).hexdigest()
        payload = {
            "fingerprint": fingerprint,
            "seed": index,
            "sinks": 48,
            "summary": {f"metric_{k}": index * 0.125 + k for k in range(10)},
            "stage_table": [
                {f"field_{k}": index + stage * 1.5 + k / 8 for k in range(10)}
                for stage in range(8)
            ],
            "pass_notes": {
                f"pass_{p}": [
                    f"round {r}: accepted {index % (r + 2)} of {r + 3} moves, "
                    f"skew {index * 0.01 + r:.3f} ps"
                    for r in range(4)
                ]
                for p in range(5)
            },
            "evaluator_cache": {f"counter_{k}": index * k for k in range(15)},
        }
        return {
            "schema": STORE_SCHEMA_VERSION,
            "run_id": f"history-{index // 5}",
            "recorded_at": self.RECORDED_AT,
            "fingerprint": fingerprint,
            "record": payload,
        }

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for index in range(self.RECORDS + 1):
            digest.update(encode_line(self._envelope(index)))
        return digest.hexdigest()

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        root = Path(tempfile.mkdtemp(prefix="repro-store-case-"))
        try:
            writer = RunStore(root)
            for index in range(self.RECORDS):
                writer.log.append(self._envelope(index))
            first, appended = self._envelope(0), self._envelope(self.RECORDS)
            reader = RunStore(root)
            with tracer.span("first_lookup") as build_span:
                found_first = reader.latest_by_fingerprint(first["fingerprint"])
            build_bytes = reader.index_bytes_parsed
            start, end = writer.log.append(appended)
            with tracer.span("tail_lookup") as tail_span:
                found_tail = reader.latest_by_fingerprint(appended["fingerprint"])
            tail_bytes = reader.index_bytes_parsed - build_bytes
        finally:
            shutil.rmtree(root, ignore_errors=True)
        build_s, tail_s = _span_s(build_span), _span_s(tail_span)
        speedup = build_s / tail_s if tail_s > 0 else 0.0

        outcome = CaseOutcome()
        outcome.counters["records"] = self.RECORDS
        outcome.counters["lookups"] = 2
        outcome.counters["hits"] = (found_first is not None) + (found_tail is not None)
        outcome.counters["build_bytes_parsed"] = build_bytes
        outcome.counters["tail_bytes_parsed"] = tail_bytes
        outcome.counters["rebuilds"] = reader.index_rebuilds
        outcome.timings["first_lookup_s"] = build_s
        outcome.timings["tail_lookup_s"] = tail_s
        outcome.timings["tail_speedup"] = speedup
        outcome.checks.extend(
            [
                CaseCheck(
                    name="lookups_return_the_stored_records",
                    ok=found_first == first["record"]
                    and found_tail == appended["record"],
                    detail="both lookups return the record stored under their "
                    "fingerprint",
                ),
                CaseCheck(
                    name="tail_read_parses_only_the_appended_line",
                    ok=tail_bytes == end - start and reader.index_rebuilds == 1,
                    detail=f"the lookup after the append parsed {tail_bytes} bytes "
                    f"(the line is {end - start}) in "
                    f"{reader.index_rebuilds} build(s) from byte 0",
                ),
                CaseCheck(
                    name="tail_speedup_floor",
                    ok=speedup >= self.TAIL_SPEEDUP_FLOOR,
                    detail=f"the tail lookup {speedup:.0f}x faster than the first "
                    f"build (floor {self.TAIL_SPEEDUP_FLOOR:.0f}x)",
                    timing=True,
                ),
            ]
        )
        return outcome


#: What the ``startup`` case's fresh interpreter runs: ``argv[1]`` is the
#: directory holding this ``repro`` package, ``argv[2]`` the instance.  It
#: prints one JSON line: its trace artifact and the names of every module
#: it loaded.
_STARTUP_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.obs import Tracer, trace_artifact
tracer = Tracer()
with tracer.span("import_job_stack"):
    from repro.api.jobs import JobSpec
    from repro.runner import run_job
run_job(JobSpec(instance=sys.argv[2], engine="arnoldi"), tracer=tracer)
print(json.dumps({"trace": trace_artifact(tracer), "modules": list(sys.modules)}))
"""


@register_case
class StartupCase(PerfCase):
    """A fresh interpreter: the job stack's import, then one small job.

    Run with ``repro perf run --case startup``.  Each repeat starts a new
    Python process that imports the job stack (``repro.api.jobs``,
    ``repro.runner``) and runs one arnoldi ``ti:24`` job under its own
    tracer.  Its spans hang below this process's ``interpreter`` span,
    whose self time is what no span inside the child covers: the
    interpreter's start and exit.  The ``repro`` modules the child loaded
    are a counter, and a deterministic check fails if it loaded scipy,
    which only the transient engine needs.
    """

    name = "startup"
    description = "fresh interpreter: job-stack import + one ti:24 arnoldi job"
    repeats = 3

    INSTANCE = "ti:24"

    def fingerprint(self) -> str:
        return instance_fingerprint(resolve_instance(JobSpec(instance=self.INSTANCE)))

    def run_once(self, tracer: TracerBase) -> CaseOutcome:
        package_root = str(Path(__file__).resolve().parents[2])
        with tracer.span("interpreter") as span:
            child = subprocess.run(
                [sys.executable, "-c", _STARTUP_SCRIPT, package_root, self.INSTANCE],
                capture_output=True,
                text=True,
                timeout=300,
            )
        if child.returncode != 0:
            raise RuntimeError(f"the startup interpreter failed:\n{child.stderr}")
        reported = json.loads(child.stdout.splitlines()[-1])
        if span is not None:
            span.children.extend(spans_from_artifact(reported["trace"]))
        packages = [name.split(".")[0] for name in reported["modules"]]

        outcome = CaseOutcome()
        outcome.counters["repro_modules"] = packages.count("repro")
        outcome.checks.append(
            CaseCheck(
                name="analytical_job_loads_no_scipy",
                ok="scipy" not in packages,
                detail="importing the job stack and running an arnoldi job "
                "loads no scipy module",
            )
        )
        return outcome
