"""Job execution: run one synthesis or Monte Carlo job into its typed record.

One *job* is one synthesis run -- an instance spec ("ti:200",
"ispd09:ispd09f22", "scenario:maze:sinks=64", optionally scaled), a flow (the
integrated Contango pipeline or one of the Table IV baselines), an evaluation
engine, and an optional custom pass pipeline.  Job identity lives in the
unified :mod:`repro.api.jobs` model (:class:`JobSpec`, :class:`McJobSpec`,
expanded from a :class:`~repro.api.jobs.JobMatrix`); this module owns the
*execution* side: materializing instances, running flows, and turning each
job into one typed :mod:`repro.api.records` record.  Fanning jobs across
worker processes is :class:`repro.api.service.SynthesisService`'s job; the
guarded workers here are what it hands to its pool.

Monte Carlo variation jobs (:class:`McJobSpec`) synthesize the network and
then evaluate it under thousands of sampled supply/process scenarios
(:meth:`~repro.analysis.evaluator.ClockNetworkEvaluator.evaluate_yield`),
with a per-job :class:`numpy.random.Generator` derived deterministically
from the base seed plus the job's identity (see :mod:`repro.seeding`), so a
whole instance x flow x sample-count matrix is bit-reproducible from one
``--seed`` no matter how it is scheduled across workers.

Workers regenerate their instance from the spec (the generators are seeded
and deterministic), so nothing heavier than a tiny dataclass crosses the
process boundary in either direction.

The module is the substrate of :class:`repro.api.service.SynthesisService`,
of the ``python -m repro`` command line (see :mod:`repro.cli`), and of the
registered perf cases (``repro perf run --case <name>``).
"""

from __future__ import annotations

import time
import traceback
from typing import List, Optional, Sequence, Tuple

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis.variation import VariationModel, default_variation_model
from repro.api.jobs import Job, JobSpec, McJobSpec, sanitize_spec
from repro.api.records import (
    MC_TABLE_COLUMNS,
    RUN_SUMMARY_COLUMNS,
    STAGE_TABLE_COLUMNS,
    ErrorRecord,
    McRecord,
    Record,
    RunRecord,
    YieldSummary,
    mc_table_row,
)
from repro.baselines import all_baselines
from repro.core import ContangoFlow, FlowConfig
from repro.core.config import VARIATION_PIPELINE
from repro.core.report import FlowResult
from repro.cts.spec import ClockNetworkInstance
from repro.obs import NULL_TRACER, Tracer, TracerBase, summarize
from repro.scenarios import parse_scenario_overrides
from repro.seeding import derive_rng
from repro.store.fingerprint import config_digest, job_fingerprint
from repro.workloads import (
    generate_ispd09_benchmark,
    generate_ti_benchmark,
    instance_fingerprint,
    read_instance,
)

__all__ = [
    "JobSpec",
    "McJobSpec",
    "sanitize_spec",
    "JobError",
    "available_flows",
    "resolve_instance",
    "job_flow_config",
    "mc_flow_config",
    "spec_fingerprint",
    "run_job",
    "run_mc_job",
    "execute_job_guarded",
    "execute_job_traced",
    "error_record",
    "variation_model_for",
    "render_table",
    "table_iii",
    "table_iv",
    "table_mc",
]


class JobError(RuntimeError):
    """A job failed inside a worker; carries the worker-side traceback."""


def available_flows() -> List[str]:
    """Runnable flow names: the integrated flow plus the Table IV baselines."""
    return ["contango"] + [flow.name for flow in all_baselines()]


def resolve_instance(spec: Job) -> ClockNetworkInstance:
    """Materialize the instance a job spec names."""
    kind, _, rest = spec.instance.partition(":")
    if kind == "ti":
        if not rest.isdigit():
            raise ValueError(f"ti instance spec needs a sink count, got {spec.instance!r}")
        if spec.seed is not None:
            return generate_ti_benchmark(int(rest), seed=spec.seed)
        return generate_ti_benchmark(int(rest))
    if kind == "ispd09":
        name, _, scale = rest.partition(":")
        return generate_ispd09_benchmark(name, sink_scale=float(scale) if scale else None)
    if kind == "scenario":
        family, overrides = parse_scenario_overrides(spec.instance)
        params = family.resolve(overrides)
        # An explicit seed= inside the spec pins the instance; otherwise the
        # job seed selects the scenario variant, mirroring the ti: behavior.
        if spec.seed is not None and "seed" not in overrides:
            params["seed"] = spec.seed
        return family.generate(**params)
    if kind == "file":
        return read_instance(rest)
    raise ValueError(
        f"unknown instance spec {spec.instance!r}; use ti:<sinks>, "
        f"ispd09:<name>[:<scale>], scenario:<family>[:k=v,...] or file:<path>"
    )


def _make_flow(flow_name: str, config: FlowConfig) -> object:
    if flow_name == "contango":
        return ContangoFlow(config)
    for baseline in all_baselines(config):
        if baseline.name == flow_name:
            return baseline
    raise ValueError(f"unknown flow {flow_name!r}; available: {available_flows()}")


def job_flow_config(spec: Job) -> FlowConfig:
    """The exact :class:`FlowConfig` :func:`run_job` executes ``spec`` under.

    Factored out so the serving layer can digest the same config a worker
    will use -- :func:`spec_fingerprint` must agree bit-for-bit with the
    ``fingerprint`` field of the record the job eventually produces, and the
    only way to guarantee that is to build the config in exactly one place.
    :func:`mc_flow_config` starts from it.
    """
    config = FlowConfig(engine=spec.engine, seed=spec.seed)
    if spec.pipeline is not None:
        config.pipeline = list(spec.pipeline)
    return config


def _fingerprints(
    spec: Job, instance: ClockNetworkInstance, config: FlowConfig
) -> Tuple[str, str, str]:
    """The instance fingerprint, config digest and job fingerprint of ``spec``.

    The one place they are assembled, for :func:`run_job`'s record and for
    :func:`spec_fingerprint`.  Content-addressing uses the instance's
    canonical-serialization hash (not the spec string) plus the config
    digest, so generator or config drift changes the fingerprint even when
    the spec text stays the same; a Monte Carlo job is re-keyed over its
    Monte Carlo axes (see :func:`spec_fingerprint`).
    """
    instance_fp = instance_fingerprint(instance)
    config_fp = config_digest(config)
    digests = [config_fp]
    if isinstance(spec, McJobSpec):
        mc_axes = {
            "samples": spec.samples,
            "family": spec.family,
            "skew_limit_ps": spec.skew_limit_ps,
            "gated": spec.gated,
            "gate_samples": spec.gate_samples,
        }
        digests.append(config_digest({"mc": mc_axes}))
    fingerprint = instance_fp
    for digest in digests:
        fingerprint = job_fingerprint(
            instance_fingerprint=fingerprint,
            flow=spec.flow,
            engine=spec.engine,
            pipeline=spec.pipeline,
            seed=spec.seed,
            config_digest=digest,
        )
    return instance_fp, config_fp, fingerprint


def run_job(spec: JobSpec, tracer: Optional[Tracer] = None) -> RunRecord:
    """Execute one synthesis job and return its typed result record.

    Module-level (not a method) so the process pool can pickle it by
    reference; the instance is regenerated in the worker from the spec.
    Passing a live ``tracer`` records the job as one ``job`` span tree and
    attaches its :class:`~repro.obs.TraceSummary` to the record.
    """
    active: TracerBase = NULL_TRACER if tracer is None else tracer
    # wall_clock_s record field; span attribution flows through the tracer.
    start = time.perf_counter()  # repro: lint-ok[untimed-wallclock]
    with active.span("job"):
        with active.span("resolve_instance"):
            instance = resolve_instance(spec)
        # The job seed doubles as the flow's base seed, so every stochastic
        # component downstream (variation gates, MC sampling) derives from it.
        config = job_flow_config(spec)
        result: FlowResult = _make_flow(spec.flow, config).run(  # type: ignore[attr-defined]
            instance, tracer=tracer
        )
        with active.span("fingerprint"):
            instance_fp, config_fp, fingerprint = _fingerprints(spec, instance, config)
    return RunRecord(
        job=spec.label,
        instance=spec.instance,
        flow=spec.flow,
        engine=spec.engine,
        pipeline=list(spec.pipeline) if spec.pipeline is not None else None,
        seed=spec.seed,
        instance_fingerprint=instance_fp,
        config_digest=config_fp,
        fingerprint=fingerprint,
        sinks=instance.sink_count,
        summary=result.typed_summary(),
        stage_table=list(result.stages),
        pass_notes={name: list(p.notes) for name, p in result.pass_results.items()},
        evaluator_cache=result.evaluator_cache,
        wall_clock_s=time.perf_counter() - start,  # repro: lint-ok[untimed-wallclock]
        variation_gate=result.variation_gate or None,
        trace=summarize(tracer).to_record() if tracer is not None else None,
    )


def error_record(spec: Job, detail: str) -> ErrorRecord:
    """The failure record of one job, carrying the full spec envelope.

    Unlike the hand-rolled dicts of earlier revisions, error records keep the
    job-identity axes (``pipeline``, ``seed``, the Monte Carlo dimensions) so
    ``repro compare`` can line a failed job up against its baseline
    counterpart instead of silently dropping it from the accounting.
    """
    record = ErrorRecord(
        job=spec.label,
        instance=spec.instance,
        flow=spec.flow,
        engine=spec.engine,
        error=detail,
        pipeline=list(spec.pipeline) if spec.pipeline is not None else None,
        seed=spec.seed,
    )
    if isinstance(spec, McJobSpec):
        record.samples = spec.samples
        record.family = spec.family
        record.gated = spec.gated
    return record


# ----------------------------------------------------------------------
# Monte Carlo variation jobs
# ----------------------------------------------------------------------
def variation_model_for(spec: McJobSpec, config: FlowConfig) -> VariationModel:
    """The variation model an MC job samples from.

    The corner-anchored family spans the flow's own corner set (so the sweep
    covers exactly the supplies the nominal optimization saw); the other
    families use the stock sigma budget.
    """
    if spec.family == "corner_anchored":
        return VariationModel.from_corners(config.corners)
    return default_variation_model(family=spec.family)


def mc_flow_config(spec: McJobSpec) -> FlowConfig:
    """The exact :class:`FlowConfig` :func:`run_mc_job` synthesizes under.

    Always carries the variation model instance (the gate must screen against
    the same distribution the job reports, so one model serves both the gated
    synthesis and the final sweep); shared with :func:`spec_fingerprint` so
    the serving layer digests the config a worker will actually run.
    """
    config = job_flow_config(spec)
    config.variation_skew_limit_ps = spec.skew_limit_ps
    config.variation_model = variation_model_for(spec, config)
    if spec.gate_samples is not None:
        config.variation_samples = spec.gate_samples
    if spec.gated:  # spec validation: flow == "contango" and no explicit pipeline
        config.pipeline = list(VARIATION_PIPELINE)
    return config


def run_mc_job(spec: McJobSpec, tracer: Optional[Tracer] = None) -> McRecord:
    """Synthesize one network and Monte Carlo-evaluate its skew yield.

    The sampling generator is derived from the job seed plus the job's
    identity keys, so every job of a matrix draws an independent, scheduling-
    invariant stream and re-running with the same ``--seed`` is
    bit-reproducible.
    """
    active: TracerBase = NULL_TRACER if tracer is None else tracer
    start = time.perf_counter()  # repro: lint-ok[untimed-wallclock]
    with active.span("job"):
        with active.span("resolve_instance"):
            instance = resolve_instance(JobSpec(instance=spec.instance))
        config = mc_flow_config(spec)
        model = config.variation_model
        assert model is not None  # mc_flow_config always sets it
        result: FlowResult = _make_flow(spec.flow, config).run(  # type: ignore[attr-defined]
            instance, tracer=tracer
        )
        tree = result.require_tree()

        evaluator = ClockNetworkEvaluator(
            config=EvaluatorConfig(
                engine=spec.engine,
                max_segment_length=config.max_segment_length,
                slew_limit=instance.slew_limit,
            ),
            corners=config.corners,
            capacitance_limit=instance.capacitance_limit,
        )
        evaluator.tracer = active
        rng = derive_rng(spec.seed, spec.instance, spec.flow, spec.family, spec.samples)
        with active.span("yield_sweep") as sweep_span:
            report = evaluator.evaluate_yield(
                tree,
                model,
                samples=spec.samples,
                rng=rng,
                skew_limit_ps=spec.skew_limit_ps,
            )
            if sweep_span is not None:
                sweep_span.count("samples", spec.samples)
    return McRecord(
        job=spec.label,
        instance=spec.instance,
        flow=spec.flow,
        engine=spec.engine,
        samples=spec.samples,
        family=spec.family,
        seed=spec.seed,
        gated=spec.gated,
        sinks=instance.sink_count,
        yield_=YieldSummary.from_record(report.summary()),
        nominal=result.typed_summary(),
        wall_clock_s=time.perf_counter() - start,  # repro: lint-ok[untimed-wallclock]
        variation_gate=result.variation_gate or None,
        trace=summarize(tracer).to_record() if tracer is not None else None,
    )


def spec_fingerprint(spec: Job) -> str:
    """Content fingerprint of ``spec`` *without executing it*.

    For a :class:`JobSpec` this is bit-identical to the ``fingerprint`` field
    :func:`run_job` puts on the job's record (same resolved-instance hash,
    same config digest), so it doubles as the lookup key into a
    :class:`~repro.store.RunStore` -- the serving layer's result cache
    resolves "has this exact computation already run?" before paying for a
    worker.  :class:`McRecord` carries no fingerprint field, so Monte Carlo
    jobs get a serve-side key instead: the same payload hash re-keyed over
    the MC axes (samples/family/skew limit/gating), which can never collide
    with a plain synthesis fingerprint because the inner hash replaces the
    instance fingerprint.
    """
    if isinstance(spec, McJobSpec):
        config = mc_flow_config(spec)
        instance = resolve_instance(JobSpec(instance=spec.instance))
    elif isinstance(spec, JobSpec):
        config = job_flow_config(spec)
        instance = resolve_instance(spec)
    else:
        raise TypeError(f"not a fingerprintable job spec: {spec!r}")
    return _fingerprints(spec, instance, config)[2]


# ----------------------------------------------------------------------
# Worker entry points
# ----------------------------------------------------------------------
def execute_job_guarded(spec: Job, tracer: Optional[Tracer] = None) -> Record:
    """Worker entry point: run one job of either kind (under ``tracer``, if
    given) into its record, and never raise, so one bad job cannot kill the
    batch.

    The default worker of :class:`~repro.api.service.SynthesisService`.
    """
    try:
        if isinstance(spec, McJobSpec):
            return run_mc_job(spec, tracer=tracer)
        if isinstance(spec, JobSpec):
            return run_job(spec, tracer=tracer)
        raise TypeError(f"not an executable job spec: {spec!r}")
    except Exception:
        return error_record(spec, traceback.format_exc())


def execute_job_traced(spec: Job) -> Record:
    """Guarded worker that runs every job under a fresh :class:`Tracer`.

    The span tree is folded into the record's ``trace`` summary before the
    record crosses the process boundary, so tracing a pool-fanned batch needs
    no extra IPC -- workers serialize their spans back alongside the result.
    """
    return execute_job_guarded(spec, Tracer())


# ----------------------------------------------------------------------
# Table rendering (Table III / Table IV style)
# ----------------------------------------------------------------------
def render_table(rows: Sequence[dict], columns: Sequence[Tuple[str, str, str]]) -> str:
    """Fixed-width text table; ``columns`` is (key, header, format-spec)."""
    rendered: List[List[str]] = [[header for _, header, _ in columns]]
    for row in rows:
        cells = []
        for key, _, spec in columns:
            value = row.get(key)
            cells.append("-" if value is None else format(value, spec))
        rendered.append(cells)
    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(rendered):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def table_iv(records: Sequence[Record]) -> str:
    """Render completed job records as a Table IV-style comparison."""
    rows = [
        record.summary.to_record()
        for record in records
        if isinstance(record, RunRecord) and record.summary is not None
    ]
    return render_table(rows, RUN_SUMMARY_COLUMNS)


def table_iii(record: RunRecord) -> str:
    """Render one run record's stage table in Table III format."""
    return render_table([row.to_record() for row in record.stage_table], STAGE_TABLE_COLUMNS)


def table_mc(records: Sequence[Record]) -> str:
    """Render completed Monte Carlo job records as a yield table."""
    rows = [
        mc_table_row(record)
        for record in records
        if isinstance(record, McRecord) and record.yield_ is not None
    ]
    return render_table(rows, MC_TABLE_COLUMNS)
