"""Declarative pass pipelines over a shared optimization-pass registry.

The paper's flow (Figure 1) is a *sequence of independently-checked
optimization passes*; the seed reproduction hard-coded that sequence inside
``ContangoFlow.run``.  This module turns it into data:

* :class:`OptimizationPass` -- the protocol of one pipeline step: a
  registered ``name``, an optional Table III ``stage`` label, and
  ``run(ctx)`` over a shared :class:`PassContext`;
* :data:`PASS_REGISTRY` / :func:`register_pass` / :func:`resolve_pipeline`
  -- the registry that maps pipeline names (``"initial"``, ``"tbsz"``,
  ``"twsz"``, ``"twsn"``, ``"bwsn"``, plus the baseline synthesis passes)
  to pass factories, so flows, ablations and CLI runs are all just pass
  lists (``FlowConfig(pipeline=["initial", "twsz"])``);
* :class:`PipelineDriver` -- the driver that owns everything the stages
  share: evaluator construction, baseline-report threading from pass to
  pass, per-stage :class:`~repro.core.report.StageRecord` emission, and the
  final :class:`~repro.core.report.FlowResult` assembly.

Every pass hands its last accepted report to the next pass (and to the
stage record) as the baseline, so an unchanged tree is never re-evaluated;
together with the evaluator's stage cache this makes every candidate move
cost only its dirty stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.evaluator import (
    ClockNetworkEvaluator,
    EvaluationReport,
    EvaluatorConfig,
)
from repro.analysis.variation import ANALYTICAL_ENGINES, default_variation_model
from repro.buffering.fast_buffering import insert_buffers_with_sizing
from repro.core.bottom_level import bottom_level_fine_tuning
from repro.core.buffer_sizing import iterative_buffer_sizing
from repro.core.buffer_sliding import slide_and_interleave_trunk
from repro.core.composite import analyze_composites, composite_ladder
from repro.core.config import FlowConfig
from repro.core.polarity import correct_sink_polarity, count_inverted_sinks
from repro.core.report import FlowResult, StageRecord
from repro.core.variation import VariationGate
from repro.core.wiresizing import top_down_wiresizing
from repro.core.wiresnaking import top_down_wiresnaking
from repro.cts.bst import build_bounded_skew_tree
from repro.cts.dme import build_zero_skew_tree
from repro.cts.obstacle_avoid import repair_obstacle_violations
from repro.cts.spec import ClockNetworkInstance
from repro.cts.tree import ClockTree
from repro.obs import NULL_TRACER, TracerBase

__all__ = [
    "PassContext",
    "OptimizationPass",
    "PASS_REGISTRY",
    "register_pass",
    "available_passes",
    "resolve_pipeline",
    "PipelineDriver",
]


@dataclass
class PassContext:
    """Everything a pipeline pass may read or advance.

    ``tree`` and ``report`` start as ``None``: a construction pass (e.g.
    ``"initial"``) must set the tree before any optimization pass runs, and
    each pass that changes the tree leaves its last accepted evaluation in
    ``report`` so the driver and the next pass never re-evaluate an
    unchanged network.
    """

    instance: ClockNetworkInstance
    config: FlowConfig
    evaluator: ClockNetworkEvaluator
    result: FlowResult
    start_time: float
    tree: Optional[ClockTree] = None
    report: Optional[EvaluationReport] = None
    #: Shared Monte Carlo acceptance gate; populated by the driver when the
    #: pipeline contains variation-aware passes, read via
    #: :meth:`OptimizationPass.gate`.
    variation_gate: Optional[VariationGate] = None

    @property
    def slack_corners(self) -> Optional[List[str]]:
        return self.config.corner_names_for_slacks()

    def require_tree(self) -> ClockTree:
        if self.tree is None:
            raise RuntimeError(
                "no clock tree in the pipeline context yet; pipelines must start "
                "with a construction pass such as 'initial'"
            )
        return self.tree


class OptimizationPass:
    """One named, registrable pipeline step.

    Subclasses set ``name`` (the registry/pipeline key) and optionally
    ``stage`` -- the Table III row label the driver records right after the
    pass.  ``run`` mutates the context in place.  ``variation_aware`` marks
    the Monte Carlo pipeline variants: the driver builds one shared
    :class:`~repro.core.variation.VariationGate` when any pass in the
    pipeline sets it, and the pass threads the gate into its IVC engine via
    :meth:`gate`.
    """

    name: str = ""
    stage: Optional[str] = None
    variation_aware: bool = False
    #: When set, the pass's :class:`~repro.core.ivc.IvcEngine` plays
    #: best-of-K rounds: one candidate per scale, scored in a single batched
    #: evaluation when the evaluator allows it, the best gate-approved one
    #: committed.  ``None`` keeps the classic one-proposal-per-round loop.
    candidate_scales: Optional[Tuple[float, ...]] = None

    def run(self, ctx: PassContext) -> None:
        raise NotImplementedError

    def gate(self, ctx: PassContext) -> Optional[VariationGate]:
        """The acceptance gate this pass should hand to its IVC engine."""
        return ctx.variation_gate if self.variation_aware else None


#: Registered pass factories, keyed by pass name.
PASS_REGISTRY: Dict[str, Callable[[], OptimizationPass]] = {}


def register_pass(factory: Callable[[], OptimizationPass]):
    """Register a pass class (or zero-arg factory) under its ``name``.

    Usable as a class decorator.  Raises on missing or duplicate names so a
    typo cannot silently shadow an existing pass.
    """
    name = getattr(factory, "name", "")
    if not name:
        raise ValueError("an optimization pass needs a non-empty 'name' to register")
    if name in PASS_REGISTRY:
        raise ValueError(f"a pass named {name!r} is already registered")
    PASS_REGISTRY[name] = factory
    return factory


def available_passes() -> List[str]:
    """Sorted names currently in the registry."""
    return sorted(PASS_REGISTRY)


def resolve_pipeline(
    steps: Iterable[Union[str, OptimizationPass]]
) -> List[OptimizationPass]:
    """Materialize a pipeline from registry names and/or ready pass instances."""
    passes: List[OptimizationPass] = []
    for step in steps:
        if isinstance(step, OptimizationPass):
            passes.append(step)
            continue
        factory = PASS_REGISTRY.get(step)
        if factory is None:
            # Registration happens at import time; the baseline synthesis
            # passes live outside repro.core, so pull them in before giving
            # up on the name.
            import repro.baselines  # noqa: F401  (imported for registration)

            factory = PASS_REGISTRY.get(step)
        if factory is None:
            raise KeyError(
                f"unknown optimization pass {step!r}; registered: {available_passes()}"
            )
        passes.append(factory())
    return passes


class PipelineDriver:
    """Runs a resolved pass list over one instance and assembles the result.

    The driver owns the cross-stage machinery that used to live inline in
    ``ContangoFlow.run``: evaluator construction from the
    :class:`~repro.core.config.FlowConfig`, threading the last accepted
    report between passes, emitting one :class:`StageRecord` per labelled
    stage, and sealing the :class:`FlowResult` (final tree/report,
    evaluation counts, cache statistics, wall-clock).
    """

    def __init__(
        self,
        passes: Iterable[Union[str, OptimizationPass]],
        flow_name: str = "contango",
    ) -> None:
        self.passes = resolve_pipeline(passes)
        self.flow_name = flow_name

    # ------------------------------------------------------------------
    def run(
        self,
        instance: ClockNetworkInstance,
        config: FlowConfig,
        tracer: Optional[TracerBase] = None,
    ) -> FlowResult:
        instance.validate()
        active = tracer if tracer is not None else NULL_TRACER
        # Record-level wall-clock field; attribution flows through the tracer.
        start = time.perf_counter()  # repro: lint-ok[untimed-wallclock]
        evaluator = ClockNetworkEvaluator(
            config=EvaluatorConfig(
                engine=config.engine,
                max_segment_length=config.max_segment_length,
                slew_limit=instance.slew_limit,
                solver=config.solver,
            ),
            corners=config.corners,
            capacitance_limit=instance.capacitance_limit,
        )
        evaluator.tracer = active
        result = FlowResult(instance_name=instance.name, flow_name=self.flow_name)
        ctx = PassContext(
            instance=instance,
            config=config,
            evaluator=evaluator,
            result=result,
            start_time=start,
            variation_gate=self._build_gate(config, evaluator),
        )
        with active.span(f"flow:{self.flow_name}") as flow_span:
            for optimization_pass in self.passes:
                with active.span(f"pass:{optimization_pass.name}"):
                    optimization_pass.run(ctx)
                if optimization_pass.stage is not None:
                    self._record_stage(ctx, optimization_pass.stage)
            if ctx.report is None:
                ctx.report = evaluator.evaluate(ctx.require_tree())
            if flow_span is not None:
                flow_span.count("passes", len(self.passes))
                flow_span.count("evaluations", evaluator.run_count)
        result.tree = ctx.tree
        result.final_report = ctx.report
        result.total_evaluations = evaluator.run_count
        result.evaluator_cache = evaluator.cache_stats()
        if ctx.variation_gate is not None:
            result.variation_gate = ctx.variation_gate.stats()
        result.runtime_s = time.perf_counter() - start  # repro: lint-ok[untimed-wallclock]
        return result

    def _build_gate(
        self, config: FlowConfig, evaluator: ClockNetworkEvaluator
    ) -> Optional[VariationGate]:
        """One shared p95 gate when the pipeline has variation-aware passes."""
        if not any(p.variation_aware for p in self.passes):
            return None
        if config.engine not in ANALYTICAL_ENGINES:
            raise ValueError(
                f"variation-aware pipeline passes need an analytical engine {ANALYTICAL_ENGINES}: "
                "the Monte Carlo gate batches all samples through the moment path, "
                f"got engine={config.engine!r}"
            )
        return VariationGate(
            evaluator,
            config.variation_model or default_variation_model(),
            samples=config.variation_samples,
            seed=config.seed,
            tolerance_ps=config.variation_p95_tolerance_ps,
            skew_limit_ps=config.variation_skew_limit_ps,
        )

    @staticmethod
    def _record_stage(ctx: PassContext, stage: str) -> None:
        tree = ctx.require_tree()
        if ctx.report is None:
            ctx.report = ctx.evaluator.evaluate(tree)
        record = StageRecord.from_report(
            stage,
            tree,
            ctx.report,
            # Cumulative Table III elapsed column, not span attribution.
            elapsed_s=time.perf_counter() - ctx.start_time,  # repro: lint-ok[untimed-wallclock]
        )
        ctx.result.stages.append(record)


# ----------------------------------------------------------------------
# The Contango stages (Figure 1 of the paper) as registered passes
# ----------------------------------------------------------------------
@register_pass
class InitialSynthesisPass(OptimizationPass):
    """INITIAL: tree construction, obstacle repair, buffering, polarity."""

    name = "initial"
    stage = "INITIAL"

    def run(self, ctx: PassContext) -> None:
        # Child spans without counters: they split the pass's time and leave
        # every span path's counters as they were.
        tracer = ctx.evaluator.tracer
        with tracer.span("dme"):
            ctx.tree = self._build_initial_tree(ctx)
        self._repair_obstacles(ctx)
        with tracer.span("buffer_insertion"):
            ctx.tree = self._insert_buffers(ctx)
        with tracer.span("polarity"):
            self._correct_polarity(ctx)
        ctx.report = None  # the driver evaluates the fresh network for INITIAL

    # -- construction --------------------------------------------------
    def _build_initial_tree(self, ctx: PassContext) -> ClockTree:
        instance, config = ctx.instance, ctx.config
        wire = instance.wire_library.default
        if config.skew_bound > 0.0:
            return build_bounded_skew_tree(
                instance.sinks,
                instance.source,
                wire,
                skew_bound=config.skew_bound,
                source_resistance=instance.source_resistance,
                topology_method=config.topology_method,
                obstacles=instance.obstacles,
            )
        return build_zero_skew_tree(
            instance.sinks,
            instance.source,
            wire,
            source_resistance=instance.source_resistance,
            topology_method=config.topology_method,
            obstacles=instance.obstacles,
        )

    def _repair_obstacles(self, ctx: PassContext) -> None:
        instance, config = ctx.instance, ctx.config
        if not config.enable_obstacle_avoidance or len(instance.obstacles) == 0:
            return
        with ctx.evaluator.tracer.span("obstacle_repair"):
            analysis = analyze_composites(
                instance.buffer_library, max_parallel=config.composite_max_parallel
            )
            report = repair_obstacle_violations(
                ctx.require_tree(),
                instance.obstacles,
                die=instance.die,
                driver=analysis.preferred_base,
                slew_limit=instance.slew_limit,
            )
        ctx.result.obstacle_detours = report.subtrees_detoured + report.maze_reroutes

    def _buffer_candidates(self, ctx: PassContext) -> List:

        instance, config = ctx.instance, ctx.config
        if config.use_composite_inverters:
            analysis = analyze_composites(
                instance.buffer_library,
                max_parallel=config.composite_max_parallel,
                ladder_steps=config.composite_ladder_steps,
            )
            return analysis.ladder
        # Ablation mode: groups of the largest primitive inverter instead of
        # composites of the small one (the paper's scalability experiment).
        largest = max(instance.buffer_library, key=lambda b: b.input_cap)
        return composite_ladder(largest, 1, steps=config.composite_ladder_steps)

    def _insert_buffers(self, ctx: PassContext) -> ClockTree:
        instance, config = ctx.instance, ctx.config
        sweep = insert_buffers_with_sizing(
            ctx.require_tree(),
            self._buffer_candidates(ctx),
            capacitance_limit=instance.capacitance_limit,
            power_reserve=config.power_reserve,
            slew_limit=instance.slew_limit,
            slew_margin=config.buffering_slew_margin,
            station_spacing=config.station_spacing,
            obstacles=instance.obstacles if len(instance.obstacles) else None,
            die=instance.die,
            max_options=config.max_dp_options,
        )
        ctx.result.chosen_buffer = sweep.chosen.buffer.name if sweep.chosen else None
        return sweep.tree

    def _correct_polarity(self, ctx: PassContext) -> None:

        instance, config = ctx.instance, ctx.config
        tree = ctx.require_tree()
        ctx.result.inverted_sinks = count_inverted_sinks(tree)
        if ctx.result.inverted_sinks == 0:
            return
        smallest = instance.buffer_library.smallest
        stronger = [
            smallest.parallel(count) for count in (2, 4, 8, 16) if smallest.inverting
        ]
        correction = correct_sink_polarity(
            tree,
            smallest,
            strategy=config.polarity_strategy,
            slew_limit=instance.slew_limit,
            stronger_inverters=stronger,
        )
        ctx.result.polarity_inverters_added = correction.inverters_added


@register_pass
class TrunkBufferSizingPass(OptimizationPass):
    """TBSZ: trunk buffer sliding/interleaving + iterative buffer sizing."""

    name = "tbsz"
    stage = "TBSZ"

    def run(self, ctx: PassContext) -> None:
        if not ctx.config.enable_buffer_sizing:
            return
        tree = ctx.require_tree()
        sliding = slide_and_interleave_trunk(
            tree, ctx.evaluator, baseline=ctx.report, gate=self.gate(ctx)
        )
        ctx.result.pass_results["trunk_sliding"] = sliding
        sizing = iterative_buffer_sizing(
            tree,
            ctx.evaluator,
            capacitance_limit=ctx.instance.capacitance_limit,
            baseline=sliding.final_report,
            levels_after_branch=ctx.config.sizing_levels_after_branch,
            max_iterations=ctx.config.sizing_max_iterations,
            max_consecutive_rejections=ctx.config.sizing_max_rejections,
            gate=self.gate(ctx),
            candidate_scales=self.candidate_scales,
        )
        ctx.result.pass_results["buffer_sizing"] = sizing
        ctx.report = sizing.final_report


@register_pass
class WiresizingPass(OptimizationPass):
    """TWSZ: iterative top-down wiresizing."""

    name = "twsz"
    stage = "TWSZ"

    def run(self, ctx: PassContext) -> None:

        if not ctx.config.enable_wiresizing:
            return
        outcome = top_down_wiresizing(
            ctx.require_tree(),
            ctx.evaluator,
            ctx.instance.wire_library,
            baseline=ctx.report,
            corners=ctx.slack_corners,
            max_rounds=ctx.config.wiresizing_max_rounds,
            gate=self.gate(ctx),
            candidate_scales=self.candidate_scales,
        )
        ctx.result.pass_results["wiresizing"] = outcome
        ctx.report = outcome.final_report


@register_pass
class WiresnakingPass(OptimizationPass):
    """TWSN: iterative top-down wiresnaking."""

    name = "twsn"
    stage = "TWSN"

    def run(self, ctx: PassContext) -> None:

        if not ctx.config.enable_wiresnaking:
            return
        outcome = top_down_wiresnaking(
            ctx.require_tree(),
            ctx.evaluator,
            baseline=ctx.report,
            corners=ctx.slack_corners,
            unit_length=ctx.config.wiresnaking_unit_length,
            max_rounds=ctx.config.wiresnaking_max_rounds,
            gate=self.gate(ctx),
            candidate_scales=self.candidate_scales,
        )
        ctx.result.pass_results["wiresnaking"] = outcome
        ctx.report = outcome.final_report


@register_pass
class BottomLevelPass(OptimizationPass):
    """BWSN: bottom-level wiresizing/wiresnaking fine-tuning."""

    name = "bwsn"
    stage = "BWSN"

    def run(self, ctx: PassContext) -> None:

        if not ctx.config.enable_bottom_level:
            return
        outcome = bottom_level_fine_tuning(
            ctx.require_tree(),
            ctx.evaluator,
            ctx.instance.wire_library,
            baseline=ctx.report,
            corners=ctx.slack_corners,
            unit_length=ctx.config.bottom_unit_length,
            max_rounds=ctx.config.bottom_max_rounds,
            gate=self.gate(ctx),
            candidate_scales=self.candidate_scales,
        )
        ctx.result.pass_results["bottom_level"] = outcome
        ctx.report = outcome.final_report


# ----------------------------------------------------------------------
# Pipeline variants of the four optimization passes
# ----------------------------------------------------------------------
# ``<name>_mc`` runs the identical optimization, but every IVC round that
# improves the nominal objective is additionally screened by the shared
# VariationGate: rounds that regress the p95 skew of the Monte Carlo
# variation distribution are rolled back.  ``<name>_k`` proposes one
# candidate per aggressiveness scale in every round and commits the best
# gate-approved one (``IvcEngine(candidate_scales=...)``); under the
# analytical engines the K candidates are scored in a single numpy
# evaluation along the batch axis, the transient engine scores them one full
# evaluation at a time.  Select them via ``FlowConfig(pipeline=
# list(VARIATION_PIPELINE))`` / ``list(BATCHED_PIPELINE)`` or per stage
# (``--pipeline initial,tbsz,twsz_mc,twsn_k,...``).
_BATCH_SCALES: Tuple[float, ...] = (1.0, 0.5, 0.25)

for _base in (TrunkBufferSizingPass, WiresizingPass, WiresnakingPass, BottomLevelPass):
    register_pass(
        type(
            f"VariationAware{_base.__name__}",
            (_base,),
            {
                "__doc__": f"{_base.stage} with the Monte Carlo p95-skew acceptance gate.",
                "name": f"{_base.name}_mc",
                "variation_aware": True,
            },
        )
    )
    register_pass(
        type(
            f"Batched{_base.__name__}",
            (_base,),
            {
                "__doc__": f"{_base.stage} with best-of-K batched candidate rounds.",
                "name": f"{_base.name}_k",
                "candidate_scales": _BATCH_SCALES,
            },
        )
    )
del _base
