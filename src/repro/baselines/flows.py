"""Baseline clock-tree synthesis flows (the comparison points of Table IV).

The paper compares Contango against the top three teams of the ISPD'09
contest (NTU, NCTU, University of Michigan).  Those binaries are not
available, so this module provides three simpler flows with deliberately
different trade-offs that play the same role: they exercise exactly the same
evaluation machinery and capacitance/slew limits, but stop after initial
construction and buffering instead of running Contango's integrated
optimization sequence.

Each baseline is a single registered
:class:`~repro.core.pipeline.OptimizationPass` (synthesis + polarity patch,
recorded as the ``FINAL`` stage) run through the same
:class:`~repro.core.pipeline.PipelineDriver` as the integrated flow -- so a
baseline is just the one-element pipeline ``[<its pass name>]``, and the
passes can even be mixed into custom pipelines
(``FlowConfig(pipeline=["unoptimized_dme", "twsz"])`` wiresizes a baseline
tree).

* ``greedy_buffered`` -- greedy nearest-neighbour topology, zero-skew DME
  embedding, fixed-pitch insertion of large inverters (no composite
  analysis, no sizing sweep), per-sink polarity patch.
* ``unoptimized_dme`` -- the same initial tree Contango starts from
  (balanced bisection ZST + van Ginneken insertion of a single composite)
  but with *none* of the post-insertion optimizations.
* ``bounded_skew`` -- a bounded-skew tree that trades skew for wirelength up
  front, buffered with the large inverter.

What Table IV measures is the gap between these and the integrated flow on
CLR at comparable capacitance, which is precisely the paper's point.
"""

from __future__ import annotations

from typing import List, Optional

from repro.buffering.vanginneken import apply_insertion, run_ladder
from repro.core.config import FlowConfig
from repro.core.pipeline import OptimizationPass, PassContext, PipelineDriver, register_pass
from repro.core.polarity import correct_sink_polarity, count_inverted_sinks
from repro.core.report import FlowResult
from repro.cts.bst import build_bounded_skew_tree
from repro.cts.dme import build_zero_skew_tree
from repro.cts.obstacle_avoid import repair_obstacle_violations
from repro.cts.spec import ClockNetworkInstance
from repro.cts.tree import ClockTree
from repro.obs import TracerBase

__all__ = [
    "BaselineSynthesisPass",
    "BaselineFlow",
    "GreedyBufferedBaseline",
    "UnoptimizedDmeBaseline",
    "BoundedSkewBaseline",
    "all_baselines",
]

#: Elmore skew bound (ps) of the ``bounded_skew`` baseline's tree.
SKEW_BOUND = 50.0


class BaselineSynthesisPass(OptimizationPass):
    """One-shot baseline synthesis + polarity patch, recorded as ``FINAL``."""

    stage = "FINAL"
    polarity_strategy = "per-sink"
    buffer_name: Optional[str] = None

    def run(self, ctx: PassContext) -> None:
        tree = self._synthesize(ctx)
        inverted = count_inverted_sinks(tree)
        smallest = ctx.instance.buffer_library.smallest
        correction = correct_sink_polarity(
            tree,
            smallest,
            strategy=self.polarity_strategy,
            slew_limit=ctx.instance.slew_limit,
            stronger_inverters=[smallest.parallel(k) for k in (2, 4, 8)],
        )
        ctx.tree = tree
        ctx.report = None  # the driver evaluates the fresh network for FINAL
        ctx.result.chosen_buffer = self.buffer_name
        ctx.result.inverted_sinks = inverted
        ctx.result.polarity_inverters_added = correction.inverters_added

    # Subclass hooks -----------------------------------------------------
    def _synthesize(self, ctx: PassContext) -> ClockTree:
        raise NotImplementedError

    # Shared helpers -----------------------------------------------------
    @staticmethod
    def _buffer_tree(
        ctx: PassContext, tree: ClockTree, buffer, spacing: float
    ) -> ClockTree:
        instance = ctx.instance
        (insertion,) = run_ladder(
            tree,
            [buffer],
            slew_limit=instance.slew_limit,
            slew_margin=0.85,
            station_spacing=spacing,
            obstacles=instance.obstacles if len(instance.obstacles) else None,
            die=instance.die,
            max_options=16,
        )
        apply_insertion(tree, insertion)
        return tree

    @staticmethod
    def _repair(ctx: PassContext, tree: ClockTree, driver) -> None:
        instance = ctx.instance
        if len(instance.obstacles) == 0:
            return
        repair_obstacle_violations(
            tree,
            instance.obstacles,
            die=instance.die,
            driver=driver,
            slew_limit=instance.slew_limit,
        )


@register_pass
class GreedyBufferedSynthesisPass(BaselineSynthesisPass):
    """Greedy-merge topology + fixed large-inverter buffering, no optimization."""

    name = "greedy_buffered"
    buffer_name = "INV_L"

    def _synthesize(self, ctx: PassContext) -> ClockTree:
        instance = ctx.instance
        large = instance.buffer_library.strongest
        tree = build_zero_skew_tree(
            instance.sinks,
            instance.source,
            instance.wire_library.default,
            source_resistance=instance.source_resistance,
            topology_method="greedy",
            obstacles=instance.obstacles,
        )
        self._repair(ctx, tree, large)
        return self._buffer_tree(ctx, tree, large, spacing=400.0)


@register_pass
class UnoptimizedDmeSynthesisPass(BaselineSynthesisPass):
    """Contango's initial tree and buffering, without any of its optimizations."""

    name = "unoptimized_dme"
    polarity_strategy = "subtree"
    buffer_name = "8X INV_S"

    def _synthesize(self, ctx: PassContext) -> ClockTree:
        instance = ctx.instance
        composite = instance.buffer_library.by_name("INV_S").parallel(8)
        tree = build_zero_skew_tree(
            instance.sinks,
            instance.source,
            instance.wire_library.default,
            source_resistance=instance.source_resistance,
            topology_method="bisection",
            obstacles=instance.obstacles,
        )
        self._repair(ctx, tree, composite)
        return self._buffer_tree(
            ctx, tree, composite, spacing=ctx.config.station_spacing
        )


@register_pass
class BoundedSkewSynthesisPass(BaselineSynthesisPass):
    """Bounded-skew tree (wirelength-lean, skew-heavy) with large-inverter buffering."""

    name = "bounded_skew"
    buffer_name = "INV_L"

    def _synthesize(self, ctx: PassContext) -> ClockTree:
        instance = ctx.instance
        large = instance.buffer_library.strongest
        tree = build_bounded_skew_tree(
            instance.sinks,
            instance.source,
            instance.wire_library.default,
            skew_bound=SKEW_BOUND,
            source_resistance=instance.source_resistance,
            topology_method="bisection",
            obstacles=instance.obstacles,
        )
        self._repair(ctx, tree, large)
        return self._buffer_tree(ctx, tree, large, spacing=350.0)


# ----------------------------------------------------------------------
# Flow-level wrappers: a baseline is a one-pass pipeline with its own name
# ----------------------------------------------------------------------
class BaselineFlow:
    """Common scaffolding: run the flow's declarative pass list."""

    name = "baseline"

    def __init__(self, config: Optional[FlowConfig] = None) -> None:
        self.config = config or FlowConfig()

    def run(
        self,
        instance: ClockNetworkInstance,
        tracer: Optional[TracerBase] = None,
    ) -> FlowResult:
        """Synthesize a buffered clock tree for ``instance`` and evaluate it."""
        driver = PipelineDriver([self.name], flow_name=self.name)
        return driver.run(instance, self.config, tracer=tracer)


class GreedyBufferedBaseline(BaselineFlow):
    """Greedy-merge topology + fixed large-inverter buffering, no optimization."""

    name = "greedy_buffered"


class UnoptimizedDmeBaseline(BaselineFlow):
    """Contango's initial tree and buffering, without any of its optimizations."""

    name = "unoptimized_dme"


class BoundedSkewBaseline(BaselineFlow):
    """Bounded-skew tree (wirelength-lean, skew-heavy) with large-inverter buffering."""

    name = "bounded_skew"


def all_baselines(config: Optional[FlowConfig] = None) -> List[BaselineFlow]:
    """The three baseline flows compared against Contango in the Table IV bench."""
    return [
        GreedyBufferedBaseline(config),
        UnoptimizedDmeBaseline(config),
        BoundedSkewBaseline(config),
    ]
