"""Bottom-level fine-tuning (Section IV-G of the paper).

After the two top-down skew-reduction phases the remaining skew is only a few
picoseconds, which is below the trust region of the coarse top-down moves.
Bottom-level tuning therefore edits only the wires *directly connected to
sinks*, where the slack of exactly one sink is affected by each move and the
impact can be predicted most accurately.  Both bottom-level wiresizing and
bottom-level wiresnaking are applied in each round, and the pass stops when a
SPICE-style re-evaluation no longer improves (the typical gain is small in
absolute terms but a significant fraction of the remaining skew -- and it is
eventually limited by rise/fall divergence of the corner sinks, which the
result notes report).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluationReport
from repro.core.ivc import IvcEngine, IvcGate, IvcState
from repro.core.slack import compute_sink_slacks
from repro.core.tuning import (
    DownsizeModel,
    PassResult,
    SlewBudget,
    SnakeModel,
    calibrate_downsize_model,
    calibrate_snake_model,
    narrower_types,
    stage_slew_headroom,
)
from repro.cts.tree import ClockTree
from repro.cts.wirelib import WireLibrary

__all__ = ["bottom_level_fine_tuning", "rise_fall_divergence"]

# Fraction of a sink's slow-down slack the calibrated models may spend per
# round.
SAFETY = 0.95
# Smallest per-sink slow-down slack (ps) worth spending; anything below it is
# within evaluation noise.
MIN_SLACK = 0.25


def rise_fall_divergence(report: EvaluationReport) -> bool:
    """True when the slowest/fastest sinks differ between rise and fall.

    The paper observes that once skew drops under ~5 ps the corner sinks of
    the two transitions usually diverge, at which point slowing a fast rising
    sink starts hurting falling skew and further improvement stalls.
    """
    timing = report.nominal
    rise = {s: v["rise"] for s, v in timing.latency.items()}
    fall = {s: v["fall"] for s, v in timing.latency.items()}
    rise_extremes = (max(rise, key=rise.get), min(rise, key=rise.get))
    fall_extremes = (max(fall, key=fall.get), min(fall, key=fall.get))
    return rise_extremes != fall_extremes


def bottom_level_fine_tuning(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    wirelib: WireLibrary,
    baseline: Optional[EvaluationReport] = None,
    corners: Optional[Sequence[str]] = None,
    unit_length: float = 5.0,
    max_rounds: int = 12,
    gate: Optional[IvcGate] = None,
    candidate_scales: Optional[Sequence[float]] = None,
) -> PassResult:
    """Run bottom-level wiresizing + wiresnaking on ``tree`` in place.

    A round is accepted when it reduces skew without a violation.  ``gate``
    (an optional acceptance gate, see
    :class:`repro.core.variation.VariationGate`) and ``candidate_scales``
    (best-of-K rounds, one candidate per scale) are the round policy, handed
    to :class:`~repro.core.ivc.IvcEngine`.
    """
    engine = IvcEngine(
        "bottom_level_fine_tuning",
        tree,
        evaluator,
        objective="skew",
        baseline=baseline,
        gate=gate,
        candidate_scales=candidate_scales,
    )
    sink_edges = [s.node_id for s in tree.sinks()]
    probe_edges = _independent_probe_edges(tree, sink_edges, count=5)
    snake_model = calibrate_snake_model(
        tree, evaluator, engine.report, unit_length, edge_ids=probe_edges
    )
    downsize_model = calibrate_downsize_model(
        tree, evaluator, wirelib, engine.report, edge_ids=probe_edges
    )
    if snake_model is None:
        return engine.abort("bottom-level snake impact model could not be calibrated")

    def propose(state: IvcState) -> int:
        slacks = compute_sink_slacks(state.report, corners=corners)
        headroom = stage_slew_headroom(tree, state.report)
        snake_model.refresh(tree)
        if downsize_model is not None:
            downsize_model.refresh(tree)
        return _tune_sink_edges(
            tree,
            wirelib,
            slacks.slow,
            headroom,
            snake_model,
            downsize_model,
            unit_length,
            SAFETY * state.aggressiveness,
        )

    result = engine.run(
        propose, max_rounds=max_rounds, empty_note="no sink edge had usable slack left"
    )
    if rise_fall_divergence(engine.report):
        result.notes.append("rise/fall corner sinks diverged; further gains limited")
    return result


def _independent_probe_edges(tree: ClockTree, sink_edges, count: int):
    """A few sink edges with distinct parents, used for sensitivity calibration."""
    chosen = []
    seen_parents = set()
    for node_id in sorted(sink_edges, key=lambda n: -tree.node(n).edge_length()):
        parent = tree.node(node_id).parent
        if parent in seen_parents:
            continue
        seen_parents.add(parent)
        chosen.append(node_id)
        if len(chosen) >= count:
            break
    return chosen


def _tune_sink_edges(
    tree: ClockTree,
    wirelib: WireLibrary,
    slow_slack: Dict[int, float],
    slew_headroom: SlewBudget,
    snake_model: SnakeModel,
    downsize_model: Optional[DownsizeModel],
    unit_length: float,
    safety: float,
) -> int:
    """Apply one round of per-sink slow-down moves; returns edges touched.

    Each sink edge's wire, narrower type, length, loads and stage are read
    once.
    """
    narrower_of = narrower_types(wirelib)
    stage_of = slew_headroom.edge_to_stage.get
    changed = 0
    for sink in tree.sinks():
        node_id = sink.node_id
        slack = slow_slack.get(node_id, 0.0)
        if slack < MIN_SLACK:
            continue
        stage = stage_of(node_id)
        budget = min(safety * slack, slew_headroom.delay_room(stage))
        wire = sink.wire_type
        # Prefer downsizing when the whole-edge impact fits in the budget;
        # otherwise (or additionally) spend the remainder on snaking units.
        if downsize_model is not None and wire is not None:
            narrower = narrower_of[wire.name]
            length = sink.edge_length()
            if narrower is not None and length > 0.0:
                load = downsize_model.stage_cap.get(node_id, 0.0)
                predicted = downsize_model.delay(wire, narrower, length, load)
                if 0.0 < predicted <= budget:
                    tree.set_wire_type(node_id, narrower)
                    slew_headroom.consume(stage, predicted)
                    budget -= predicted
                    changed += 1
                    wire = narrower
        load = snake_model.stage_cap.get(node_id, 0.0)
        units = int(snake_model.length(wire, load, budget) // unit_length)
        if units > 0:
            extra = units * unit_length
            predicted = snake_model.delay(wire, load, extra)
            tree.add_snake(node_id, extra)
            slew_headroom.consume(stage, predicted)
            changed += 1
    return changed
