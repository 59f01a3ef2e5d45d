"""Iterative top-down wiresnaking (Section IV-F of the paper).

Wiresnaking adds serpentine wirelength to edges whose downstream sinks have
slow-down slack.  It is finer-grained than wiresizing -- any amount of extra
delay can be dialled in by choosing the snake length -- and is therefore run
*after* wiresizing, when the remaining skew is small.  The snake length is
quantized to multiples of the calibration unit ``lwn``; the worst-case delay
of one unit (``Twn``) is measured with a single evaluation, and smaller units
give a more accurate (but slower-converging) pass, exactly as discussed in
the paper.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluationReport
from repro.core.ivc import IvcEngine, IvcGate, IvcState
from repro.core.slack import annotate_tree_slacks
from repro.core.tuning import (
    PassResult,
    SlewBudget,
    SnakeModel,
    calibrate_snake_model,
    stage_slew_headroom,
    top_down_order,
)
from repro.cts.tree import ClockTree

__all__ = ["top_down_wiresnaking"]

# Most snaking units one edge may receive per round, which keeps each round
# inside the linear-model trust region.
MAX_UNITS_PER_EDGE = 50
# Fraction of an edge's slow-down slack the linear model may spend per round.
SAFETY = 0.9


def top_down_wiresnaking(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    baseline: Optional[EvaluationReport] = None,
    corners: Optional[Sequence[str]] = None,
    unit_length: float = 20.0,
    max_rounds: int = 20,
    gate: Optional[IvcGate] = None,
    candidate_scales: Optional[Sequence[float]] = None,
) -> PassResult:
    """Run iterative top-down wiresnaking on ``tree`` in place.

    ``unit_length`` is the paper's ``lwn`` parameter (um of snake per unit).
    A round is accepted when it reduces skew without a violation.  ``gate``
    (an optional acceptance gate, see
    :class:`repro.core.variation.VariationGate`) and ``candidate_scales``
    (best-of-K rounds, one candidate per scale) are the round policy, handed
    to :class:`~repro.core.ivc.IvcEngine`.
    """
    if unit_length <= 0.0:
        raise ValueError("unit_length must be positive")
    engine = IvcEngine(
        "top_down_wiresnaking",
        tree,
        evaluator,
        objective="skew",
        baseline=baseline,
        gate=gate,
        candidate_scales=candidate_scales,
    )
    model = calibrate_snake_model(tree, evaluator, engine.report, unit_length)
    if model is None:
        return engine.abort("snake impact model could not be calibrated")

    def propose(state: IvcState) -> int:
        annotation = annotate_tree_slacks(tree, state.report, corners=corners)
        headroom = stage_slew_headroom(tree, state.report)
        model.refresh(tree)
        return _snake_round(
            tree,
            annotation.edge_slow,
            headroom,
            model,
            unit_length,
            SAFETY * state.aggressiveness,
        )

    return engine.run(
        propose,
        max_rounds=max_rounds,
        empty_note="no edge had a full snaking unit of slack left",
    )


def _snake_round(
    tree: ClockTree,
    edge_slow_slack: Dict[int, float],
    slew_headroom: SlewBudget,
    model: SnakeModel,
    unit_length: float,
    safety: float,
) -> int:
    """One top-down snaking sweep; returns the number of edges snaked.

    The snake on each edge is bounded both by the remaining slow-down slack on
    the path (skew safety) and by the slew headroom of the edge's stage (a
    snaked wire transitions more slowly at its taps).  Each edge's wire,
    load and stage are read once.
    """
    order, parents = top_down_order(tree)
    stage_of = slew_headroom.edge_to_stage.get
    load_of = model.stage_cap.get
    # The delay already spent above each edge; parent -1 reads the last
    # slot, which stays 0.0 for the root's children.
    carried = [0.0] * (len(order) + 1)
    changed = 0
    for position, node_id in enumerate(order):
        consumed = carried[parents[position]]
        slack = edge_slow_slack.get(node_id)
        if slack is not None:
            wire = tree.node(node_id).wire_type
            load = load_of(node_id, 0.0)
            stage = stage_of(node_id)
            budget = min(safety * slack - consumed, slew_headroom.delay_room(stage))
            units = min(int(model.length(wire, load, budget) // unit_length), MAX_UNITS_PER_EDGE)
            if units > 0:
                extra = units * unit_length
                predicted = model.delay(wire, load, extra)
                tree.add_snake(node_id, extra)
                slew_headroom.consume(stage, predicted)
                consumed += predicted
                changed += 1
        carried[position] = consumed
    return changed
