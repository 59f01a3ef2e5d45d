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

from collections import deque
from typing import Optional, Sequence

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluationReport
from repro.core.ivc import IvcEngine, IvcGate, IvcState
from repro.core.slack import annotate_tree_slacks
from repro.core.tuning import (
    PassResult,
    calibrate_snake_model,
    stage_slew_headroom,
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
    edge_slow_slack,
    slew_headroom,
    model,
    unit_length: float,
    safety: float,
) -> int:
    """One top-down snaking sweep; returns the number of edges snaked.

    The snake on each edge is bounded both by the remaining slow-down slack on
    the path (skew safety) and by the slew headroom of the edge's stage (a
    snaked wire transitions more slowly at its taps).
    """
    changed = 0
    queue = deque((child, 0.0) for child in tree.root.children)
    while queue:
        node_id, consumed = queue.popleft()
        node = tree.node(node_id)
        slack = edge_slow_slack.get(node_id)
        if slack is not None and node.parent is not None:
            budget = min(safety * slack - consumed, slew_headroom.max_delay(node_id))
            max_length = model.length_for_delay(tree, node_id, budget)
            units = min(int(max_length // unit_length), MAX_UNITS_PER_EDGE)
            if units > 0:
                extra = units * unit_length
                predicted = model.delay_for_length(tree, node_id, extra)
                tree.add_snake(node_id, extra)
                slew_headroom.consume_delay(node_id, predicted)
                consumed += predicted
                changed += 1
        for child in node.children:
            queue.append((child, consumed))
    return changed
