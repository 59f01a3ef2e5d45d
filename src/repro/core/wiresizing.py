"""Iterative top-down wiresizing (Section IV-E, Algorithm 1 of the paper).

Wiresizing reduces skew by *slowing down* the fast parts of the tree: an edge
whose downstream sinks all have slow-down slack can be switched to a narrower
(higher-resistance) wire without increasing skew.  The pass works top-down so
that a single edit high in the tree retires the slack of a whole cluster of
fast sinks with the smallest possible number of modifications; the running
``RSlack`` budget carried down each path guarantees that slack is never spent
twice on the same root-to-sink path (Algorithm 1).

The effect of downsizing is predicted with the calibrated linear model
``delta_delay ~= Tws * length`` (one evaluation measures ``Tws``); the
accept/rollback discipline around each round is the shared
:class:`repro.core.ivc.IvcEngine` (the IVC step).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluationReport
from repro.core.ivc import IvcEngine, IvcGate, IvcState
from repro.core.slack import annotate_tree_slacks
from repro.core.tuning import (
    DownsizeModel,
    PassResult,
    SlewBudget,
    calibrate_downsize_model,
    narrower_types,
    stage_slew_headroom,
    top_down_order,
)
from repro.cts.tree import ClockTree
from repro.cts.wirelib import WireLibrary

__all__ = ["top_down_wiresizing"]

# Fraction of an edge's slow-down slack the linear model may spend per round,
# guarding against model error.
SAFETY = 0.9
# Shortest edge (um) worth downsizing.
MIN_EDGE_LENGTH = 10.0


def top_down_wiresizing(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    wirelib: WireLibrary,
    baseline: Optional[EvaluationReport] = None,
    corners: Optional[Sequence[str]] = None,
    max_rounds: int = 20,
    gate: Optional[IvcGate] = None,
    candidate_scales: Optional[Sequence[float]] = None,
) -> PassResult:
    """Run iterative top-down wiresizing on ``tree`` in place.

    A round is accepted when it reduces skew without a violation.

    Parameters
    ----------
    baseline:
        Evaluation of the incoming tree; re-evaluated here when omitted.
    corners:
        Corner names used for slack computation; default is the nominal
        (fast) corner only, matching the paper's nominal-skew phase.
    gate, candidate_scales:
        The round policy, handed to :class:`~repro.core.ivc.IvcEngine`: an
        optional acceptance gate (e.g. the Monte Carlo p95-skew check of
        :class:`repro.core.variation.VariationGate`) and, when given, one
        candidate per aggressiveness scale in best-of-K rounds.
    """
    engine = IvcEngine(
        "top_down_wiresizing",
        tree,
        evaluator,
        objective="skew",
        baseline=baseline,
        gate=gate,
        candidate_scales=candidate_scales,
    )
    model = calibrate_downsize_model(tree, evaluator, wirelib, engine.report)
    if model is None:
        return engine.abort("no downsizable edges to calibrate the impact model on")

    def propose(state: IvcState) -> int:
        annotation = annotate_tree_slacks(tree, state.report, corners=corners)
        headroom = stage_slew_headroom(tree, state.report)
        model.refresh(tree)
        return _downsize_round(
            tree,
            wirelib,
            annotation.edge_slow,
            headroom,
            model,
            SAFETY * state.aggressiveness,
        )

    return engine.run(
        propose,
        max_rounds=max_rounds,
        empty_note="no edge had enough slack to absorb a downsizing",
    )


def _downsize_round(
    tree: ClockTree,
    wirelib: WireLibrary,
    edge_slow_slack: Dict[int, float],
    slew_headroom: SlewBudget,
    model: DownsizeModel,
    safety: float,
) -> int:
    """One top-down sweep of Algorithm 1; returns the number of edges downsized.

    An edge is only downsized when (a) its slow-down slack minus the slack
    already consumed on the path covers the predicted delay increase, and
    (b) the stage containing the edge still has slew headroom for the slower
    transition.  The headroom is *consumed* per accepted move, so several
    edges of the same stage cannot jointly push a tap past the slew limit.
    Each edge's wire, narrower type, length, load and stage are read once.
    """
    order, parents = top_down_order(tree)
    narrower_of = narrower_types(wirelib)
    stage_of = slew_headroom.edge_to_stage.get
    load_of = model.stage_cap.get
    # The delay already spent above each edge; parent -1 reads the last
    # slot, which stays 0.0 for the root's children.
    carried = [0.0] * (len(order) + 1)
    changed = 0
    for position, node_id in enumerate(order):
        consumed = carried[parents[position]]
        node = tree.node(node_id)
        slack = edge_slow_slack.get(node_id)
        wire = node.wire_type
        if slack is not None and wire is not None:
            length = node.edge_length()
            narrower = narrower_of[wire.name] if length >= MIN_EDGE_LENGTH else None
            if narrower is not None:
                stage = stage_of(node_id)
                predicted = model.delay(wire, narrower, length, load_of(node_id, 0.0))
                if (
                    predicted > 0.0
                    and safety * slack - consumed > predicted
                    and slew_headroom.allows(stage, predicted)
                ):
                    tree.set_wire_type(node_id, narrower)
                    slew_headroom.consume(stage, predicted)
                    consumed += predicted
                    changed += 1
        carried[position] = consumed
    return changed
