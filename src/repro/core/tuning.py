"""Shared machinery for the SPICE-driven tuning passes.

Every Contango optimization pass follows the same Improvement- &
Violation-Checking (IVC) discipline from Figure 1 of the paper:

1. snapshot the current solution,
2. apply a batch of tuning moves sized by the slack budgets,
3. re-evaluate the network (one CNE = one "SPICE run"),
4. keep the change only if the objective improved and no slew violation
   appeared; otherwise roll back and stop.

This module holds the pieces those passes share:

* :class:`PassResult` -- the per-pass outcome record,
* :func:`objective_value` -- the scalar objectives (skew / CLR),
* :class:`SlewBudget` -- per-stage slew headroom bookkeeping, so that a batch
  of slow-down moves cannot jointly push a stage past the slew limit,
* the calibrated wire-delay models of Sections IV-E/IV-F: the impact of
  downsizing or snaking an edge is predicted analytically from the edge's
  stage-local downstream capacitance and then scaled by a correction factor
  measured with a single evaluation of :data:`PROBE_EDGES` independently
  perturbed mid-tree edges (the paper's ``Tws`` / ``Twn`` calibration runs).
  Both calibrations share one probe routine, which perturbs the live tree
  under a checkpoint and rolls back after the evaluation, so no clone is
  taken.

The whole-tree analytics every proposal reads are memoized on the tree
(:meth:`~repro.cts.tree.ClockTree.memoized`): stage-local capacitance on
the tree's revision, so a rejected round or the K proposals of a batched
round reuse it, the top-down sweeps' edge order (:func:`top_down_order`)
on its structure revision, and the slew budget's stage map is the
:class:`~repro.analysis.rcnetwork.StageTopology` the report was walked on.

A proposal sweep reads each edge's wire, next-narrower type, length,
stage-local load and stage index once per round and hands them as plain
values to the models' and the budget's formulas; per edge, only the
sequential decision remains.  The ``(tree, node_id)`` model forms and the
edge-keyed budget methods read the same inputs from the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluationReport
from repro.analysis.units import OHM_FF_TO_PS
from repro.cts.tree import ClockTree
from repro.cts.wirelib import WireLibrary, WireType

__all__ = [
    "PassResult",
    "SlewBudget",
    "DownsizeModel",
    "SnakeModel",
    "objective_value",
    "select_independent_middle_edges",
    "stage_local_downstream_capacitance",
    "stage_slew_headroom",
    "calibrate_downsize_model",
    "calibrate_snake_model",
    "top_down_order",
    "narrower_types",
]

# Number of independent mid-tree edges a wire-delay calibration probes.
PROBE_EDGES = 5


@dataclass
class PassResult:
    """Outcome of one optimization pass."""

    name: str
    improved: bool
    rounds: int
    edges_changed: int
    initial: Dict[str, float]
    final: Dict[str, float]
    evaluations_used: int
    notes: List[str] = field(default_factory=list)
    #: Evaluation of the tree as the pass left it (the last accepted state).
    #: Threaded into the next pass as its ``baseline`` so consecutive passes
    #: never re-evaluate an unchanged tree.
    final_report: Optional[EvaluationReport] = None


def objective_value(report: EvaluationReport, objective: str) -> float:
    """Scalar objective extracted from an evaluation report.

    ``"skew"`` and ``"clr"`` select the respective metric.
    """
    if objective == "skew":
        return report.skew
    if objective == "clr":
        return report.clr
    raise ValueError(f"unknown objective {objective!r}")


# ----------------------------------------------------------------------
# Stage-local capacitance and slew headroom
# ----------------------------------------------------------------------
def stage_local_downstream_capacitance(tree: ClockTree) -> Dict[int, float]:
    """Capacitance seen by extra resistance inserted into each edge.

    For the edge above node ``v`` this is half of the edge's own wire
    capacitance plus everything hanging below ``v`` *within the same buffer
    stage*: downstream wire, sink pins, and the input pins of the next-stage
    buffers.  Buffers isolate their subtrees, so capacitance beyond them does
    not load the edge.

    Memoized on the tree's revision (see
    :meth:`~repro.cts.tree.ClockTree.memoized`): the returned mapping is
    shared, read-only.
    """
    return tree.memoized(
        "stage_local_downstream_capacitance", lambda: _stage_local_caps(tree)
    )


def _stage_local_caps(tree: ClockTree) -> Dict[int, float]:
    caps: Dict[int, float] = {}
    half_edge: Dict[int, float] = {}
    for node in tree.postorder():
        node_id = node.node_id
        half = half_edge[node_id] = 0.5 * tree.edge_capacitance(node_id)
        local = tree.node_load_capacitance(node_id)
        local += half
        if not node.has_buffer:
            for child in node.children:
                local += caps[child] + half_edge[child]
        caps[node_id] = local
    return caps


class SlewBudget:
    """Per-stage slew headroom bookkeeping for slow-down tuning moves.

    Slowing an edge down (narrower wire, snaking) degrades the transition at
    every tap of the *stage* containing that edge, so a tuning move is only
    safe while the stage's worst tap slew stays comfortably below the limit.
    The budget starts at ``slew_limit - worst tap slew of the stage`` (worst
    over corners and transitions) and every accepted move consumes an estimate
    of its slew impact, so several edges of the same stage cannot jointly blow
    the limit even though each one individually would fit.

    The formulas take a stage index from :attr:`edge_to_stage` (None: an
    edge in no stage, with unlimited headroom); the edge-keyed forms look it
    up first.
    """

    #: conversion from added stage delay (ps) to added tap slew (ps); a
    #: single-pole stage has slew = ln(9) * tau, so the ratio is ~2.2.
    DELAY_TO_SLEW = 2.2
    #: safety factor on the estimated slew impact of a move.
    GUARD = 1.6

    def __init__(self, edge_to_stage: Dict[int, int], headroom: Dict[int, float]) -> None:
        self._edge_to_stage = edge_to_stage
        self._headroom = headroom

    @property
    def edge_to_stage(self) -> Dict[int, int]:
        """Edge (child node id) -> index of its stage; shared, read-only."""
        return self._edge_to_stage

    def headroom(self, stage: Optional[int]) -> float:
        """Remaining slew headroom (ps) of ``stage``."""
        return math.inf if stage is None else self._headroom[stage]

    def allows(self, stage: Optional[int], added_delay: float) -> bool:
        """True when a move adding ``added_delay`` ps keeps ``stage`` safe."""
        return self.headroom(stage) >= self.GUARD * self.DELAY_TO_SLEW * added_delay

    def consume(self, stage: Optional[int], added_delay: float) -> None:
        """Charge ``stage`` for a move adding ``added_delay`` ps."""
        if stage is not None:
            self._headroom[stage] -= self.DELAY_TO_SLEW * added_delay

    def delay_room(self, stage: Optional[int]) -> float:
        """Largest added delay (ps) ``stage`` can still absorb."""
        available = self.headroom(stage)
        if available == math.inf:
            return math.inf
        return max(available / (self.GUARD * self.DELAY_TO_SLEW), 0.0)

    def available(self, edge_id: int) -> float:
        """Remaining slew headroom (ps) of the stage containing ``edge_id``."""
        return self.headroom(self._edge_to_stage.get(edge_id))

    def allows_delay(self, edge_id: int, added_delay: float) -> bool:
        """True when slowing ``edge_id`` by ``added_delay`` ps keeps its stage safe."""
        return self.allows(self._edge_to_stage.get(edge_id), added_delay)

    def consume_delay(self, edge_id: int, added_delay: float) -> None:
        """Charge the stage of ``edge_id`` for a move adding ``added_delay`` ps."""
        self.consume(self._edge_to_stage.get(edge_id), added_delay)

    def max_delay(self, edge_id: int) -> float:
        """Largest added delay (ps) the stage of ``edge_id`` can still absorb."""
        return self.delay_room(self._edge_to_stage.get(edge_id))


def stage_slew_headroom(tree: ClockTree, report: EvaluationReport) -> SlewBudget:
    """Build the :class:`SlewBudget` of ``tree`` from an evaluation report.

    The stages are those of the :class:`~repro.analysis.rcnetwork.StageTopology`
    the report was walked on, which must be ``tree``'s current stage
    decomposition: a report of another structure revision raises
    :class:`ValueError`.
    """
    topology = report.topology
    if topology.structure_revision != tree.structure_revision:
        raise ValueError(
            f"report was walked on structure revision {topology.structure_revision}, "
            f"the tree is at {tree.structure_revision}"
        )
    headroom = {
        stage: report.slew_limit - worst
        for stage, worst in enumerate(report.stage_worst_slews())
    }
    return SlewBudget(topology.stage_of_edge, headroom)


# ----------------------------------------------------------------------
# Calibrated wire-delay models (Tws / Twn)
# ----------------------------------------------------------------------
@dataclass
class DownsizeModel:
    """Predicts the latency impact of switching one edge to a narrower wire."""

    calibration: float
    stage_cap: Dict[int, float]

    def refresh(self, tree: ClockTree) -> None:
        """Recompute the stage-local loads after the tree has been edited."""
        self.stage_cap = stage_local_downstream_capacitance(tree)

    def delay(self, wire: WireType, narrower: WireType, length: float, load: float) -> float:
        """Latency increase (ps) of turning ``length`` um of ``wire`` into ``narrower``.

        ``load`` is the edge's stage-local downstream capacitance (fF).
        """
        delta_res = (narrower.unit_resistance - wire.unit_resistance) * length
        return self.calibration * delta_res * load * OHM_FF_TO_PS

    def predicted_delay(self, tree: ClockTree, wirelib: WireLibrary, node_id: int) -> float:
        """Estimated worst-sink latency increase (ps) of downsizing the edge."""
        node = tree.node(node_id)
        wire = node.wire_type
        if wire is None or not wirelib.can_downsize(wire):
            return 0.0
        load = self.stage_cap.get(node_id, 0.0)
        return self.delay(wire, wirelib.narrower(wire), node.edge_length(), load)


@dataclass
class SnakeModel:
    """Predicts the latency impact of adding snaking wirelength to an edge."""

    calibration: float
    stage_cap: Dict[int, float]

    def refresh(self, tree: ClockTree) -> None:
        self.stage_cap = stage_local_downstream_capacitance(tree)

    def delay(self, wire: Optional[WireType], load: float, extra_length: float) -> float:
        """Latency increase (ps) of snaking ``extra_length`` um of ``wire`` above ``load`` fF."""
        if wire is None or extra_length <= 0.0:
            return 0.0
        raw = wire.unit_resistance * extra_length * (
            wire.unit_capacitance * extra_length / 2.0 + load
        ) * OHM_FF_TO_PS
        return self.calibration * raw

    def length(self, wire: Optional[WireType], load: float, delay_budget: float) -> float:
        """Largest snake length (um) whose :meth:`delay` fits in ``delay_budget`` ps."""
        if wire is None or delay_budget <= 0.0 or self.calibration <= 0.0:
            return 0.0
        a = self.calibration * wire.unit_resistance * wire.unit_capacitance / 2.0 * OHM_FF_TO_PS
        b = self.calibration * wire.unit_resistance * load * OHM_FF_TO_PS
        if a <= 0.0:
            return delay_budget / b if b > 0.0 else 0.0
        disc = b * b + 4.0 * a * delay_budget
        return (-b + math.sqrt(disc)) / (2.0 * a)

    def delay_for_length(self, tree: ClockTree, node_id: int, extra_length: float) -> float:
        """Estimated latency increase (ps) of snaking the edge by ``extra_length`` um."""
        wire, load = tree.node(node_id).wire_type, self.stage_cap.get(node_id, 0.0)
        return self.delay(wire, load, extra_length)

    def length_for_delay(self, tree: ClockTree, node_id: int, delay_budget: float) -> float:
        """Largest snake length (um) whose predicted delay fits in ``delay_budget`` ps."""
        wire, load = tree.node(node_id).wire_type, self.stage_cap.get(node_id, 0.0)
        return self.length(wire, load, delay_budget)


# ----------------------------------------------------------------------
# Per-round sweep inputs
# ----------------------------------------------------------------------
def top_down_order(tree: ClockTree) -> Tuple[List[int], List[int]]:
    """Every non-root node breadth-first from the root, with its parent's position.

    The order is the one a FIFO queue seeded with the root's children visits
    (children in ``node.children`` order); a parent position of -1 marks a
    child of the root.  Memoized on the structure revision (see
    :meth:`~repro.cts.tree.ClockTree.memoized`): shared, read-only.
    """
    return tree.memoized("top_down_order", lambda: _top_down_order(tree), structural=True)


def _top_down_order(tree: ClockTree) -> Tuple[List[int], List[int]]:
    order = list(tree.root.children)
    parents = [-1] * len(order)
    for position, node_id in enumerate(order):  # grows while it is walked
        children = tree.node(node_id).children
        order.extend(children)
        parents.extend([position] * len(children))
    return order, parents


def narrower_types(wirelib: WireLibrary) -> Dict[str, Optional[WireType]]:
    """Each library wire's name -> its next-narrower type (None for the narrowest)."""
    return {
        wire.name: wirelib.narrower(wire) if wirelib.can_downsize(wire) else None
        for wire in wirelib
    }


def select_independent_middle_edges(tree: ClockTree, count: int = 5) -> List[int]:
    """Pick up to ``count`` long, mutually independent edges mid-way down the tree.

    "Independent" means no selected edge lies in the subtree of another, so a
    single evaluation of the tree with all of them perturbed measures each
    perturbation's effect on disjoint sink sets.  Mid-depth edges are chosen
    because the paper calibrates its linear model on "several independent wire
    segments in the middle of the tree".
    """
    depths: Dict[int, int] = {tree.root_id: 0}
    max_depth = 0
    for node in tree.preorder():
        if node.parent is not None:
            depths[node.node_id] = depths[node.parent] + 1
            max_depth = max(max_depth, depths[node.node_id])
    if max_depth == 0:
        return []
    target_depth = max(1, max_depth // 2)

    candidates = [
        node
        for node in tree.nodes()
        if node.parent is not None
        and abs(depths[node.node_id] - target_depth) <= 1
        and node.edge_length() > 0.0
    ]
    candidates.sort(key=lambda n: -n.edge_length())

    chosen: List[int] = []
    blocked: set = set()
    for node in candidates:
        if node.node_id in blocked:
            continue
        chosen.append(node.node_id)
        blocked.update(tree.subtree_node_ids(node.node_id))
        # Ancestors of a chosen edge are also excluded to preserve independence.
        current = node.parent
        while current is not None:
            blocked.add(current)
            current = tree.node(current).parent
        if len(chosen) >= count:
            break
    return chosen


def _max_latency_increase(
    baseline: EvaluationReport,
    perturbed: EvaluationReport,
    sink_ids: Sequence[int],
) -> float:
    """Largest nominal-corner latency increase (over rise and fall) among ``sink_ids``."""
    corner_name = baseline.fast_corner
    base = baseline.corners[corner_name].latency
    new = perturbed.corners[corner_name].latency
    worst = 0.0
    for sink_id in sink_ids:
        for transition in ("rise", "fall"):
            worst = max(worst, new[sink_id][transition] - base[sink_id][transition])
    return worst


def _calibration_factor(ratios: List[float]) -> float:
    """Aggregate measured/analytic ratios into one conservative factor.

    The maximum ratio is used (a conservative model slows fewer edges per
    round, which the IVC loop then extends over more rounds), clamped to a
    sane band so a single noisy probe cannot freeze or explode the model.
    """
    if not ratios:
        return 1.0
    return min(max(max(ratios), 0.25), 3.0)


def _probe_calibration(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    baseline: EvaluationReport,
    edges: Sequence[int],
    perturb: Callable[[int], None],
    analytic: Callable[[int], float],
) -> float:
    """Measure a wire-delay model's calibration factor with one probe evaluation.

    ``perturb`` is applied to every probe edge under a checkpoint, the tree
    is evaluated once and rolled back (revisions included), and each edge's
    worst downstream latency increase over its ``analytic`` prediction is
    one ratio of :func:`_calibration_factor`.
    """
    token = tree.checkpoint()
    try:
        for node_id in edges:
            perturb(node_id)
        perturbed = evaluator.evaluate(tree)
    finally:
        tree.rollback_to(token)
    downstream = tree.downstream_sinks_map()
    ratios: List[float] = []
    for node_id in edges:
        predicted = analytic(node_id)
        if predicted <= 0.0:
            continue
        measured = _max_latency_increase(baseline, perturbed, downstream[node_id])
        ratios.append(measured / predicted)
    return _calibration_factor(ratios)


def calibrate_downsize_model(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    wirelib: WireLibrary,
    baseline: EvaluationReport,
    edge_ids: Optional[Sequence[int]] = None,
) -> Optional[DownsizeModel]:
    """Calibrate the wiresizing impact model with one probe evaluation.

    Up to :data:`PROBE_EDGES` independent mid-tree edges (or the explicitly
    supplied ``edge_ids``) are downsized in ``tree`` under a checkpoint; a
    single evaluation then measures each edge's worst downstream latency
    increase, the tree is rolled back (revisions included), and the ratio to
    the analytic prediction becomes the model's calibration factor.  Returns
    None when no probe edge can be downsized.
    """
    stage_cap = stage_local_downstream_capacitance(tree)
    model = DownsizeModel(calibration=1.0, stage_cap=stage_cap)
    probe_ids = (
        list(edge_ids)
        if edge_ids is not None
        else select_independent_middle_edges(tree, count=PROBE_EDGES)
    )
    edges = [
        node_id
        for node_id in probe_ids
        if tree.node(node_id).wire_type is not None
        and wirelib.can_downsize(tree.node(node_id).wire_type)
        and tree.node(node_id).edge_length() > 0.0
    ]
    if not edges:
        return None
    model.calibration = _probe_calibration(
        tree,
        evaluator,
        baseline,
        edges,
        lambda node_id: tree.set_wire_type(
            node_id, wirelib.narrower(tree.node(node_id).wire_type)
        ),
        lambda node_id: model.predicted_delay(tree, wirelib, node_id),
    )
    return model


def calibrate_snake_model(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    baseline: EvaluationReport,
    unit_length: float,
    edge_ids: Optional[Sequence[int]] = None,
) -> Optional[SnakeModel]:
    """Calibrate the wiresnaking impact model with one probe evaluation.

    Analogous to :func:`calibrate_downsize_model`: the probe edges receive one
    snaking unit of ``unit_length`` micrometres each and the measured latency
    increases calibrate the analytic model.
    """
    if unit_length <= 0.0:
        raise ValueError("unit_length must be positive")
    stage_cap = stage_local_downstream_capacitance(tree)
    model = SnakeModel(calibration=1.0, stage_cap=stage_cap)
    edges = (
        list(edge_ids)
        if edge_ids is not None
        else select_independent_middle_edges(tree, count=PROBE_EDGES)
    )
    edges = [e for e in edges if tree.node(e).wire_type is not None]
    if not edges:
        return None
    model.calibration = _probe_calibration(
        tree,
        evaluator,
        baseline,
        edges,
        lambda node_id: tree.add_snake(node_id, unit_length),
        lambda node_id: model.delay_for_length(tree, node_id, unit_length),
    )
    return model
