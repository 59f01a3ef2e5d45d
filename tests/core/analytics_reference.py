"""The IVC proposal analytics and sweeps as they were before they were optimised.

Each function re-derives its result from the tree on every call: sink
slacks fold the report's per-sink latency dicts, Lemma 1 takes a ``min``
over every node's full downstream sink list, the slew budget re-extracts
the stage list and reads the per-tap slew dicts, and the wire-delay
calibrations probe a :meth:`~repro.cts.tree.ClockTree.clone`.  The three
proposal sweeps (wiresizing, wiresnaking, bottom-level tuning) visit every
edge through the per-node model and budget calls below, and the buffer
sizing helpers walk the whole tree.
``tests/core/test_analytics_oracle.py`` runs them beside the production
code and requires the same values, the same dict order, the same tree
edits and the same evaluator counters.  Keep them as they are: they are
the results the production analytics must reproduce.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluationReport
from repro.analysis.rcnetwork import extract_stages
from repro.analysis.units import OHM_FF_TO_PS
from repro.core.bottom_level import MIN_SLACK
from repro.core.slack import SinkSlacks, SlackAnnotation
from repro.core.tuning import (
    DownsizeModel,
    SnakeModel,
    select_independent_middle_edges,
)
from repro.core.wiresizing import MIN_EDGE_LENGTH
from repro.core.wiresnaking import MAX_UNITS_PER_EDGE
from repro.cts.tree import ClockTree
from repro.cts.wirelib import WireLibrary


def _max_latency_increase(
    baseline: EvaluationReport,
    perturbed: EvaluationReport,
    sink_ids: Sequence[int],
    corner: Optional[str] = None,
) -> float:
    """Largest per-sink latency increase (over rise and fall) among ``sink_ids``."""
    corner_name = corner or baseline.fast_corner
    base = baseline.corners[corner_name].latency
    new = perturbed.corners[corner_name].latency
    worst = 0.0
    for sink_id in sink_ids:
        for transition in ("rise", "fall"):
            worst = max(worst, new[sink_id][transition] - base[sink_id][transition])
    return worst


def _calibration_factor(ratios: List[float]) -> float:
    """Aggregate measured/analytic ratios into one conservative factor."""
    if not ratios:
        return 1.0
    return min(max(max(ratios), 0.25), 3.0)


def downstream_sinks_map(tree: ClockTree) -> Dict[int, List[int]]:
    """Map every node id to the ids of its downstream sinks (O(n) total via postorder)."""
    result: Dict[int, List[int]] = {}
    for node in tree.postorder():
        if node.is_sink:
            result[node.node_id] = [node.node_id]
        else:
            collected: List[int] = []
            for child in node.children:
                collected.extend(result[child])
            result[node.node_id] = collected
    return result


def compute_sink_slacks(
    report: EvaluationReport,
    corners: Optional[Sequence[str]] = None,
    transitions: Iterable[str] = ("rise", "fall"),
) -> SinkSlacks:
    """Per-sink slacks (Definition 1), folded over the report's latency dicts."""
    corner_names = list(corners) if corners is not None else [report.fast_corner]
    transition_list = list(transitions)
    slow: Dict[int, float] = {}
    fast: Dict[int, float] = {}
    for corner_name in corner_names:
        timing = report.corners[corner_name]
        for transition in transition_list:
            latencies = {
                sink_id: values[transition] for sink_id, values in timing.latency.items()
            }
            tmax = max(latencies.values())
            tmin = min(latencies.values())
            for sink_id, latency in latencies.items():
                slow_slack = tmax - latency
                fast_slack = latency - tmin
                slow[sink_id] = min(slow.get(sink_id, float("inf")), slow_slack)
                fast[sink_id] = min(fast.get(sink_id, float("inf")), fast_slack)
    return SinkSlacks(slow=slow, fast=fast)


def annotate_tree_slacks(
    tree: ClockTree,
    report: EvaluationReport,
    corners: Optional[Sequence[str]] = None,
    transitions: Iterable[str] = ("rise", "fall"),
) -> SlackAnnotation:
    """Propagate sink slacks to every edge (Lemma 1) and compute the deltas (Prop. 1)."""
    sink_slacks = compute_sink_slacks(report, corners=corners, transitions=transitions)
    annotation = SlackAnnotation(sink=sink_slacks)

    downstream = downstream_sinks_map(tree)
    for node in tree.nodes():
        sinks_below = downstream[node.node_id]
        if not sinks_below:
            continue
        annotation.edge_slow[node.node_id] = min(
            sink_slacks.slow[s] for s in sinks_below
        )
        annotation.edge_fast[node.node_id] = min(
            sink_slacks.fast[s] for s in sinks_below
        )

    for node in tree.nodes():
        if node.node_id not in annotation.edge_slow:
            continue
        if node.parent is None:
            continue
        parent_slow = annotation.edge_slow.get(node.parent, 0.0)
        parent_fast = annotation.edge_fast.get(node.parent, 0.0)
        annotation.delta_slow[node.node_id] = (
            annotation.edge_slow[node.node_id] - parent_slow
        )
        annotation.delta_fast[node.node_id] = (
            annotation.edge_fast[node.node_id] - parent_fast
        )
    return annotation


def stage_local_downstream_capacitance(tree: ClockTree) -> Dict[int, float]:
    """Capacitance seen by extra resistance inserted into each edge."""
    caps: Dict[int, float] = {}
    for node in tree.postorder():
        local = tree.node_load_capacitance(node.node_id)
        local += 0.5 * tree.edge_capacitance(node.node_id)
        if not node.has_buffer:
            for child in node.children:
                local += caps[child] + 0.5 * tree.edge_capacitance(child)
        caps[node.node_id] = local
    return caps


class SlewBudget:
    """Per-stage slew headroom, charged and read through the edge's stage."""

    DELAY_TO_SLEW = 2.2
    GUARD = 1.6

    def __init__(self, edge_to_stage: Dict[int, int], headroom: Dict[int, float]) -> None:
        self._edge_to_stage = edge_to_stage
        self._headroom = headroom

    def available(self, edge_id: int) -> float:
        stage = self._edge_to_stage.get(edge_id)
        if stage is None:
            return float("inf")
        return self._headroom[stage]

    def allows_delay(self, edge_id: int, added_delay: float) -> bool:
        return self.available(edge_id) >= self.GUARD * self.DELAY_TO_SLEW * added_delay

    def consume_delay(self, edge_id: int, added_delay: float) -> None:
        stage = self._edge_to_stage.get(edge_id)
        if stage is None:
            return
        self._headroom[stage] -= self.DELAY_TO_SLEW * added_delay

    def max_delay(self, edge_id: int) -> float:
        available = self.available(edge_id)
        if available == float("inf"):
            return float("inf")
        return max(available / (self.GUARD * self.DELAY_TO_SLEW), 0.0)


def stage_slew_headroom(tree: ClockTree, report: EvaluationReport) -> SlewBudget:
    """Build the :class:`SlewBudget` of ``tree`` from an evaluation report."""
    edge_to_stage: Dict[int, int] = {}
    headroom: Dict[int, float] = {}
    for stage_index, stage in enumerate(extract_stages(tree)):
        worst = 0.0
        for timing in report.corners.values():
            for tap in stage.taps:
                per_tap = timing.tap_slew.get(tap)
                if per_tap:
                    worst = max(worst, max(per_tap.values()))
        headroom[stage_index] = report.slew_limit - worst
        for edge in stage.edges:
            edge_to_stage[edge] = stage_index
    return SlewBudget(edge_to_stage, headroom)


# ----------------------------------------------------------------------
# The wire-delay models' per-edge predictions
# ----------------------------------------------------------------------
def predicted_delay(
    model: DownsizeModel, tree: ClockTree, wirelib: WireLibrary, node_id: int
) -> float:
    """Estimated worst-sink latency increase (ps) of downsizing the edge."""
    node = tree.node(node_id)
    if node.wire_type is None or not wirelib.can_downsize(node.wire_type):
        return 0.0
    narrower = wirelib.narrower(node.wire_type)
    delta_res = (narrower.unit_resistance - node.wire_type.unit_resistance) * node.edge_length()
    load = model.stage_cap.get(node_id, 0.0)
    return model.calibration * delta_res * load * OHM_FF_TO_PS


def delay_for_length(
    model: SnakeModel, tree: ClockTree, node_id: int, extra_length: float
) -> float:
    """Estimated latency increase (ps) of snaking the edge by ``extra_length`` um."""
    wire = tree.node(node_id).wire_type
    if wire is None or extra_length <= 0.0:
        return 0.0
    load = model.stage_cap.get(node_id, 0.0)
    raw = wire.unit_resistance * extra_length * (
        wire.unit_capacitance * extra_length / 2.0 + load
    ) * OHM_FF_TO_PS
    return model.calibration * raw


def length_for_delay(
    model: SnakeModel, tree: ClockTree, node_id: int, delay_budget: float
) -> float:
    """Largest snake length (um) whose predicted delay fits in ``delay_budget`` ps."""
    wire = tree.node(node_id).wire_type
    if wire is None or delay_budget <= 0.0 or model.calibration <= 0.0:
        return 0.0
    load = model.stage_cap.get(node_id, 0.0)
    a = model.calibration * wire.unit_resistance * wire.unit_capacitance / 2.0 * OHM_FF_TO_PS
    b = model.calibration * wire.unit_resistance * load * OHM_FF_TO_PS
    if a <= 0.0:
        return delay_budget / b if b > 0.0 else 0.0
    disc = b * b + 4.0 * a * delay_budget
    return (-b + math.sqrt(disc)) / (2.0 * a)


def calibrate_downsize_model(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    wirelib: WireLibrary,
    baseline: EvaluationReport,
    sample_edges: int = 5,
    edge_ids: Optional[Sequence[int]] = None,
) -> Optional[DownsizeModel]:
    """Calibrate the wiresizing impact model on a clone of the tree."""
    stage_cap = stage_local_downstream_capacitance(tree)
    model = DownsizeModel(calibration=1.0, stage_cap=stage_cap)
    probe_ids = (
        list(edge_ids)
        if edge_ids is not None
        else select_independent_middle_edges(tree, count=sample_edges)
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
    probe = tree.clone()
    for node_id in edges:
        probe.set_wire_type(node_id, wirelib.narrower(probe.node(node_id).wire_type))
    perturbed = evaluator.evaluate(probe)
    downstream = downstream_sinks_map(tree)
    ratios: List[float] = []
    for node_id in edges:
        analytic = predicted_delay(model, tree, wirelib, node_id)
        if analytic <= 0.0:
            continue
        measured = _max_latency_increase(baseline, perturbed, downstream[node_id])
        ratios.append(measured / analytic)
    model.calibration = _calibration_factor(ratios)
    return model


def calibrate_snake_model(
    tree: ClockTree,
    evaluator: ClockNetworkEvaluator,
    baseline: EvaluationReport,
    unit_length: float,
    sample_edges: int = 5,
    edge_ids: Optional[Sequence[int]] = None,
) -> Optional[SnakeModel]:
    """Calibrate the wiresnaking impact model on a clone of the tree."""
    if unit_length <= 0.0:
        raise ValueError("unit_length must be positive")
    stage_cap = stage_local_downstream_capacitance(tree)
    model = SnakeModel(calibration=1.0, stage_cap=stage_cap)
    edges = (
        list(edge_ids)
        if edge_ids is not None
        else select_independent_middle_edges(tree, count=sample_edges)
    )
    edges = [e for e in edges if tree.node(e).wire_type is not None]
    if not edges:
        return None
    probe = tree.clone()
    for node_id in edges:
        probe.add_snake(node_id, unit_length)
    perturbed = evaluator.evaluate(probe)
    downstream = downstream_sinks_map(tree)
    ratios: List[float] = []
    for node_id in edges:
        analytic = delay_for_length(model, tree, node_id, unit_length)
        if analytic <= 0.0:
            continue
        measured = _max_latency_increase(baseline, perturbed, downstream[node_id])
        ratios.append(measured / analytic)
    model.calibration = _calibration_factor(ratios)
    return model


# ----------------------------------------------------------------------
# The proposal sweeps
# ----------------------------------------------------------------------
def downsize_round(
    tree: ClockTree,
    wirelib: WireLibrary,
    edge_slow_slack: Dict[int, float],
    slew_headroom: SlewBudget,
    model: DownsizeModel,
    safety: float,
) -> int:
    """One top-down sweep of Algorithm 1; returns the number of edges downsized."""
    changed = 0
    queue = deque((child, 0.0) for child in tree.root.children)
    while queue:
        node_id, consumed = queue.popleft()
        node = tree.node(node_id)
        slack = edge_slow_slack.get(node_id)
        length = node.edge_length()
        if (
            slack is not None
            and length >= MIN_EDGE_LENGTH
            and node.wire_type is not None
            and wirelib.can_downsize(node.wire_type)
        ):
            predicted = predicted_delay(model, tree, wirelib, node_id)
            if (
                predicted > 0.0
                and safety * slack - consumed > predicted
                and slew_headroom.allows_delay(node_id, predicted)
            ):
                tree.set_wire_type(node_id, wirelib.narrower(node.wire_type))
                slew_headroom.consume_delay(node_id, predicted)
                consumed += predicted
                changed += 1
        for child in node.children:
            queue.append((child, consumed))
    return changed


def snake_round(
    tree: ClockTree,
    edge_slow_slack: Dict[int, float],
    slew_headroom: SlewBudget,
    model: SnakeModel,
    unit_length: float,
    safety: float,
) -> int:
    """One top-down snaking sweep; returns the number of edges snaked."""
    changed = 0
    queue = deque((child, 0.0) for child in tree.root.children)
    while queue:
        node_id, consumed = queue.popleft()
        node = tree.node(node_id)
        slack = edge_slow_slack.get(node_id)
        if slack is not None and node.parent is not None:
            budget = min(safety * slack - consumed, slew_headroom.max_delay(node_id))
            max_length = length_for_delay(model, tree, node_id, budget)
            units = min(int(max_length // unit_length), MAX_UNITS_PER_EDGE)
            if units > 0:
                extra = units * unit_length
                predicted = delay_for_length(model, tree, node_id, extra)
                tree.add_snake(node_id, extra)
                slew_headroom.consume_delay(node_id, predicted)
                consumed += predicted
                changed += 1
        for child in node.children:
            queue.append((child, consumed))
    return changed


def tune_sink_edges(
    tree: ClockTree,
    wirelib: WireLibrary,
    slow_slack: Dict[int, float],
    slew_headroom: SlewBudget,
    snake_model: SnakeModel,
    downsize_model: Optional[DownsizeModel],
    unit_length: float,
    safety: float,
) -> int:
    """Apply one round of per-sink slow-down moves; returns edges touched."""
    changed = 0
    for sink in tree.sinks():
        node_id = sink.node_id
        slack = slow_slack.get(node_id, 0.0)
        if slack < MIN_SLACK:
            continue
        budget = min(safety * slack, slew_headroom.max_delay(node_id))
        node = tree.node(node_id)
        if (
            downsize_model is not None
            and node.wire_type is not None
            and wirelib.can_downsize(node.wire_type)
            and node.edge_length() > 0.0
        ):
            predicted = predicted_delay(downsize_model, tree, wirelib, node_id)
            if 0.0 < predicted <= budget:
                tree.set_wire_type(node_id, wirelib.narrower(node.wire_type))
                slew_headroom.consume_delay(node_id, predicted)
                budget -= predicted
                changed += 1
        max_length = length_for_delay(snake_model, tree, node_id, budget)
        units = int(max_length // unit_length)
        if units > 0:
            extra = units * unit_length
            predicted = delay_for_length(snake_model, tree, node_id, extra)
            tree.add_snake(node_id, extra)
            slew_headroom.consume_delay(node_id, predicted)
            changed += 1
    return changed


# ----------------------------------------------------------------------
# Buffer sizing's tree walks
# ----------------------------------------------------------------------
def buffer_depths(tree: ClockTree) -> Dict[int, int]:
    """Number of buffered ancestors (inclusive of the node itself) per buffered node."""
    depths: Dict[int, int] = {}
    counts: Dict[int, int] = {}
    for node in tree.preorder():
        inherited = 0 if node.parent is None else counts[node.parent]
        own = inherited + (1 if node.has_buffer else 0)
        counts[node.node_id] = own
        if node.has_buffer:
            depths[node.node_id] = own
    return depths


def bottom_level_buffers(tree: ClockTree) -> List[int]:
    """Buffered nodes with no buffered descendants (they drive only sinks/wire)."""
    has_buffered_descendant: Dict[int, bool] = {}
    for node in tree.postorder():
        flag = False
        for child in node.children:
            child_node = tree.node(child)
            if child_node.has_buffer or has_buffered_descendant[child]:
                flag = True
        has_buffered_descendant[node.node_id] = flag
    return [
        node.node_id
        for node in tree.nodes()
        if node.has_buffer and not has_buffered_descendant[node.node_id]
    ]
