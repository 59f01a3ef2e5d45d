"""The whole-tree IVC proposal analytics as they were before they were memoized.

Each function re-derives its result from the tree on every call: Lemma 1
takes a ``min`` over every node's full downstream sink list, the slew budget
re-extracts the stage list and reads the per-tap slew dicts, and the
wire-delay calibrations probe a :meth:`~repro.cts.tree.ClockTree.clone`.
``tests/core/test_analytics_oracle.py`` runs them beside the production
code and requires the same values, the same dict order and the same
evaluator counters.  Keep them as they are: they are the results the
memoized analytics must reproduce.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.evaluator import ClockNetworkEvaluator, EvaluationReport
from repro.analysis.rcnetwork import extract_stages
from repro.core.slack import SlackAnnotation, compute_sink_slacks
from repro.core.tuning import (
    DownsizeModel,
    SlewBudget,
    SnakeModel,
    select_independent_middle_edges,
)
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
        analytic = model.predicted_delay(tree, wirelib, node_id)
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
        analytic = model.delay_for_length(tree, node_id, unit_length)
        if analytic <= 0.0:
            continue
        measured = _max_latency_increase(baseline, perturbed, downstream[node_id])
        ratios.append(measured / analytic)
    model.calibration = _calibration_factor(ratios)
    return model
