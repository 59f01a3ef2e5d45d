"""The per-stage analytical network construction and reduction, the batch's reference.

This is how the incremental evaluator turned one stage into a tap model
before misses were batched: :func:`build_base_stage_network` walks the stage
below its driver and builds numpy arrays of its lumped segments,
:func:`base_tap_moments` reduces one network with 1-D prefix sums, and
:func:`reference_tap_model` turns the moments into ``(corner x
transition, taps)`` delay/sigma rows (the evaluator caches their transpose).
``tests/analysis/test_stage_batch.py`` runs it beside
:func:`repro.analysis.rcnetwork.lay_out_stages` and
:func:`repro.analysis.arnoldi.reduce_stage_batch` and requires the same
floats bit for bit.  Keep it as it is: it is the operation order the batch
must match.

:func:`reference_stage_network` is the transient engine's per-corner
builder as it was when it re-derived the stage's edge order with its own
walk below the driver; :func:`repro.analysis.rcnetwork.build_stage_network`
must still build the same network from ``Stage.edges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.arnoldi import BaseTapMoments, batched_delay_sigma, batched_tap_moments
from repro.analysis.corners import Corner
from repro.analysis.rcnetwork import (
    PULL_DOWN_FACTOR,
    PULL_UP_FACTOR,
    Stage,
    StageNetwork,
    _add_edge_segments,
    _tap_load,
)
from repro.cts.tree import ClockTree


@dataclass
class BaseStageNetwork:
    """Corner-independent lumped RC arrays of one stage, in DFS preorder.

    This is the vectorized counterpart of :class:`StageNetwork`: wire
    resistances and capacitances are stored *unscaled* (nominal corner) as
    numpy arrays, so a timing engine can apply any number of corner /
    transition scalings as batched array arithmetic instead of rebuilding the
    network per corner.  Capacitance is kept in two components because
    corners scale them differently: ``wire_capacitance`` (subject to
    ``wire_cap_scale``) and ``load_capacitance`` (sink pins, tap buffer
    input pins and the driver's output cap -- never corner-scaled, matching
    :func:`build_stage_network`).  Network nodes are guaranteed to be in DFS
    preorder (parents before children, subtrees contiguous);
    ``subtree_end[i]`` is the exclusive end of node ``i``'s subtree interval,
    which makes subtree aggregations (downstream capacitance,
    capacitance-weighted moments) plain prefix-sum differences and
    root-to-node path sums a scatter-add plus one cumulative sum -- no
    per-node Python loops.
    """

    parent: np.ndarray
    resistance: np.ndarray
    wire_capacitance: np.ndarray
    load_capacitance: np.ndarray
    subtree_end: np.ndarray
    tap_ids: List[int]
    tap_indices: np.ndarray
    driver_resistance: float
    total_capacitance: float

    @property
    def size(self) -> int:
        return len(self.parent)


def subtree_interval_sums(values: np.ndarray, subtree_end: np.ndarray) -> np.ndarray:
    """Per-node sums of ``values`` over each node's subtree (vectorized).

    Requires DFS-preorder indexing with ``subtree_end`` intervals, as built by
    :func:`build_base_stage_network`.
    """
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    return prefix[subtree_end] - prefix[: len(values)]


def path_sums(values: np.ndarray, subtree_end: np.ndarray) -> np.ndarray:
    """Per-node sums of ``values`` over the root-to-node path (vectorized).

    Node ``j`` contributes to node ``i`` exactly when ``i`` lies in ``j``'s
    subtree interval ``[j, subtree_end[j])``, so scattering ``+values[j]`` at
    ``j`` and ``-values[j]`` at ``subtree_end[j]`` turns the path sum into one
    cumulative sum over the difference array.  The scatter uses ``bincount``
    (duplicate interval ends accumulate) rather than ``np.subtract.at``,
    which is an order of magnitude slower on small arrays.
    """
    n = len(values)
    removal = np.bincount(subtree_end, weights=values, minlength=n + 1)[:n]
    return np.cumsum(values - removal)


def build_base_stage_network(
    tree: ClockTree,
    stage: Stage,
    max_segment_length: float = 100.0,
) -> BaseStageNetwork:
    """Build the corner-independent lumped RC network of a stage.

    Performs the same segmentation as :func:`build_stage_network` at the
    nominal corner, but returns numpy arrays in DFS preorder together with
    the subtree intervals needed by the vectorized engines.  Corner scalings
    (wire RC, driver strength, rise/fall asymmetry) are applied later by the
    engines as batched scalar multiplies; wire and load capacitance are kept
    separate so that ``wire_cap_scale`` touches only the wire component,
    exactly as in the per-corner network.  The only (deliberate) deviation:
    the tiny regularization resistance of zero-length connections is scaled
    by ``wire_res_scale`` here but not in :func:`build_stage_network` --
    a sub-femtosecond effect.
    """
    driver_node = tree.node(stage.driver_id)
    driver_buffer = driver_node.buffer
    parent: List[int] = [-1]
    resistance: List[float] = [0.0]
    wire_cap: List[float] = [0.0]
    load_cap: List[float] = [0.0]
    tree_to_net: Dict[int, int] = {stage.driver_id: 0}

    if driver_buffer is not None:
        load_cap[0] += driver_buffer.output_cap
        base_res = driver_buffer.output_res
    else:
        base_res = tree.source_resistance

    stage_edge_set = set(stage.edges)
    stage_tap_set = set(stage.taps)

    stack = [child for child in driver_node.children if child in stage_edge_set]
    order: List[int] = []
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        node = tree.node(node_id)
        if node_id in stage_tap_set:
            continue
        stack.extend(c for c in node.children if c in stage_edge_set)

    for node_id in order:
        node = tree.node(node_id)
        parent_net = tree_to_net[node.parent]
        net_idx = _add_edge_segments(
            node, parent_net, parent, resistance, wire_cap, 1.0, 1.0, max_segment_length
        )
        load_cap.extend([0.0] * (len(wire_cap) - len(load_cap)))
        tree_to_net[node_id] = net_idx
        load_cap[net_idx] += _tap_load(tree, node, node_id in stage_tap_set)

    n = len(parent)
    subtree_end = list(range(1, n + 1))
    for idx in range(n - 1, 0, -1):
        par = parent[idx]
        if subtree_end[idx] > subtree_end[par]:
            subtree_end[par] = subtree_end[idx]

    tap_ids = list(stage.taps)
    return BaseStageNetwork(
        parent=np.asarray(parent, dtype=np.int32),
        resistance=np.asarray(resistance),
        wire_capacitance=np.asarray(wire_cap),
        load_capacitance=np.asarray(load_cap),
        subtree_end=np.asarray(subtree_end, dtype=np.int32),
        tap_ids=tap_ids,
        tap_indices=np.asarray([tree_to_net[t] for t in tap_ids], dtype=np.int32),
        driver_resistance=base_res,
        total_capacitance=float(sum(wire_cap) + sum(load_cap)),
    )


def base_tap_moments(base: BaseStageNetwork, split_wire_load: bool = True) -> BaseTapMoments:
    """Reduce a base stage network to the per-tap moment base vectors.

    Every per-segment accumulation (downstream capacitance, the two path-sum
    sweeps of the m1/m2 recurrences) runs as numpy prefix sums over the whole
    segment array at once.

    ``split_wire_load=False`` collapses wire and load capacitance into the
    (never ``w``-scaled) load component, halving the reduction work.  It is
    only valid when every corner subsequently passed to
    :func:`batched_tap_moments` has ``wire_cap_scale == 1.0`` -- true for the
    ISPD'09 corner set -- in which case the results are identical.
    """
    cap_w = base.wire_capacitance
    cap_l = base.load_capacitance
    res = base.resistance
    end = base.subtree_end
    taps = base.tap_indices
    if not split_wire_load:
        cap = cap_w + cap_l
        cdown = subtree_interval_sums(cap, end)
        a = path_sums(res * cdown, end)
        weighted = cap * a
        p = path_sums(res * subtree_interval_sums(weighted, end), end)
        zeros = np.zeros(len(taps))
        return BaseTapMoments(
            tap_ids=tuple(base.tap_ids),
            a_wire_tap=zeros,
            a_load_tap=a[taps],
            p_ww_tap=zeros,
            p_mixed_tap=zeros,
            p_ll_tap=p[taps],
            wire_cap_total=0.0,
            load_cap_total=float(cap.sum()),
            a0_ww=0.0,
            a0_mixed=0.0,
            a0_ll=float(weighted.sum()),
            driver_resistance=base.driver_resistance,
        )
    cdown_w = subtree_interval_sums(cap_w, end)
    cdown_l = subtree_interval_sums(cap_l, end)
    a_w = path_sums(res * cdown_w, end)
    a_l = path_sums(res * cdown_l, end)
    weighted_ww = cap_w * a_w
    weighted_mixed = cap_w * a_l + cap_l * a_w
    weighted_ll = cap_l * a_l
    p_ww = path_sums(res * subtree_interval_sums(weighted_ww, end), end)
    p_mixed = path_sums(res * subtree_interval_sums(weighted_mixed, end), end)
    p_ll = path_sums(res * subtree_interval_sums(weighted_ll, end), end)
    return BaseTapMoments(
        tap_ids=tuple(base.tap_ids),
        a_wire_tap=a_w[taps],
        a_load_tap=a_l[taps],
        p_ww_tap=p_ww[taps],
        p_mixed_tap=p_mixed[taps],
        p_ll_tap=p_ll[taps],
        wire_cap_total=float(cap_w.sum()),
        load_cap_total=float(cap_l.sum()),
        a0_ww=float(weighted_ww.sum()),
        a0_mixed=float(weighted_mixed.sum()),
        a0_ll=float(weighted_ll.sum()),
        driver_resistance=base.driver_resistance,
    )



def reference_tap_model(
    evaluator, tree: ClockTree, stage: Stage, split: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """One stage's delay/sigma rows, built, reduced and modelled on its own."""
    base = build_base_stage_network(tree, stage, evaluator.config.max_segment_length)
    moments = base_tap_moments(base, split_wire_load=split)
    m1, m2 = batched_tap_moments(moments, *evaluator._combo_scales)
    return batched_delay_sigma(m1, m2, use_d2m=(evaluator.config.engine == "arnoldi"))


def reference_stage_network(
    tree: ClockTree,
    stage: Stage,
    corner: Corner,
    max_segment_length: float,
    rise: bool,
) -> StageNetwork:
    """One stage's lumped RC network at ``corner``, edges found by a walk.

    The edge order comes from a stack walk below the driver over
    ``set(stage.edges)``, stopping at taps.
    """
    driver_node = tree.node(stage.driver_id)
    driver_buffer = driver_node.buffer
    parent: List[int] = [-1]
    resistance: List[float] = [0.0]
    capacitance: List[float] = [0.0]
    tree_to_net: Dict[int, int] = {stage.driver_id: 0}
    if driver_buffer is not None:
        capacitance[0] += driver_buffer.output_cap

    stage_edge_set = set(stage.edges)
    stage_tap_set = set(stage.taps)
    stack = [child for child in driver_node.children if child in stage_edge_set]
    order: List[int] = []
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        if node_id in stage_tap_set:
            continue
        stack.extend(c for c in tree.node(node_id).children if c in stage_edge_set)

    for node_id in order:
        node = tree.node(node_id)
        net_idx = _add_edge_segments(
            node,
            tree_to_net[node.parent],
            parent,
            resistance,
            capacitance,
            corner.wire_res_scale,
            corner.wire_cap_scale,
            max_segment_length,
        )
        tree_to_net[node_id] = net_idx
        capacitance[net_idx] += _tap_load(tree, node, node_id in stage_tap_set)

    base_res = (
        driver_buffer.output_res if driver_buffer is not None else tree.source_resistance
    )
    asym = PULL_UP_FACTOR if rise else PULL_DOWN_FACTOR
    return StageNetwork(
        parent=parent,
        resistance=resistance,
        capacitance=capacitance,
        tap_index={tap: tree_to_net[tap] for tap in stage.taps},
        driver_resistance=base_res * corner.driver_scale * asym,
        total_capacitance=sum(capacitance),
    )
