"""Stage extraction and RC-network construction from a clock tree.

A buffered clock tree decomposes into *stages*: the sub-network driven by the
clock source or by one inserted buffer, extending down the tree until the
next buffer inputs (and sinks) are reached.  Each stage is an RC tree -- wires
contribute distributed RC (modelled as a chain of lumped segments) and the
taps (buffer inputs, sinks) contribute load capacitance.

All timing engines (:mod:`repro.analysis.elmore`, :mod:`repro.analysis.arnoldi`
and the transient solver in :mod:`repro.analysis.spice`) consume the same
:class:`StageNetwork` representation, so switching engines never changes the
electrical model, only the solution accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.corners import Corner
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree, TreeNode

__all__ = [
    "Stage",
    "StageTopology",
    "StageNetwork",
    "BaseStageNetwork",
    "extract_stages",
    "build_stage_topology",
    "build_stage_network",
    "build_base_stage_network",
    "subtree_interval_sums",
    "path_sums",
]

# Resistance used for zero-length connections so the nodal matrix stays regular.
_MIN_RESISTANCE = 1e-3


@dataclass
class Stage:
    """One buffer stage of the clock tree.

    Attributes
    ----------
    driver_id:
        Tree node where the stage driver sits (the tree root for the source
        stage, otherwise a node with a buffer).
    driver_buffer:
        The driving buffer, or None for the clock source.
    edges:
        Tree node ids whose parent edge belongs to this stage.
    taps:
        Tree node ids that terminate the stage: sinks and next-stage drivers.
    """

    driver_id: int
    #: The driving buffer *at extraction time*.  Stage lists may be cached
    #: across buffer re-sizings, so code that must see the current driver
    #: (the evaluator, the network builders) reads it live from the tree via
    #: ``tree.node(stage.driver_id).buffer`` instead of trusting this field.
    driver_buffer: Optional[BufferType]
    edges: List[int] = field(default_factory=list)
    taps: List[int] = field(default_factory=list)


@dataclass
class StageNetwork:
    """A lumped RC tree for one stage, ready for analysis.

    The network nodes are indexed ``0 .. n-1`` with node 0 being the driver
    output node.  ``parent[i]`` and ``resistance[i]`` describe the unique
    resistor connecting node ``i`` to its parent (``parent[0]`` is -1).
    ``capacitance[i]`` is the grounded capacitance at node ``i`` (wire cap
    plus any tap load).  ``tap_index`` maps tree node ids of taps to network
    node indices.
    """

    parent: List[int]
    resistance: List[float]
    capacitance: List[float]
    tap_index: Dict[int, int]
    driver_resistance: float
    total_capacitance: float

    @property
    def size(self) -> int:
        return len(self.parent)

    def children_lists(self) -> List[List[int]]:
        """Return the child adjacency derived from the parent array."""
        children: List[List[int]] = [[] for _ in range(self.size)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                children[par].append(idx)
        return children

    def downstream_capacitance(self) -> List[float]:
        """Total capacitance at or below each network node (O(n))."""
        downstream = list(self.capacitance)
        # Children always have larger indices than their parents because the
        # network is built top-down, so a reverse sweep accumulates correctly.
        for idx in range(self.size - 1, 0, -1):
            downstream[self.parent[idx]] += downstream[idx]
        return downstream


def extract_stages(tree: ClockTree) -> List[Stage]:
    """Decompose the tree into buffer stages, source stage first.

    The returned list is ordered so that every stage appears after the stage
    that drives it, which lets the evaluator propagate arrival times and slews
    in a single pass.
    """
    stages: List[Stage] = []
    pending: List[int] = [tree.root_id]
    while pending:
        driver_id = pending.pop(0)
        driver_node = tree.node(driver_id)
        buffer = driver_node.buffer if driver_id != tree.root_id else driver_node.buffer
        stage = Stage(
            driver_id=driver_id,
            driver_buffer=driver_node.buffer,
            edges=[],
            taps=[],
        )
        # DFS below the driver, stopping at buffered nodes and sinks.
        stack = list(tree.node(driver_id).children)
        while stack:
            node_id = stack.pop()
            node = tree.node(node_id)
            stage.edges.append(node_id)
            if node.has_buffer:
                stage.taps.append(node_id)
                pending.append(node_id)
                continue
            if node.is_sink:
                stage.taps.append(node_id)
                continue
            stack.extend(node.children)
        stages.append(stage)
    return stages


@dataclass
class StageTopology:
    """A stage decomposition plus the per-structure-revision indexes over it.

    Everything here depends only on the tree's *structure* (topology, buffer
    sites, sink roles), never on electrical content, so one instance stays
    valid for as long as the tree's structure revision does -- the evaluator
    caches it next to the stage list and uses it for dirty-region closure,
    candidate dirty-set mapping and the propagation kernel's tap columns
    without re-walking the tree:

    * ``children[i]`` -- indices of the stages driven by stage ``i``'s taps;
    * ``stage_of_edge`` -- tree node id -> index of the stage that contains
      the node's parent edge (tap edges belong to the stage above the tap);
    * ``stage_of_driver`` -- driver node id -> index of the stage it drives;
    * ``tap_ids`` -- every tap, stage by stage in ``Stage.taps`` order: the
      column order of the evaluator's per-tap arrays, with stage ``i``'s taps
      at columns ``tap_start[i]:tap_start[i + 1]``;
    * ``driver_col[i]`` -- the column of stage ``i``'s driver tap (-1 for
      the source stage);
    * ``sink_cols`` / ``sink_ids`` -- the columns and node ids of sink taps;
    * ``structure_revision`` -- the tree structure revision it was built at.
    """

    stages: List[Stage]
    children: List[List[int]]
    stage_of_edge: Dict[int, int]
    stage_of_driver: Dict[int, int]
    tap_ids: List[int]
    tap_start: List[int]
    driver_col: List[int]
    sink_cols: np.ndarray
    sink_ids: List[int]
    structure_revision: int


def build_stage_topology(tree: ClockTree, stages: Optional[List[Stage]] = None) -> StageTopology:
    """Extract the stage list (unless given) and derive its structural indexes."""
    if stages is None:
        stages = extract_stages(tree)
    stage_of_driver = {stage.driver_id: index for index, stage in enumerate(stages)}
    children: List[List[int]] = [[] for _ in stages]
    stage_of_edge: Dict[int, int] = {}
    tap_ids: List[int] = []
    tap_start = [0]
    sink_cols: List[int] = []
    column_of: Dict[int, int] = {}
    for index, stage in enumerate(stages):
        for edge in stage.edges:
            stage_of_edge[edge] = index
        for tap in stage.taps:
            column_of[tap] = len(tap_ids)
            if tree.node(tap).is_sink:
                sink_cols.append(len(tap_ids))
            tap_ids.append(tap)
            downstream = stage_of_driver.get(tap)
            if downstream is not None:
                children[index].append(downstream)
        tap_start.append(len(tap_ids))
    return StageTopology(
        stages=stages,
        children=children,
        stage_of_edge=stage_of_edge,
        stage_of_driver=stage_of_driver,
        tap_ids=tap_ids,
        tap_start=tap_start,
        driver_col=[column_of.get(stage.driver_id, -1) for stage in stages],
        sink_cols=np.array(sink_cols, dtype=np.intp),
        sink_ids=[tap_ids[col] for col in sink_cols],
        structure_revision=tree.structure_revision,
    )


def build_stage_network(
    tree: ClockTree,
    stage: Stage,
    corner: Optional[Corner] = None,
    max_segment_length: float = 100.0,
    rise: bool = True,
    pull_up_factor: float = 1.08,
    pull_down_factor: float = 0.95,
) -> StageNetwork:
    """Build the lumped RC network of a stage at a given corner.

    Wire edges longer than ``max_segment_length`` micrometres are divided into
    several lumped RC segments so that resistive shielding of long wires is
    captured (a single lumped segment would overestimate far-end delay and
    underestimate near-end slew).
    """
    wire_r_scale = corner.wire_res_scale if corner is not None else 1.0
    wire_c_scale = corner.wire_cap_scale if corner is not None else 1.0
    driver_scale = corner.driver_scale if corner is not None else 1.0

    driver_node = tree.node(stage.driver_id)
    driver_buffer = driver_node.buffer
    parent: List[int] = [-1]
    resistance: List[float] = [0.0]
    capacitance: List[float] = [0.0]
    tap_index: Dict[int, int] = {}
    tree_to_net: Dict[int, int] = {stage.driver_id: 0}

    if driver_buffer is not None:
        capacitance[0] += driver_buffer.output_cap

    stage_edge_set = set(stage.edges)
    stage_tap_set = set(stage.taps)

    # Walk the stage edges top-down so parents are created before children.
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
            node,
            parent_net,
            parent,
            resistance,
            capacitance,
            wire_r_scale,
            wire_c_scale,
            max_segment_length,
        )
        tree_to_net[node_id] = net_idx
        load = _tap_load(tree, node, node_id in stage_tap_set)
        capacitance[net_idx] += load

    if driver_buffer is not None:
        base_res = driver_buffer.output_res
    else:
        base_res = tree.source_resistance
    asym = pull_up_factor if rise else pull_down_factor
    driver_resistance = base_res * driver_scale * asym

    for tap in stage.taps:
        tap_index[tap] = tree_to_net[tap]

    return StageNetwork(
        parent=parent,
        resistance=resistance,
        capacitance=capacitance,
        tap_index=tap_index,
        driver_resistance=driver_resistance,
        total_capacitance=sum(capacitance),
    )


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
    exactly as in the per-corner builder.  The only (deliberate) deviation:
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


def _tap_load(tree: ClockTree, node: TreeNode, is_tap: bool) -> float:
    """Load capacitance contributed by a tree node inside a stage."""
    load = 0.0
    if node.is_sink and node.sink is not None:
        load += node.sink.capacitance
    if is_tap and node.has_buffer:
        load += node.buffer.input_cap
    return load


def _add_edge_segments(
    node: TreeNode,
    parent_net: int,
    parent: List[int],
    resistance: List[float],
    capacitance: List[float],
    wire_r_scale: float,
    wire_c_scale: float,
    max_segment_length: float,
) -> int:
    """Append the lumped segments of one tree edge; return the far-end index."""
    length = node.edge_length()
    wire = node.wire_type
    if wire is None or length <= 0.0:
        parent.append(parent_net)
        resistance.append(_MIN_RESISTANCE)
        capacitance.append(0.0)
        return len(parent) - 1

    n_segments = max(1, int(length // max_segment_length) + (1 if length % max_segment_length else 0))
    n_segments = min(n_segments, 32)
    seg_len = length / n_segments
    seg_res = max(wire.resistance(seg_len) * wire_r_scale, _MIN_RESISTANCE)
    seg_cap = wire.capacitance(seg_len) * wire_c_scale

    current_parent = parent_net
    last_index = parent_net
    for i in range(n_segments):
        parent.append(current_parent)
        resistance.append(seg_res)
        capacitance.append(seg_cap / 2.0)
        last_index = len(parent) - 1
        # The far half of the segment cap belongs to the new node; the near
        # half belongs to its parent.
        capacitance[current_parent] += seg_cap / 2.0
        # Re-balance: we added the full cap as half to each side already.
        capacitance[last_index] += 0.0
        current_parent = last_index
    return last_index
