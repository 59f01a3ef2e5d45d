"""Stage extraction and RC-network construction from a clock tree.

A buffered clock tree decomposes into *stages*: the sub-network driven by the
clock source or by one inserted buffer, extending down the tree until the
next buffer inputs (and sinks) are reached.  Each stage is an RC tree -- wires
contribute distributed RC (modelled as a chain of lumped segments) and the
taps (buffer inputs, sinks) contribute load capacitance.

Two constructions share that electrical model:

* :func:`build_stage_network` builds one stage's :class:`StageNetwork` at
  one corner; the reference recurrences in :mod:`repro.analysis.elmore` and
  :mod:`repro.analysis.arnoldi` and the transient solver in
  :mod:`repro.analysis.spice` consume it;
* the analytical engines of the incremental evaluator build many stages at
  once, corner-independent, in two steps that keep structure and content
  apart.  Structure lives in the :class:`StageTopology`: each stage's
  edge-level :class:`StageLayout` (parent edge, subtree end, taps) is
  derived once per tree structure revision.  :class:`StageContent` then
  reads only electrical content, one Python pass over the stages' edges
  (segment count, segment resistance, half segment capacitance, tap load),
  and :func:`lay_out_stages` turns that into zero-padded ``(stages, width)``
  segment rows with numpy alone, never reading the tree.  The rows are
  reduced to moments by :func:`repro.analysis.arnoldi.reduce_stage_batch`.

The analytical rows differ from :func:`build_stage_network` in two
deliberate, sub-femtosecond ways: the regularization resistance of a
zero-length or wire-less edge is corner-scaled (by ``wire_res_scale``, when
the engine scales the whole row), and the ``_MIN_RESISTANCE`` clamp of a
segment applies before corner scaling rather than after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.analysis.corners import Corner
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree, NodeKind, TreeNode

__all__ = [
    "Stage",
    "StageLayout",
    "StageTopology",
    "StageNetwork",
    "StageContent",
    "StageBatch",
    "extract_stages",
    "build_stage_topology",
    "build_stage_network",
    "lay_out_stages",
]

# Resistance used for zero-length connections so the nodal matrix stays regular.
_MIN_RESISTANCE = 1e-3
# Asymmetry of the driver resistance for rising and falling outputs.
PULL_UP_FACTOR = 1.08
PULL_DOWN_FACTOR = 0.95


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


class StageLayout(NamedTuple):
    """Edge-level structure of one stage, positions in ``Stage.edges`` order.

    ``Stage.edges`` is a DFS preorder below the driver (subtrees contiguous),
    the order the stage's segments are laid out in:

    * ``parent_pos[k]`` -- position of edge ``k``'s parent edge, -1 when the
      parent is the stage driver;
    * ``subtree_end[k]`` -- exclusive end position of edge ``k``'s subtree;
    * ``tap_pos`` -- the positions of the stage's taps, in ``Stage.taps``
      order;
    * ``is_tap[k]`` -- whether edge ``k`` ends at a tap;
    * ``tap_ids`` -- ``Stage.taps`` as a tuple.
    """

    parent_pos: np.ndarray
    subtree_end: np.ndarray
    tap_pos: np.ndarray
    is_tap: List[bool]
    tap_ids: Tuple[int, ...]


@dataclass
class StageTopology:
    """A stage decomposition plus the per-structure-revision indexes over it.

    Everything here depends only on the tree's *structure* (topology, buffer
    sites, sink roles), never on electrical content, so one instance stays
    valid for as long as the tree's structure revision does -- the evaluator
    caches it next to the stage list and uses it for dirty-region closure,
    candidate dirty-set mapping, the propagation kernel's tap columns and the
    batched stage-network layout without re-walking the tree:

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
    * ``sink_pos[i]`` -- the positions of stage ``i``'s sink taps inside its
      own columns ``tap_start[i]:tap_start[i + 1]``;
    * ``layouts[i]`` -- stage ``i``'s edge-level :class:`StageLayout`;
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
    sink_pos: List[np.ndarray]
    layouts: List[StageLayout]
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
    sink_pos: List[np.ndarray] = []
    column_of: Dict[int, int] = {}
    for index, stage in enumerate(stages):
        for edge in stage.edges:
            stage_of_edge[edge] = index
        positions: List[int] = []
        for pos, tap in enumerate(stage.taps):
            column_of[tap] = len(tap_ids)
            if tree.node(tap).is_sink:
                sink_cols.append(len(tap_ids))
                positions.append(pos)
            tap_ids.append(tap)
            downstream = stage_of_driver.get(tap)
            if downstream is not None:
                children[index].append(downstream)
        tap_start.append(len(tap_ids))
        sink_pos.append(np.array(positions, dtype=np.intp))
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
        sink_pos=sink_pos,
        layouts=[_stage_layout(tree, stage) for stage in stages],
        structure_revision=tree.structure_revision,
    )


def _stage_layout(tree: ClockTree, stage: Stage) -> StageLayout:
    """The edge-level structure of ``stage``; ``stage.edges`` is a DFS preorder."""
    position = {edge: pos for pos, edge in enumerate(stage.edges)}
    parent_pos = [position.get(tree.node(edge).parent, -1) for edge in stage.edges]
    # Parents precede children, so one reverse sweep closes every subtree.
    subtree_end = list(range(1, len(parent_pos) + 1))
    for pos in range(len(parent_pos) - 1, -1, -1):
        par = parent_pos[pos]
        if par >= 0 and subtree_end[pos] > subtree_end[par]:
            subtree_end[par] = subtree_end[pos]
    tap_pos = [position[tap] for tap in stage.taps]
    is_tap = [False] * len(parent_pos)
    for pos in tap_pos:
        is_tap[pos] = True
    return StageLayout(
        parent_pos=np.array(parent_pos, dtype=np.intp),
        subtree_end=np.array(subtree_end, dtype=np.intp),
        tap_pos=np.array(tap_pos, dtype=np.intp),
        is_tap=is_tap,
        tap_ids=tuple(stage.taps),
    )


def build_stage_network(
    tree: ClockTree,
    stage: Stage,
    corner: Optional[Corner] = None,
    max_segment_length: float = 100.0,
    rise: bool = True,
) -> StageNetwork:
    """Build the lumped RC network of a stage at a given corner.

    Wire edges longer than ``max_segment_length`` micrometres are divided into
    several lumped RC segments so that resistive shielding of long wires is
    captured (a single lumped segment would overestimate far-end delay and
    underestimate near-end slew).  The driver resistance carries the rising
    (``PULL_UP_FACTOR``) or falling (``PULL_DOWN_FACTOR``) output's asymmetry.
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

    stage_tap_set = set(stage.taps)

    # ``Stage.edges`` is a DFS preorder, so parents are created before children.
    for node_id in stage.edges:
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
    asym = PULL_UP_FACTOR if rise else PULL_DOWN_FACTOR
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


class StageContent:
    """The electrical content of a batch of stages, read edge by edge.

    :meth:`read` appends one stage: its driver's resistance and output load,
    and per edge in ``Stage.edges`` order the lumped segment count, the
    segment resistance, half the segment capacitance and the tap load, with
    the formulas of :func:`build_stage_network` at the nominal corner
    (unscaled wire RC; the ``_MIN_RESISTANCE`` clamp applied to the unscaled
    resistance).  Reading needs the tree; laying the batch out
    (:func:`lay_out_stages`) needs only this record and the topology, so a
    caller can read stages of several tree states (candidate moves applied
    and rolled back in turn) and lay them all out at once.
    """

    __slots__ = (
        "stages",
        "driver_resistance",
        "driver_load",
        "segments",
        "resistance",
        "half_capacitance",
        "tap_load",
    )

    def __init__(self) -> None:
        self.stages: List[int] = []
        self.driver_resistance: List[float] = []
        self.driver_load: List[float] = []
        self.segments: List[int] = []
        self.resistance: List[float] = []
        self.half_capacitance: List[float] = []
        self.tap_load: List[float] = []

    def __len__(self) -> int:
        return len(self.stages)

    def read(
        self, tree: ClockTree, topo: StageTopology, index: int, max_segment_length: float
    ) -> None:
        """Append the content of stage ``index`` of ``topo`` as ``tree`` holds it now."""
        stage = topo.stages[index]
        driver = tree.node(stage.driver_id).buffer
        self.stages.append(index)
        if driver is None:
            self.driver_resistance.append(tree.source_resistance)
            self.driver_load.append(0.0)
        else:
            self.driver_resistance.append(driver.output_res)
            self.driver_load.append(driver.output_cap)
        add_segments = self.segments.append
        add_resistance = self.resistance.append
        add_half = self.half_capacitance.append
        add_load = self.tap_load.append
        sink_kind = NodeKind.SINK
        for node, is_tap in zip(map(tree.node, stage.edges), topo.layouts[index].is_tap):
            # The segmentation of _add_edge_segments, unscaled: the count
            # clamped to [1, 32], the resistance clamped from below.
            length = node.route_length() + node.snake_length
            wire = node.wire_type
            if wire is None or length <= 0.0:
                add_segments(1)
                add_resistance(_MIN_RESISTANCE)
                add_half(0.0)
            else:
                count = int(length // max_segment_length)
                if length % max_segment_length:
                    count += 1
                if count > 32:
                    count = 32
                elif count < 1:
                    count = 1
                seg_len = length / count
                seg_res = wire.resistance(seg_len)
                add_segments(count)
                add_resistance(_MIN_RESISTANCE if _MIN_RESISTANCE > seg_res else seg_res)
                add_half(wire.capacitance(seg_len) / 2.0)
            # The load of _tap_load.
            load = 0.0
            if node.kind is sink_kind and node.sink is not None:
                load += node.sink.capacitance
            if is_tap and node.buffer is not None:
                load += node.buffer.input_cap
            add_load(load)


class StageBatch(NamedTuple):
    """Corner-independent lumped RC rows of a batch of stages.

    Row ``s`` is stage ``s`` of the :class:`StageContent` it was laid out
    from: its network nodes at columns ``0 .. sizes[s] - 1`` in DFS preorder
    (column 0 the driver output, then every edge's segment chain in
    ``Stage.edges`` order), zero-padded to the batch width.  Wire and load
    capacitance stay separate because corners scale only the wire part.
    ``end_index`` holds, per column, ``s * (width + 1)`` plus the exclusive
    end of the node's subtree interval (``width`` for padding): one flat
    index into a ``(stages, width + 1)`` prefix array, or one bincount bin
    per row.  ``tap_index`` holds the flat ``(stages, width)`` index of every
    tap, stage by stage in ``Stage.taps`` order.
    """

    resistance: np.ndarray
    wire_capacitance: np.ndarray
    load_capacitance: np.ndarray
    end_index: np.ndarray
    sizes: List[int]
    tap_index: np.ndarray
    tap_ids: List[Tuple[int, ...]]
    driver_resistance: List[float]


def lay_out_stages(topo: StageTopology, content: StageContent) -> StageBatch:
    """Lay the stages of ``content`` out as zero-padded segment rows (numpy only).

    Each edge becomes a chain of ``segments`` lumped nodes: the first hangs
    off the last node of the parent edge (or the driver node), and every
    node of the chain spans the edge's whole subtree interval.  A node's
    wire capacitance is its own half segment plus the halves of its child
    segments, added in segment creation order by ``np.add.at`` (which
    applies repeated indices in order) -- the order ``_add_edge_segments``
    accumulates them in.  Requires ``content`` to hold at least one stage.
    """
    rows = len(content.stages)
    layouts = [topo.layouts[index] for index in content.stages]
    edge_counts = [len(layout.is_tap) for layout in layouts]
    edge_start = np.zeros(rows + 1, dtype=np.intp)
    np.add.accumulate(edge_counts, out=edge_start[1:])
    # The batch's index of the first edge of each edge's (and tap's) stage.
    row_first = edge_start[:-1].repeat(edge_counts)
    tap_first = edge_start[:-1].repeat([len(layout.tap_ids) for layout in layouts])
    segments = np.array(content.segments, dtype=np.intp)
    # seg_cum[e]: segments in the batch before edge e.
    seg_cum = np.zeros(len(segments) + 1, dtype=np.intp)
    np.add.accumulate(segments, out=seg_cum[1:])
    row_segments = seg_cum[edge_start]
    sizes = row_segments[1:] - row_segments[:-1] + 1
    width = int(sizes.max())
    row_start = np.arange(0, rows * width, width)
    # Segment t of the batch lands at flat index t + shift[row]: column 0
    # of each row is the driver node, the row's segments follow in order.
    shift = row_start + 1 - row_segments[:-1]
    row_segment_counts = sizes - 1
    segment_shift = shift.repeat(row_segment_counts)
    flat = np.arange(len(segment_shift)) + segment_shift
    edge_first = seg_cum[:-1]
    first_flat = flat[edge_first]
    last_flat = first_flat + (segments - 1)
    parent_pos = np.concatenate([layout.parent_pos for layout in layouts])
    # The first segment of an edge hangs off the parent edge's last node,
    # or off the driver node (its row's start); every other one off its
    # predecessor.
    edge_parent = last_flat[row_first + parent_pos]
    from_driver = parent_pos < 0
    edge_parent[from_driver] = first_flat[row_first[from_driver]] - 1
    parent = flat - 1
    parent[edge_first] = edge_parent
    # Each node spans its edge's subtree: up to the first node of the edge at
    # ``subtree_end`` (or the row's end), as a flat (stages, width + 1) index.
    end_edge = seg_cum[row_first + np.concatenate([layout.subtree_end for layout in layouts])]
    half = np.array(content.half_capacitance).repeat(segments)

    size = rows * width
    resistance = np.zeros(size)
    resistance[flat] = np.array(content.resistance).repeat(segments)
    wire = np.zeros(size)
    wire[flat] = half
    np.add.at(wire, parent, half)
    load = np.zeros(size)
    load[row_start] = content.driver_load
    load[last_flat] = content.tap_load
    row_end = row_start + np.arange(rows)
    end = (row_end + width).repeat(width)
    end[row_start] = row_end + sizes
    end[flat] = end_edge.repeat(segments) + (shift + np.arange(rows)).repeat(row_segment_counts)
    tap_index = last_flat[tap_first + np.concatenate([layout.tap_pos for layout in layouts])]
    return StageBatch(
        resistance=resistance.reshape(rows, width),
        wire_capacitance=wire.reshape(rows, width),
        load_capacitance=load.reshape(rows, width),
        end_index=end.reshape(rows, width),
        sizes=sizes.tolist(),
        tap_index=tap_index,
        tap_ids=[layout.tap_ids for layout in layouts],
        driver_resistance=content.driver_resistance,
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
        current_parent = last_index
    return last_index
