"""Zero-skew tree construction by Deferred Merge Embedding (DME).

The builder follows the classic two-phase algorithm the paper cites ([1], [3],
[4] in its reference list):

1. *Bottom-up*: every topology node is assigned a merging segment (a
   Manhattan arc) and wire lengths to its two children such that the Elmore
   delays through both children are exactly equal.  When one child subtree is
   so much slower that balancing is impossible with the direct spanning
   wirelength, the faster child's wire is lengthened (wire detour / snaking).
2. *Top-down*: concrete locations are chosen -- the root as close as possible
   to the clock source, every other merge point as close as possible to its
   already-placed parent -- and an L-shaped route plus any required snaking
   length is recorded on the tree edge.

The resulting :class:`repro.cts.tree.ClockTree` has zero skew under the Elmore
delay model with the chosen wire type, which is the property the optimization
passes start from (SPICE-accurate skew is then non-zero but small, exactly as
in the paper's INITIAL row of Table III).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cts.topology import SinkInstance, Topology, build_topology
from repro.cts.tree import ClockTree, Sink
from repro.cts.wirelib import WireType
from repro.geometry.lshape import best_lshape
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.trr import ManhattanArc, merging_segment
from repro.analysis.units import OHM_FF_TO_PS

__all__ = ["MergeRecord", "ZeroSkewTreeBuilder", "build_zero_skew_tree"]


@dataclass
class MergeRecord:
    """Bottom-up DME data for one topology node."""

    arc: ManhattanArc
    subtree_capacitance: float
    subtree_delay: float
    edge_length_left: float = 0.0
    edge_length_right: float = 0.0


class ZeroSkewTreeBuilder:
    """Build zero-skew (Elmore-balanced) trees for a given wire type.

    Parameters
    ----------
    wire:
        Wire type used for every edge of the initial tree.
    topology_method:
        ``"bisection"`` (default) or ``"greedy"``: how :meth:`build` pairs
        the sinks (see :func:`repro.cts.topology.build_topology`).
    obstacles:
        Optional obstacle set used only to pick the less-overlapping L-shape
        for each edge during embedding (full obstacle legalization is done
        later by :mod:`repro.cts.obstacle_avoid`).
    """

    def __init__(
        self,
        wire: WireType,
        topology_method: str = "bisection",
        obstacles: Optional[ObstacleSet] = None,
    ) -> None:
        self.wire = wire
        self.topology_method = topology_method
        self.obstacles = obstacles

    # ------------------------------------------------------------------
    def build(
        self,
        sinks: Sequence[SinkInstance],
        source_position: Point,
        source_resistance: float = 100.0,
    ) -> ClockTree:
        """Construct the zero-skew clock tree for the given sinks."""
        if not sinks:
            raise ValueError("cannot build a clock tree without sinks")
        topo = build_topology(sinks, self.topology_method)
        topo.validate(len(sinks))
        records = self._bottom_up(topo, sinks)
        return self._top_down(topo, sinks, records, source_position, source_resistance)

    # ------------------------------------------------------------------
    # Phase 1: bottom-up merging segments
    # ------------------------------------------------------------------
    def _bottom_up(
        self, topo: Topology, sinks: Sequence[SinkInstance]
    ) -> Dict[int, MergeRecord]:
        records: Dict[int, MergeRecord] = {}
        for node in topo.postorder():
            if node.is_leaf:
                records[node.index] = self._leaf_record(sinks[node.sink_index])
                continue
            left = records[node.left]
            right = records[node.right]
            records[node.index] = self._merge(left, right)
        return records

    def _leaf_record(self, sink: SinkInstance) -> MergeRecord:
        """Merging data of a leaf: the sink point with its pin capacitance."""
        return MergeRecord(
            arc=ManhattanArc.from_point(sink.position),
            subtree_capacitance=sink.capacitance,
            subtree_delay=0.0,
        )

    def _merge(self, left: MergeRecord, right: MergeRecord) -> MergeRecord:
        distance = left.arc.distance_to_arc(right.arc)
        length_left, length_right = self._balanced_lengths(left, right, distance)
        radius_left = max(length_left, 0.0)
        radius_right = max(length_right, 0.0)
        # The balanced split sums to the spanning distance by construction
        # (detour cases overshoot it), so any shortfall here is floating-point
        # noise.  Absorb it symmetrically; inflating a radius by more than the
        # rounding error would move the merging segment off the equal-delay
        # locus and silently unbalance the subtree.
        shortfall = distance - (radius_left + radius_right)
        if shortfall > 0.0:
            radius_left += shortfall / 2.0
            radius_right += shortfall / 2.0
        arc = merging_segment(left.arc, right.arc, radius_left, radius_right)
        capacitance = (
            left.subtree_capacitance
            + right.subtree_capacitance
            + self.wire.unit_capacitance * (length_left + length_right)
        )
        delay = left.subtree_delay + self._wire_delay(length_left, left.subtree_capacitance)
        return MergeRecord(
            arc=arc,
            subtree_capacitance=capacitance,
            subtree_delay=delay,
            edge_length_left=length_left,
            edge_length_right=length_right,
        )

    def _wire_delay(self, length: float, load: float) -> float:
        """Elmore delay (ps) of ``length`` um of wire driving ``load`` fF."""
        r = self.wire.unit_resistance * length
        c = self.wire.unit_capacitance * length
        return r * (c / 2.0 + load) * OHM_FF_TO_PS

    def _balanced_lengths(
        self, left: MergeRecord, right: MergeRecord, distance: float
    ) -> tuple:
        """Split ``distance`` of wire between the children to balance Elmore delay.

        Returns ``(length_left, length_right)``.  One of the lengths exceeds
        ``distance`` (and the other is zero) when a detour is required.
        """
        r = self.wire.unit_resistance
        c = self.wire.unit_capacitance
        ca, cb = left.subtree_capacitance, right.subtree_capacitance
        ta, tb = left.subtree_delay, right.subtree_delay
        if distance <= 0.0:
            # Co-located arcs: any residual imbalance must be fixed by snaking
            # the faster side.
            if abs(ta - tb) <= 1e-12:
                return 0.0, 0.0
            if ta > tb:
                return 0.0, self._detour_length(ta - tb, cb)
            return self._detour_length(tb - ta, ca), 0.0
        denom = r * (ca + cb + c * distance) * OHM_FF_TO_PS
        numer = (tb - ta) + r * distance * (cb + c * distance / 2.0) * OHM_FF_TO_PS
        length_left = numer / denom
        if 0.0 <= length_left <= distance:
            return length_left, distance - length_left
        if length_left < 0.0:
            # Left subtree is already slower even with zero wire: detour right.
            extra = ta - (tb + self._wire_delay(distance, cb))
            return 0.0, distance + self._detour_length(max(extra, 0.0), cb + c * distance)
        # Right subtree is slower: detour left.
        extra = tb - (ta + self._wire_delay(distance, ca))
        return distance + self._detour_length(max(extra, 0.0), ca + c * distance), 0.0

    def _detour_length(self, delay_gap: float, load: float) -> float:
        """Extra wirelength needed to add ``delay_gap`` ps before ``load`` fF.

        Solves ``r*x*(c*x/2 + load) = delay_gap`` for ``x >= 0``.
        """
        if delay_gap <= 0.0:
            return 0.0
        r = self.wire.unit_resistance * OHM_FF_TO_PS
        c = self.wire.unit_capacitance
        a = r * c / 2.0
        b = r * load
        disc = b * b + 4.0 * a * delay_gap
        return (-b + math.sqrt(disc)) / (2.0 * a)

    # ------------------------------------------------------------------
    # Phase 2: top-down embedding
    # ------------------------------------------------------------------
    def _top_down(
        self,
        topo: Topology,
        sinks: Sequence[SinkInstance],
        records: Dict[int, MergeRecord],
        source_position: Point,
        source_resistance: float,
    ) -> ClockTree:
        tree = ClockTree(
            source_position,
            source_resistance=source_resistance,
            default_wire=self.wire,
        )
        root_record = records[topo.root_index]
        root_placement = root_record.arc.closest_point_to(source_position)
        root_sink = (
            sinks[topo.root.sink_index] if topo.root.is_leaf else None
        )
        if root_sink is not None:
            root_placement = root_sink.position
        root_tree_id = self._attach(
            tree, tree.root_id, source_position, root_placement, 0.0, root_sink
        )
        self._embed_children(tree, topo, sinks, records, topo.root_index, root_tree_id, root_placement)
        tree.validate()
        return tree

    def _embed_children(
        self,
        tree: ClockTree,
        topo: Topology,
        sinks: Sequence[SinkInstance],
        records: Dict[int, MergeRecord],
        topo_index: int,
        parent_tree_id: int,
        parent_position: Point,
    ) -> None:
        node = topo.node(topo_index)
        if node.is_leaf:
            return
        record = records[topo_index]
        for child_index, edge_length in (
            (node.left, record.edge_length_left),
            (node.right, record.edge_length_right),
        ):
            child_record = records[child_index]
            child_node = topo.node(child_index)
            placement = child_record.arc.closest_point_to(parent_position)
            sink = sinks[child_node.sink_index] if child_node.is_leaf else None
            if sink is not None:
                placement = sink.position
            snake = max(edge_length - parent_position.manhattan_to(placement), 0.0)
            child_tree_id = self._attach(
                tree, parent_tree_id, parent_position, placement, snake, sink
            )
            self._embed_children(
                tree, topo, sinks, records, child_index, child_tree_id, placement
            )

    def _attach(
        self,
        tree: ClockTree,
        parent_tree_id: int,
        parent_position: Point,
        position: Point,
        snake: float,
        sink: Optional[SinkInstance] = None,
    ) -> int:
        route = self._route(parent_position, position)
        if sink is not None:
            node_id = tree.add_sink(
                parent_tree_id,
                position,
                Sink(sink.name, sink.capacitance, sink.required_polarity),
                route=route,
                wire_type=self.wire,
            )
        else:
            node_id = tree.add_internal(
                parent_tree_id, position, route=route, wire_type=self.wire
            )
        if snake > 0.0:
            tree.add_snake(node_id, snake)
        return node_id

    def _route(self, start: Point, end: Point) -> List[Point]:
        if start == end:
            return [start, end]
        lshape = best_lshape(start, end, self.obstacles)
        points = [lshape.start, lshape.bend, lshape.end]
        return [p for i, p in enumerate(points) if i == 0 or p != points[i - 1]]


def build_zero_skew_tree(
    sinks: Sequence[SinkInstance],
    source_position: Point,
    wire: WireType,
    source_resistance: float = 100.0,
    topology_method: str = "bisection",
    obstacles: Optional[ObstacleSet] = None,
) -> ClockTree:
    """Convenience wrapper around :class:`ZeroSkewTreeBuilder`."""
    builder = ZeroSkewTreeBuilder(
        wire=wire, topology_method=topology_method, obstacles=obstacles
    )
    return builder.build(sinks, source_position, source_resistance=source_resistance)
