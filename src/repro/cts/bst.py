"""Bounded-skew tree construction (BST/DME generalization).

The zero-skew builder spends extra wire (detours) whenever the two subtrees
being merged cannot be balanced exactly within their spanning distance.  The
bounded-skew variant implemented here accepts any merge whose resulting
subtree skew -- the spread between its fastest and slowest sink under Elmore
delay -- stays within a user-given bound, and only detours by the amount
needed to bring the spread back to the bound otherwise.  This trades a small,
controlled amount of skew for wirelength (and therefore power), which is the
classic BST/DME trade-off the paper discusses in its background section.

The implementation deliberately reuses the zero-skew machinery: with
``skew_bound=0`` it reduces exactly to :class:`repro.cts.dme.ZeroSkewTreeBuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cts.dme import MergeRecord, ZeroSkewTreeBuilder
from repro.cts.topology import SinkInstance
from repro.cts.tree import ClockTree
from repro.cts.wirelib import WireType
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.trr import ManhattanArc, merging_segment

__all__ = ["BoundedSkewRecord", "BoundedSkewTreeBuilder", "build_bounded_skew_tree"]


@dataclass
class BoundedSkewRecord(MergeRecord):
    """Merge record extended with the subtree's fastest-sink delay."""

    subtree_min_delay: float = 0.0


class BoundedSkewTreeBuilder(ZeroSkewTreeBuilder):
    """Build trees whose Elmore skew is bounded by ``skew_bound`` picoseconds."""

    def __init__(
        self,
        wire: WireType,
        skew_bound: float,
        topology_method: str = "bisection",
        obstacles: Optional[ObstacleSet] = None,
    ) -> None:
        super().__init__(wire, topology_method=topology_method, obstacles=obstacles)
        if skew_bound < 0.0:
            raise ValueError("skew bound must be non-negative")
        self.skew_bound = skew_bound

    # ------------------------------------------------------------------
    def _leaf_record(self, sink: SinkInstance) -> BoundedSkewRecord:
        return BoundedSkewRecord(
            arc=ManhattanArc.from_point(sink.position),
            subtree_capacitance=sink.capacitance,
            subtree_delay=0.0,
            subtree_min_delay=0.0,
        )

    def _merge(self, left: MergeRecord, right: MergeRecord) -> BoundedSkewRecord:
        assert isinstance(left, BoundedSkewRecord) and isinstance(right, BoundedSkewRecord)
        distance = left.arc.distance_to_arc(right.arc)
        # Exact zero-skew split of the *maximum* delays.
        length_left, length_right = self._balanced_lengths(left, right, distance)

        if length_left > distance or length_right > distance:
            # Balancing needs a detour.  Shrink (or drop) the detour as long
            # as the merged subtree's skew stays within the bound.
            length_left, length_right = self._relax_detour(
                left, right, distance, length_left, length_right
            )

        radius_left = max(length_left, 0.0)
        radius_right = max(length_right, 0.0)
        if radius_left + radius_right < distance:
            if radius_left <= radius_right:
                radius_right = distance - radius_left
            else:
                radius_left = distance - radius_right
        arc = merging_segment(left.arc, right.arc, radius_left, radius_right)

        max_left = left.subtree_delay + self._wire_delay(length_left, left.subtree_capacitance)
        max_right = right.subtree_delay + self._wire_delay(length_right, right.subtree_capacitance)
        min_left = left.subtree_min_delay + self._wire_delay(length_left, left.subtree_capacitance)
        min_right = right.subtree_min_delay + self._wire_delay(length_right, right.subtree_capacitance)
        capacitance = (
            left.subtree_capacitance
            + right.subtree_capacitance
            + self.wire.unit_capacitance * (length_left + length_right)
        )
        return BoundedSkewRecord(
            arc=arc,
            subtree_capacitance=capacitance,
            subtree_delay=max(max_left, max_right),
            subtree_min_delay=min(min_left, min_right),
            edge_length_left=length_left,
            edge_length_right=length_right,
        )

    def _relax_detour(
        self,
        left: BoundedSkewRecord,
        right: BoundedSkewRecord,
        distance: float,
        length_left: float,
        length_right: float,
    ) -> tuple:
        """Shrink a detour so the merged skew just meets the bound."""
        if length_left > distance:
            detoured = "left"
            slow, fast = right, left
        else:
            detoured = "right"
            slow, fast = left, right
        # Dropping the detour entirely gives the fast (detoured) child the full
        # spanning distance and the slow child zero wire.
        fast_wire_full = self._wire_delay(distance, fast.subtree_capacitance)
        merged_max = max(slow.subtree_delay, fast.subtree_delay + fast_wire_full)
        merged_min = min(slow.subtree_min_delay, fast.subtree_min_delay + fast_wire_full)
        if merged_max - merged_min <= self.skew_bound:
            # No detour needed at all.
            if detoured == "left":
                return distance, 0.0
            return 0.0, distance
        # Otherwise detour only enough that the skew equals the bound: the
        # fast subtree's *fastest* sink must come within ``bound`` of the slow
        # subtree's slowest sink.
        gap = (slow.subtree_delay - self.skew_bound) - fast.subtree_min_delay
        extra = self._detour_length(
            max(gap - fast_wire_full, 0.0),
            fast.subtree_capacitance + self.wire.unit_capacitance * distance,
        )
        if detoured == "left":
            return distance + extra, 0.0
        return 0.0, distance + extra


def build_bounded_skew_tree(
    sinks: Sequence[SinkInstance],
    source_position: Point,
    wire: WireType,
    skew_bound: float,
    source_resistance: float = 100.0,
    topology_method: str = "bisection",
    obstacles: Optional[ObstacleSet] = None,
) -> ClockTree:
    """Convenience wrapper around :class:`BoundedSkewTreeBuilder`."""
    builder = BoundedSkewTreeBuilder(
        wire=wire,
        skew_bound=skew_bound,
        topology_method=topology_method,
        obstacles=obstacles,
    )
    return builder.build(sinks, source_position, source_resistance=source_resistance)
