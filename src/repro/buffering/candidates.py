"""Candidate buffer stations and the slew-driven maximum-load model.

Buffer insertion operates on a discretized set of *stations*: points along
every tree edge (plus the tree nodes themselves) where an inverter may be
placed.  The SoC obstacle model makes station legality non-trivial -- a point
inside a macro is not a legal buffer site even though the wire above it is
legal -- so stations carry their own legality flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.units import LN9, OHM_FF_TO_PS
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = [
    "BufferStation",
    "enumerate_stations",
    "is_legal_site",
    "max_drivable_capacitance",
]


def max_drivable_capacitance(
    buffer: BufferType,
    slew_limit: float,
    wire_delay_to_worst_tap: float = 0.0,
    margin: float = 0.9,
) -> float:
    """Largest downstream capacitance ``buffer`` may drive within the slew limit.

    The single-pole estimate of the far-tap slew is
    ``ln(9) * (R_out * C_down + tau_wire)`` where ``tau_wire`` is the Elmore
    delay from the buffer output to the worst tap through the unbuffered wire.
    Solving for ``C_down`` with a safety margin gives the cap budget used both
    by the insertion DP and by the obstacle-avoidance subtree test.
    """
    if slew_limit <= 0.0:
        raise ValueError("slew limit must be positive")
    if not 0.0 < margin <= 1.0:
        raise ValueError("margin must be in (0, 1]")
    budget = margin * slew_limit / LN9 - wire_delay_to_worst_tap
    if budget <= 0.0:
        return 0.0
    return budget / (buffer.output_res * OHM_FF_TO_PS)


def is_legal_site(
    point: Point, obstacles: Optional[ObstacleSet] = None, die: Optional[Rect] = None
) -> bool:
    """Whether a buffer may be placed at ``point``: inside the die and
    outside every obstacle."""
    if die is not None and not die.contains_point(point):
        return False
    if obstacles is not None and obstacles.blocks_point(point):
        return False
    return True


@dataclass(frozen=True)
class BufferStation:
    """A candidate buffer location on the edge above ``edge_node``.

    ``distance_from_child`` is measured along the edge's electrical length
    (route plus snaking) starting at the child end, because the insertion DP
    sweeps each edge bottom-up.  ``fraction_from_parent`` is the same position
    expressed as the split fraction expected by
    :meth:`repro.cts.tree.ClockTree.split_edge`.
    """

    edge_node: int
    distance_from_child: float
    fraction_from_parent: float
    position: Point
    legal: bool


def enumerate_stations(
    tree: ClockTree,
    spacing: float = 250.0,
    obstacles: Optional[ObstacleSet] = None,
    die: Optional[Rect] = None,
) -> Dict[int, List[BufferStation]]:
    """Enumerate buffer stations on every edge of ``tree``.

    Stations are placed every ``spacing`` micrometres of electrical length,
    ordered from the child end toward the parent.  The returned dictionary
    maps each edge (by its child node id) to its stations; edges shorter than
    ``spacing`` get no interior station (the tree nodes themselves are always
    available to the DP as insertion points).
    """
    if spacing <= 0.0:
        raise ValueError("station spacing must be positive")

    stations: Dict[int, List[BufferStation]] = {}
    for node in tree.nodes():
        if node.parent is None:
            continue
        length = node.edge_length()
        edge_stations: List[BufferStation] = []
        if length > spacing:
            count = int(length // spacing)
            for k in range(1, count + 1):
                dist = k * spacing
                if dist >= length:
                    break
                fraction_from_parent = 1.0 - dist / length
                position = _position_along_route(node.route, node.route_length() * fraction_from_parent)
                edge_stations.append(
                    BufferStation(
                        edge_node=node.node_id,
                        distance_from_child=dist,
                        fraction_from_parent=fraction_from_parent,
                        position=position,
                        legal=is_legal_site(position, obstacles, die),
                    )
                )
        stations[node.node_id] = edge_stations
    return stations


def _position_along_route(route: List[Point], distance_from_start: float) -> Point:
    """Point at a given arc-length from the start of a polyline route."""
    if len(route) < 2:
        return route[0]
    remaining = max(distance_from_start, 0.0)
    for a, b in zip(route, route[1:]):
        seg = a.manhattan_to(b)
        if seg >= remaining and seg > 0.0:
            t = remaining / seg
            return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
        remaining -= seg
    return route[-1]
