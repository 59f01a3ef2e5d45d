"""Planar Manhattan geometry substrate used by clock-tree synthesis.

The clock-tree algorithms in :mod:`repro.cts` and :mod:`repro.core` operate on
rectilinear (Manhattan) geometry: sinks are points, wires are sequences of
horizontal/vertical segments, obstacles are axis-aligned rectangles, and the
DME algorithm manipulates *Manhattan arcs* (segments of slope +/-1) and
*tilted rectangular regions* (TRRs).

This package provides those primitives plus two routing helpers:

* :mod:`repro.geometry.maze` -- a grid maze router for obstacle-avoiding
  point-to-point connections, and
* :mod:`repro.geometry.lshape` -- L-shape (one-bend) route enumeration with
  obstacle-overlap scoring.
"""

from repro.geometry.point import Point
from repro.geometry.segment import Segment, LShape
from repro.geometry.rect import Rect
from repro.geometry.trr import ManhattanArc, TRR, merging_segment
from repro.geometry.obstacles import Obstacle, ObstacleSet
from repro.geometry.maze import MazeRouter, MazeRouteError
from repro.geometry.lshape import lshape_routes, best_lshape

__all__ = [
    "Point",
    "Segment",
    "LShape",
    "Rect",
    "ManhattanArc",
    "TRR",
    "merging_segment",
    "Obstacle",
    "ObstacleSet",
    "MazeRouter",
    "MazeRouteError",
    "lshape_routes",
    "best_lshape",
]
