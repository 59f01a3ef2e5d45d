"""Placement obstacles (macro blocks) and compound-obstacle handling.

The ISPD'09 contest model allows clock *wires* to cross obstacles but forbids
placing *buffers* on them.  Two abutting rectangular obstacles leave no room
for a buffer between them, so Contango treats them as one compound obstacle;
:class:`ObstacleSet` performs that merging and answers the geometric queries
needed by tree construction and detouring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

__all__ = ["Obstacle", "ObstacleSet"]

#: Rings :meth:`ObstacleSet.nearest_legal_point` searches before giving up.
MAX_RINGS = 10000


@dataclass(frozen=True)
class Obstacle:
    """A single rectangular blockage over which buffers may not be placed."""

    rect: Rect
    name: str = ""

    @property
    def area(self) -> float:
        return self.rect.area


@dataclass
class CompoundObstacle:
    """A maximal group of mutually abutting/overlapping rectangular obstacles.

    The compound obstacle is represented by its member rectangles plus the
    bounding box used for detour routing (detours follow the bounding-box
    contour, which is a conservative but robust approximation of the
    rectilinear contour of the union).
    """

    members: List[Obstacle] = field(default_factory=list)

    @property
    def bbox(self) -> Rect:
        if not self.members:
            raise ValueError("empty compound obstacle")
        box = self.members[0].rect
        for obs in self.members[1:]:
            box = box.union_bbox(obs.rect)
        return box

    def blocks_point(self, p: Point) -> bool:
        """True when a buffer cannot legally be placed at ``p``."""
        return any(o.rect.contains_point(p, strict=True) for o in self.members)


class ObstacleSet:
    """A collection of obstacles with compound-obstacle merging and queries."""

    def __init__(self, obstacles: Sequence[Obstacle] = ()) -> None:
        self._obstacles: List[Obstacle] = list(obstacles)
        self._compounds: Optional[List[CompoundObstacle]] = None

    def __len__(self) -> int:
        return len(self._obstacles)

    def __iter__(self):
        return iter(self._obstacles)

    @property
    def obstacles(self) -> List[Obstacle]:
        return list(self._obstacles)

    def add(self, obstacle: Obstacle) -> None:
        self._obstacles.append(obstacle)
        self._compounds = None

    # ------------------------------------------------------------------
    # Compound obstacles
    # ------------------------------------------------------------------
    def compound_obstacles(self) -> List[CompoundObstacle]:
        """Group obstacles that touch or overlap into compound obstacles."""
        if self._compounds is not None:
            return self._compounds
        n = len(self._obstacles)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj

        for i in range(n):
            for j in range(i + 1, n):
                if self._obstacles[i].rect.intersects(
                    self._obstacles[j].rect, strict=False
                ):
                    union(i, j)

        groups: Dict[int, CompoundObstacle] = {}
        for i, obs in enumerate(self._obstacles):
            groups.setdefault(find(i), CompoundObstacle()).members.append(obs)
        self._compounds = list(groups.values())
        return self._compounds

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def blocks_point(self, p: Point) -> bool:
        """True when a buffer cannot be placed at ``p`` (strictly inside a blockage)."""
        return any(o.rect.contains_point(p, strict=True) for o in self._obstacles)

    def crossing_obstacles(self, seg: Segment) -> List[Obstacle]:
        """Return the obstacles whose interiors the segment crosses."""
        return [o for o in self._obstacles if seg.intersects_rect(o.rect, strict=True)]

    def is_route_clear(self, points: Sequence[Point]) -> bool:
        """True when the polyline through ``points`` avoids all obstacle interiors."""
        for a, b in zip(points, points[1:]):
            if self.crossing_obstacles(Segment(a, b)):
                return False
        return True

    def legal_buffer_location(self, p: Point, die: Optional[Rect] = None) -> bool:
        """True when a buffer may be placed at ``p`` (on die, not inside a blockage)."""
        if die is not None and not die.contains_point(p):
            return False
        return not self.blocks_point(p)

    def nearest_legal_point(
        self, p: Point, die: Optional[Rect] = None, step: float = 1.0
    ) -> Point:
        """Return a legal buffer location near ``p``.

        Searches outward on a spiral of up to :data:`MAX_RINGS` Manhattan
        rings with the given step.  Used when a buffer-insertion candidate
        lands inside a blockage: the buffer is pushed to the closest legal
        location (typically the blockage boundary).
        """
        if self.legal_buffer_location(p, die):
            return p
        ring = 1
        while ring <= MAX_RINGS:
            r = ring * step
            candidates = [
                p.translated(r, 0),
                p.translated(-r, 0),
                p.translated(0, r),
                p.translated(0, -r),
                p.translated(r / 2, r / 2),
                p.translated(-r / 2, r / 2),
                p.translated(r / 2, -r / 2),
                p.translated(-r / 2, -r / 2),
            ]
            for cand in candidates:
                if self.legal_buffer_location(cand, die):
                    return cand
            ring += 1
        raise ValueError(f"no legal buffer location found near {p}")

    def push_out_of_obstacles(self, p: Point, die: Optional[Rect] = None) -> Point:
        """Move a point that lies inside a blockage to the nearest legal location.

        The candidate locations are the projections of ``p`` onto the four
        sides of every blocking rectangle (the closest boundary points); the
        nearest candidate that is itself legal (and on the die) is returned.
        Falls back to a spiral search when every projection is blocked, e.g.
        deep inside a cluster of abutting macros.
        """
        if self.legal_buffer_location(p, die):
            return p
        candidates: List[Point] = []
        for obstacle in self._obstacles:
            rect = obstacle.rect
            if not rect.contains_point(p, strict=True):
                continue
            candidates.extend(
                [
                    Point(rect.xlo, p.y),
                    Point(rect.xhi, p.y),
                    Point(p.x, rect.ylo),
                    Point(p.x, rect.yhi),
                ]
            )
        legal = [c for c in candidates if self.legal_buffer_location(c, die)]
        if legal:
            return min(legal, key=lambda c: p.manhattan_to(c))
        span = max((o.rect.width + o.rect.height for o in self._obstacles), default=1.0)
        return self.nearest_legal_point(p, die, step=max(span / 100.0, 1.0))

    def total_blocked_area(self) -> float:
        """Sum of member areas (overlaps double-counted; used only for reporting)."""
        return sum(o.area for o in self._obstacles)
