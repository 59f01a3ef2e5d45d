"""Rectilinear wire segments and one-bend (L-shape) routes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = ["Segment", "LShape"]


@dataclass(frozen=True)
class Segment:
    """A straight wire segment between two points.

    Clock wires are rectilinear, so most segments are horizontal or vertical;
    the class nevertheless supports arbitrary endpoints because DME embedding
    may temporarily produce point-to-point connections that are later
    decomposed into L-shapes.
    """

    a: Point
    b: Point

    @property
    def length(self) -> float:
        """Manhattan length of the segment."""
        return self.a.manhattan_to(self.b)

    @property
    def is_horizontal(self) -> bool:
        return self.a.y == self.b.y

    @property
    def is_vertical(self) -> bool:
        return self.a.x == self.b.x

    @property
    def is_rectilinear(self) -> bool:
        return self.is_horizontal or self.is_vertical

    @property
    def is_degenerate(self) -> bool:
        return self.a == self.b

    def bounding_box(self) -> Rect:
        return Rect.from_corners(self.a, self.b)

    def reversed(self) -> "Segment":
        return Segment(self.b, self.a)

    def midpoint(self) -> Point:
        return self.a.midpoint(self.b)

    def point_at(self, fraction: float) -> Point:
        """Return the point a ``fraction`` of the way from ``a`` to ``b``.

        For rectilinear segments the interpolation follows the wire; for a
        general segment it interpolates linearly, which matches the Manhattan
        parametrisation of an L-shape drawn as a "diagonal wire".
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return Point(
            self.a.x + (self.b.x - self.a.x) * fraction,
            self.a.y + (self.b.y - self.a.y) * fraction,
        )

    def intersects_rect(self, rect: Rect, *, strict: bool = True) -> bool:
        """Return True when the segment crosses the interior of ``rect``.

        Only rectilinear segments receive an exact test; a non-rectilinear
        (point-to-point) segment is treated as its bounding box, which is the
        conservative test used when deciding whether an un-embedded DME edge
        may conflict with an obstacle.
        """
        if self.is_degenerate:
            return rect.contains_point(self.a, strict=strict)
        if self.is_rectilinear:
            bbox = self.bounding_box()
            return rect.intersects(bbox, strict=strict)
        return rect.intersects(self.bounding_box(), strict=strict)


@dataclass(frozen=True)
class LShape:
    """A one-bend rectilinear route from ``start`` to ``end`` via ``bend``."""

    start: Point
    bend: Point
    end: Point

    def __post_init__(self) -> None:
        first = Segment(self.start, self.bend)
        second = Segment(self.bend, self.end)
        if not (first.is_rectilinear and second.is_rectilinear):
            raise ValueError("L-shape legs must be rectilinear")

    @property
    def segments(self) -> List[Segment]:
        segs = []
        if self.start != self.bend:
            segs.append(Segment(self.start, self.bend))
        if self.bend != self.end:
            segs.append(Segment(self.bend, self.end))
        if not segs:
            segs.append(Segment(self.start, self.end))
        return segs

    @property
    def length(self) -> float:
        return self.start.manhattan_to(self.bend) + self.bend.manhattan_to(self.end)

    def overlap_length_with(self, rect: Rect) -> float:
        """Return the total length of this route lying strictly inside ``rect``."""
        total = 0.0
        for seg in self.segments:
            total += _rectilinear_overlap_length(seg, rect)
        return total


def _rectilinear_overlap_length(seg: Segment, rect: Rect) -> float:
    """Length of a rectilinear segment's intersection with a rectangle's interior."""
    if seg.is_degenerate:
        return 0.0
    if seg.is_horizontal:
        y = seg.a.y
        if not (rect.ylo < y < rect.yhi):
            return 0.0
        lo, hi = sorted((seg.a.x, seg.b.x))
        return max(0.0, min(hi, rect.xhi) - max(lo, rect.xlo))
    if seg.is_vertical:
        x = seg.a.x
        if not (rect.xlo < x < rect.xhi):
            return 0.0
        lo, hi = sorted((seg.a.y, seg.b.y))
        return max(0.0, min(hi, rect.yhi) - max(lo, rect.ylo))
    # Fallback for a non-rectilinear segment: use the clipped bounding-box
    # semi-perimeter as a conservative overlap estimate.
    clipped: Optional[Rect] = seg.bounding_box().intersection(rect)
    if clipped is None:
        return 0.0
    return clipped.width + clipped.height
