"""Axis-aligned rectangles (die outlines, placement obstacles, macro blocks)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.geometry.point import Point

__all__ = ["Rect"]


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned rectangle ``[xlo, xhi] x [ylo, yhi]``."""

    xlo: float
    ylo: float
    xhi: float
    yhi: float

    def __post_init__(self) -> None:
        if self.xhi < self.xlo or self.yhi < self.ylo:
            raise ValueError(
                f"degenerate rectangle: ({self.xlo}, {self.ylo}, {self.xhi}, {self.yhi})"
            )

    @staticmethod
    def from_corners(a: Point, b: Point) -> "Rect":
        """Build the bounding rectangle of two corner points."""
        return Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))

    @property
    def width(self) -> float:
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        return self.yhi - self.ylo

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.xlo + self.xhi) / 2.0, (self.ylo + self.yhi) / 2.0)

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    def corners(self) -> List[Point]:
        """Return the four corners in counter-clockwise order from (xlo, ylo)."""
        return [
            Point(self.xlo, self.ylo),
            Point(self.xhi, self.ylo),
            Point(self.xhi, self.yhi),
            Point(self.xlo, self.yhi),
        ]

    def contains_point(self, p: Point, *, strict: bool = False) -> bool:
        """Return True when ``p`` lies inside the rectangle.

        With ``strict=True`` the boundary is excluded, which is the test used
        to decide whether a wire end-point is *blocked* by an obstacle (points
        on the obstacle boundary are legal buffer locations).
        """
        if strict:
            return self.xlo < p.x < self.xhi and self.ylo < p.y < self.yhi
        return self.xlo <= p.x <= self.xhi and self.ylo <= p.y <= self.yhi

    def contains_rect(self, other: "Rect") -> bool:
        """Return True when ``other`` lies entirely inside this rectangle."""
        return (
            self.xlo <= other.xlo
            and self.ylo <= other.ylo
            and self.xhi >= other.xhi
            and self.yhi >= other.yhi
        )

    def intersects(self, other: "Rect", *, strict: bool = True) -> bool:
        """Return True when the two rectangles overlap.

        With ``strict=True`` (the default) rectangles that merely share a
        boundary are *not* considered intersecting; with ``strict=False`` they
        are (used to merge abutting obstacles into compound obstacles).
        """
        if strict:
            return (
                self.xlo < other.xhi
                and other.xlo < self.xhi
                and self.ylo < other.yhi
                and other.ylo < self.yhi
            )
        return (
            self.xlo <= other.xhi
            and other.xlo <= self.xhi
            and self.ylo <= other.yhi
            and other.ylo <= self.yhi
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Return the overlap rectangle, or None when the rectangles are disjoint."""
        xlo = max(self.xlo, other.xlo)
        ylo = max(self.ylo, other.ylo)
        xhi = min(self.xhi, other.xhi)
        yhi = min(self.yhi, other.yhi)
        if xhi < xlo or yhi < ylo:
            return None
        return Rect(xlo, ylo, xhi, yhi)

    def union_bbox(self, other: "Rect") -> "Rect":
        """Return the bounding box of the two rectangles."""
        return Rect(
            min(self.xlo, other.xlo),
            min(self.ylo, other.ylo),
            max(self.xhi, other.xhi),
            max(self.yhi, other.yhi),
        )

    def expanded(self, margin: float) -> "Rect":
        """Return a rectangle grown by ``margin`` on every side."""
        return Rect(
            self.xlo - margin, self.ylo - margin, self.xhi + margin, self.yhi + margin
        )

    def clamp_point(self, p: Point) -> Point:
        """Return the point of the rectangle closest to ``p``."""
        return Point(
            min(max(p.x, self.xlo), self.xhi), min(max(p.y, self.ylo), self.yhi)
        )
