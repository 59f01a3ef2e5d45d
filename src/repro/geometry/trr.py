"""Manhattan arcs and tilted rectangular regions (TRRs) for DME.

The Deferred Merge Embedding (DME) algorithm represents the locus of feasible
merge points of a subtree as a *merging segment*: a segment of slope +/-1
(a *Manhattan arc*) or a single point.  A *tilted rectangular region* (TRR)
is the set of points within a fixed Manhattan radius of a Manhattan arc; it
looks like a rectangle rotated by 45 degrees.

All operations are performed in the 45-degree rotated frame

    u = x + y,   v = x - y

where a Manhattan ball becomes an axis-aligned square, a Manhattan arc becomes
an axis-parallel segment, and a TRR becomes an axis-aligned rectangle.  TRR
intersection therefore reduces to rectangle intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geometry.point import Point

__all__ = ["ManhattanArc", "TRR", "merging_segment"]

_TOL = 1e-7


@dataclass(frozen=True)
class ManhattanArc:
    """A segment of slope +1 or -1 (possibly degenerate to a point).

    Stored as the axis-aligned segment ``[ulo, uhi] x [vlo, vhi]`` in rotated
    coordinates, where exactly one of the two extents may be non-zero (a
    rotated-frame rectangle with both extents non-zero is a TRR core only if
    one side collapses; arcs always have at most one non-zero extent).
    """

    ulo: float
    uhi: float
    vlo: float
    vhi: float

    def __post_init__(self) -> None:
        if self.uhi < self.ulo - _TOL or self.vhi < self.vlo - _TOL:
            raise ValueError("invalid Manhattan arc extents")
        if self.uhi - self.ulo > _TOL and self.vhi - self.vlo > _TOL:
            raise ValueError(
                "a Manhattan arc must be degenerate in at least one rotated axis"
            )

    @staticmethod
    def from_point(p: Point) -> "ManhattanArc":
        return ManhattanArc(p.u, p.u, p.v, p.v)

    @property
    def length(self) -> float:
        """Manhattan length of the arc (each unit of u or v spans 1 Manhattan unit)."""
        return max(self.uhi - self.ulo, self.vhi - self.vlo)

    def closest_point_to(self, p: Point) -> Point:
        """Return the point of the arc closest (in Manhattan distance) to ``p``."""
        u = min(max(p.u, self.ulo), self.uhi)
        v = min(max(p.v, self.vlo), self.vhi)
        return Point.from_uv(u, v)

    def distance_to_arc(self, other: "ManhattanArc") -> float:
        du = max(self.ulo - other.uhi, other.ulo - self.uhi, 0.0)
        dv = max(self.vlo - other.vhi, other.vlo - self.vhi, 0.0)
        return max(du, dv)


@dataclass(frozen=True)
class TRR:
    """A tilted rectangular region: all points within ``radius`` of ``core``."""

    core: ManhattanArc
    radius: float

    def __post_init__(self) -> None:
        if self.radius < -_TOL:
            raise ValueError(f"TRR radius must be non-negative, got {self.radius}")

    @property
    def ulo(self) -> float:
        return self.core.ulo - self.radius

    @property
    def uhi(self) -> float:
        return self.core.uhi + self.radius

    @property
    def vlo(self) -> float:
        return self.core.vlo - self.radius

    @property
    def vhi(self) -> float:
        return self.core.vhi + self.radius

    def contains_point(self, p: Point) -> bool:
        return (
            self.ulo - _TOL <= p.u <= self.uhi + _TOL
            and self.vlo - _TOL <= p.v <= self.vhi + _TOL
        )

    def intersect(self, other: "TRR") -> Optional[ManhattanArc]:
        """Intersect two TRRs and return the result as a Manhattan arc.

        DME guarantees that when two TRRs are built with radii summing to the
        distance between their cores, the intersection collapses to an arc.
        When the full intersection is two-dimensional (radii overlap more than
        necessary) we return a maximal arc inside it -- the diagonal of the
        rotated-frame rectangle clipped to arc form -- which preserves the
        zero-skew property used by callers.
        """
        ulo = max(self.ulo, other.ulo)
        uhi = min(self.uhi, other.uhi)
        vlo = max(self.vlo, other.vlo)
        vhi = min(self.vhi, other.vhi)
        if uhi < ulo - _TOL or vhi < vlo - _TOL:
            return None
        uhi = max(uhi, ulo)
        vhi = max(vhi, vlo)
        du = uhi - ulo
        dv = vhi - vlo
        if du <= _TOL or dv <= _TOL:
            return ManhattanArc(ulo, uhi, vlo, vhi)
        # Two-dimensional overlap: keep the longer mid-line as the arc.
        if du >= dv:
            vmid = (vlo + vhi) / 2.0
            return ManhattanArc(ulo, uhi, vmid, vmid)
        umid = (ulo + uhi) / 2.0
        return ManhattanArc(umid, umid, vlo, vhi)


def merging_segment(
    arc_a: ManhattanArc, arc_b: ManhattanArc, radius_a: float, radius_b: float
) -> ManhattanArc:
    """Compute the DME merging segment of two child merging segments.

    ``radius_a`` and ``radius_b`` are the wire lengths allocated to the two
    children; the caller chooses them so that delays balance.  When the radii
    do not reach (``radius_a + radius_b`` < distance between the arcs) the
    children cannot meet and a ``ValueError`` is raised -- callers must extend
    the radii (detour wire) before merging.
    """
    dist = arc_a.distance_to_arc(arc_b)
    if radius_a + radius_b < dist - 1e-6:
        raise ValueError(
            f"merging radii {radius_a}+{radius_b} cannot span arc distance {dist}"
        )
    result = TRR(arc_a, radius_a).intersect(TRR(arc_b, radius_b))
    if result is None:
        raise ValueError("TRR intersection unexpectedly empty")
    return result
