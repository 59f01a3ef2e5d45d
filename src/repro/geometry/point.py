"""Points in the Manhattan plane.

Coordinates are floats expressed in micrometres (um) throughout the library.
The choice of unit only matters for the technology constants in
:mod:`repro.cts.wirelib`; the geometry code is unit-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["Point"]


@dataclass(frozen=True, order=True)
class Point:
    """A point in the plane with Manhattan-metric helpers."""

    x: float
    y: float

    def manhattan_to(self, other: "Point") -> float:
        """Return the Manhattan (L1) distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def midpoint(self, other: "Point") -> "Point":
        """Return the Euclidean midpoint between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def is_close(self, other: "Point", tol: float = 1e-9) -> bool:
        """Return True when both coordinates match within ``tol``."""
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    # Rotated ("diagonal") coordinates used by the DME/TRR machinery.  In the
    # 45-degree rotated frame a Manhattan ball becomes an axis-aligned square,
    # which turns TRR intersection into rectangle intersection.
    @property
    def u(self) -> float:
        """Rotated coordinate ``x + y``."""
        return self.x + self.y

    @property
    def v(self) -> float:
        """Rotated coordinate ``x - y``."""
        return self.x - self.y

    @staticmethod
    def from_uv(u: float, v: float) -> "Point":
        """Build a point from rotated coordinates ``u = x + y``, ``v = x - y``."""
        return Point((u + v) / 2.0, (u - v) / 2.0)
