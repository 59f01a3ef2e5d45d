"""Tests for planar points and Manhattan-metric helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


class TestPointBasics:
    def test_manhattan_distance(self):
        assert Point(0, 0).manhattan_to(Point(3, 4)) == 7.0

    def test_manhattan_distance_function(self):
        assert Point(1, 1).manhattan_to(Point(-2, 5)) == 7.0

    def test_euclidean_distance(self):
        # A point iterates as (x, y), so math.dist takes it as it is.
        assert math.dist(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(4, 6)) == Point(2, 3)

    def test_as_tuple(self):
        assert tuple(Point(1.5, -2.0)) == (1.5, -2.0)

    def test_iteration_unpacks(self):
        x, y = Point(7, 8)
        assert (x, y) == (7, 8)

    def test_is_close_true(self):
        assert Point(1.0, 1.0).is_close(Point(1.0 + 1e-12, 1.0))

    def test_is_close_false(self):
        assert not Point(1.0, 1.0).is_close(Point(1.1, 1.0))

    def test_ordering_is_lexicographic(self):
        assert Point(1, 5) < Point(2, 0)
        assert Point(1, 2) < Point(1, 3)

    def test_points_are_hashable(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2


class TestRotatedCoordinates:
    def test_u_and_v(self):
        p = Point(3, 1)
        assert p.u == 4 and p.v == 2

    def test_from_uv_roundtrip(self):
        p = Point(2.5, -1.5)
        assert Point.from_uv(p.u, p.v).is_close(p)

    @given(points)
    def test_uv_roundtrip_property(self, p):
        back = Point.from_uv(p.u, p.v)
        assert math.isclose(back.x, p.x, abs_tol=1e-6)
        assert math.isclose(back.y, p.y, abs_tol=1e-6)

    @given(points, points)
    def test_manhattan_equals_chebyshev_in_rotated_frame(self, a, b):
        manhattan = a.manhattan_to(b)
        chebyshev = max(abs(a.u - b.u), abs(a.v - b.v))
        assert math.isclose(manhattan, chebyshev, rel_tol=1e-9, abs_tol=1e-6)


class TestManhattanMetricProperties:
    @given(points, points)
    def test_symmetry(self, a, b):
        assert a.manhattan_to(b) == b.manhattan_to(a)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.manhattan_to(c) <= a.manhattan_to(b) + b.manhattan_to(c) + 1e-6

    @given(points)
    def test_identity(self, a):
        assert a.manhattan_to(a) == 0.0


class TestBoundingBox:
    """Bounding boxes are rectangles grown by ``Rect.union_bbox``, as
    ``CompoundObstacle.bbox`` builds them."""

    def test_bounding_box(self):
        points = [Point(1, 5), Point(-2, 3), Point(4, 0)]
        box = Rect.from_corners(points[0], points[0])
        for p in points[1:]:
            box = box.union_bbox(Rect.from_corners(p, p))
        assert (box.xlo, box.ylo, box.xhi, box.yhi) == (-2, 0, 4, 5)

    def test_bounding_box_single_point(self):
        box = Rect.from_corners(Point(2, 2), Point(2, 2))
        assert (box.xlo, box.ylo, box.xhi, box.yhi) == (2, 2, 2, 2)
