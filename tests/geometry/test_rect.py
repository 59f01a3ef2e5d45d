"""Tests for axis-aligned rectangles."""

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect


class TestConstruction:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 1, 2)

    def test_from_corners_normalizes(self):
        rect = Rect.from_corners(Point(5, 1), Point(2, 7))
        assert (rect.xlo, rect.ylo, rect.xhi, rect.yhi) == (2, 1, 5, 7)

    def test_zero_area_rect_is_allowed(self):
        rect = Rect(1, 1, 1, 5)
        assert rect.area == 0.0


class TestMeasures:
    def test_width_height_area(self):
        rect = Rect(0, 0, 4, 3)
        assert rect.width == 4 and rect.height == 3 and rect.area == 12

    def test_center(self):
        assert Rect(0, 0, 4, 2).center == Point(2, 1)

    def test_perimeter(self):
        assert Rect(0, 0, 4, 2).perimeter == 12

    def test_corners_order(self):
        corners = Rect(0, 0, 2, 1).corners()
        assert corners == [Point(0, 0), Point(2, 0), Point(2, 1), Point(0, 1)]


class TestContainment:
    def test_contains_interior_point(self):
        assert Rect(0, 0, 4, 4).contains_point(Point(2, 2))

    def test_boundary_point_non_strict(self):
        assert Rect(0, 0, 4, 4).contains_point(Point(0, 2))

    def test_boundary_point_strict(self):
        assert not Rect(0, 0, 4, 4).contains_point(Point(0, 2), strict=True)

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 5, 5))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 15, 5))


class TestIntersection:
    def test_overlapping(self):
        assert Rect(0, 0, 4, 4).intersects(Rect(2, 2, 6, 6))

    def test_touching_not_strict_intersection(self):
        a, b = Rect(0, 0, 4, 4), Rect(4, 0, 8, 4)
        assert not a.intersects(b, strict=True)
        assert a.intersects(b, strict=False)

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(5, 5, 6, 6), strict=False)

    def test_intersection_rect(self):
        overlap = Rect(0, 0, 4, 4).intersection(Rect(2, 1, 6, 3))
        assert overlap == Rect(2, 1, 4, 3)

    def test_intersection_none_when_disjoint(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(3, 3, 4, 4)) is None

    def test_union_bbox(self):
        assert Rect(0, 0, 1, 1).union_bbox(Rect(3, 2, 4, 5)) == Rect(0, 0, 4, 5)


class TestGeometryHelpers:
    def test_expanded(self):
        assert Rect(1, 1, 3, 3).expanded(1) == Rect(0, 0, 4, 4)

    def test_clamp_point_inside_unchanged(self):
        assert Rect(0, 0, 4, 4).clamp_point(Point(1, 2)) == Point(1, 2)

    def test_clamp_point_outside(self):
        assert Rect(0, 0, 4, 4).clamp_point(Point(9, -3)) == Point(4, 0)

    # The distance from a point to a rectangle is the distance to its clamp.
    def test_distance_to_point_inside_is_zero(self):
        p = Point(2, 2)
        assert p.manhattan_to(Rect(0, 0, 4, 4).clamp_point(p)) == 0.0

    def test_distance_to_point_outside(self):
        p = Point(6, 7)
        assert p.manhattan_to(Rect(0, 0, 4, 4).clamp_point(p)) == 5.0
