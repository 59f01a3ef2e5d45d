"""Tests for rectilinear segments and L-shapes."""

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import LShape, Segment


class TestSegment:
    def test_length_is_manhattan(self):
        assert Segment(Point(0, 0), Point(3, 4)).length == 7.0

    def test_orientation_flags(self):
        assert Segment(Point(0, 0), Point(5, 0)).is_horizontal
        assert Segment(Point(1, 1), Point(1, 9)).is_vertical
        assert Segment(Point(0, 0), Point(2, 3)).is_rectilinear is False

    def test_degenerate(self):
        assert Segment(Point(1, 1), Point(1, 1)).is_degenerate

    def test_point_at_endpoints(self):
        seg = Segment(Point(0, 0), Point(10, 0))
        assert seg.point_at(0.0) == Point(0, 0)
        assert seg.point_at(1.0) == Point(10, 0)
        assert seg.point_at(0.25) == Point(2.5, 0)

    def test_point_at_out_of_range(self):
        with pytest.raises(ValueError):
            Segment(Point(0, 0), Point(1, 0)).point_at(1.5)

    def test_intersects_rect_crossing(self):
        seg = Segment(Point(-5, 5), Point(15, 5))
        assert seg.intersects_rect(Rect(0, 0, 10, 10))

    def test_intersects_rect_touching_boundary_not_strict_crossing(self):
        seg = Segment(Point(-5, 0), Point(15, 0))
        assert not seg.intersects_rect(Rect(0, 0, 10, 10), strict=True)
        assert seg.intersects_rect(Rect(0, 0, 10, 10), strict=False)

    def test_intersects_rect_outside(self):
        assert not Segment(Point(-5, 20), Point(15, 20)).intersects_rect(Rect(0, 0, 10, 10))


class TestLShape:
    def test_legs_must_be_rectilinear(self):
        with pytest.raises(ValueError):
            LShape(Point(0, 0), Point(3, 4), Point(3, 8))

    def test_length(self):
        route = LShape(Point(0, 0), Point(4, 0), Point(4, 3))
        assert route.length == 7.0

    def test_segments_skip_degenerate_legs(self):
        straight = LShape(Point(0, 0), Point(0, 0), Point(0, 5))
        assert len(straight.segments) == 1

    def test_overlap_length_with_rect(self):
        route = LShape(Point(0, 5), Point(10, 5), Point(10, 12))
        rect = Rect(2, 0, 6, 10)
        assert route.overlap_length_with(rect) == pytest.approx(4.0)

    def test_overlap_zero_outside(self):
        route = LShape(Point(0, 0), Point(10, 0), Point(10, 2))
        assert route.overlap_length_with(Rect(20, 20, 30, 30)) == 0.0
