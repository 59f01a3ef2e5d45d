"""Tests for Manhattan arcs, TRRs and DME merging segments."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry.point import Point
from repro.geometry.trr import TRR, ManhattanArc, merging_segment

coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


def distance(arc, p):
    """Manhattan distance from ``p`` to the closest point of ``arc``."""
    return arc.distance_to_arc(ManhattanArc.from_point(p))


def diagonal_arc(a, b):
    """The arc from ``a`` to ``b``, built from their rotated coordinates."""
    ulo, uhi = sorted((a.u, b.u))
    vlo, vhi = sorted((a.v, b.v))
    return ManhattanArc(ulo, uhi, vlo, vhi)


class TestManhattanArc:
    def test_from_point_is_degenerate(self):
        arc = ManhattanArc.from_point(Point(3, 4))
        assert arc.length == 0.0

    def test_from_endpoints_on_diagonal(self):
        arc = diagonal_arc(Point(0, 0), Point(2, 2))
        assert arc.length == pytest.approx(4.0)  # u spans 0..4

    def test_from_endpoints_off_diagonal_raises(self):
        with pytest.raises(ValueError):
            diagonal_arc(Point(0, 0), Point(3, 1))

    def test_invalid_extents_raise(self):
        with pytest.raises(ValueError):
            ManhattanArc(1.0, 0.0, 0.0, 0.0)

    def test_two_dimensional_arc_raises(self):
        with pytest.raises(ValueError):
            ManhattanArc(0.0, 1.0, 0.0, 1.0)

    def test_distance_to_point_matches_manhattan_for_point_arc(self):
        arc = ManhattanArc.from_point(Point(1, 1))
        assert distance(arc, Point(4, 5)) == pytest.approx(7.0)

    def test_closest_point_lies_on_arc(self):
        arc = diagonal_arc(Point(0, 0), Point(4, 4))
        closest = arc.closest_point_to(Point(10, 0))
        assert distance(arc, closest) <= 1e-9

    def test_distance_to_arc_zero_when_touching(self):
        a = ManhattanArc.from_point(Point(0, 0))
        b = diagonal_arc(Point(0, 0), Point(3, 3))
        assert a.distance_to_arc(b) == 0.0

    @given(points, points)
    def test_point_arc_distance_equals_manhattan(self, p, q):
        arc = ManhattanArc.from_point(p)
        assert math.isclose(distance(arc, q), p.manhattan_to(q), rel_tol=1e-9, abs_tol=1e-6)


class TestTRR:
    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            TRR(ManhattanArc.from_point(Point(0, 0)), -1.0)

    def test_contains_points_within_radius(self):
        region = TRR(ManhattanArc.from_point(Point(0, 0)), 5.0)
        assert region.contains_point(Point(2, 3))
        assert region.contains_point(Point(5, 0))
        assert not region.contains_point(Point(4, 3))

    def test_intersect_disjoint_returns_none(self):
        a = TRR(ManhattanArc.from_point(Point(0, 0)), 1.0)
        b = TRR(ManhattanArc.from_point(Point(10, 0)), 1.0)
        assert a.intersect(b) is None

    def test_intersect_tangent_returns_point(self):
        a = TRR(ManhattanArc.from_point(Point(0, 0)), 5.0)
        b = TRR(ManhattanArc.from_point(Point(10, 0)), 5.0)
        arc = a.intersect(b)
        assert arc is not None and arc.length == 0.0
        assert arc.closest_point_to(Point(0, 0)).is_close(Point(5, 0))


class TestMergingSegment:
    def test_radii_too_small_raise(self):
        a = ManhattanArc.from_point(Point(0, 0))
        b = ManhattanArc.from_point(Point(10, 0))
        with pytest.raises(ValueError):
            merging_segment(a, b, 3.0, 3.0)

    def test_exact_split_points_lie_between(self):
        a = ManhattanArc.from_point(Point(0, 0))
        b = ManhattanArc.from_point(Point(10, 0))
        arc = merging_segment(a, b, 4.0, 6.0)
        point = arc.closest_point_to(Point(0, 0))
        assert distance(a, point) == pytest.approx(4.0, abs=1e-6)
        assert distance(b, point) == pytest.approx(6.0, abs=1e-6)

    def test_detour_radius_keeps_segment_on_near_arc(self):
        a = ManhattanArc.from_point(Point(0, 0))
        b = ManhattanArc.from_point(Point(10, 0))
        arc = merging_segment(a, b, 0.0, 14.0)
        assert distance(a, arc.closest_point_to(Point(0, 0))) <= 1e-9

    @given(points, points, st.floats(min_value=0.0, max_value=1.0))
    def test_split_property(self, p, q, fraction):
        a = ManhattanArc.from_point(p)
        b = ManhattanArc.from_point(q)
        dist = p.manhattan_to(q)
        ra = dist * fraction
        rb = dist - ra
        arc = merging_segment(a, b, ra, rb)
        sample = arc.closest_point_to(p)
        assert distance(a, sample) <= ra + 1e-6
        assert distance(b, sample) <= rb + 1e-6
