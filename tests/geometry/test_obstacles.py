"""Tests for obstacles, compound-obstacle merging and legality queries."""

import pytest

from repro.geometry.obstacles import Obstacle, ObstacleSet
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment


def _set(*rects):
    return ObstacleSet([Obstacle(r, name=f"o{i}") for i, r in enumerate(rects)])


class TestCompoundObstacles:
    def test_disjoint_obstacles_stay_separate(self):
        obstacles = _set(Rect(0, 0, 10, 10), Rect(50, 50, 60, 60))
        assert len(obstacles.compound_obstacles()) == 2

    def test_abutting_obstacles_merge(self):
        obstacles = _set(Rect(0, 0, 10, 10), Rect(10, 0, 20, 10))
        compounds = obstacles.compound_obstacles()
        assert len(compounds) == 1
        assert compounds[0].bbox == Rect(0, 0, 20, 10)

    def test_chain_of_three_merges_transitively(self):
        obstacles = _set(Rect(0, 0, 10, 10), Rect(10, 0, 20, 10), Rect(20, 0, 30, 10))
        assert len(obstacles.compound_obstacles()) == 1

    def test_add_invalidates_cached_compounds(self):
        obstacles = _set(Rect(0, 0, 10, 10))
        assert len(obstacles.compound_obstacles()) == 1
        obstacles.add(Obstacle(Rect(10, 0, 20, 10), name="new"))
        assert len(obstacles.compound_obstacles()) == 1
        assert obstacles.compound_obstacles()[0].bbox.xhi == 20


class TestQueries:
    def test_blocks_interior_point_only(self):
        obstacles = _set(Rect(0, 0, 10, 10))
        assert obstacles.blocks_point(Point(5, 5))
        assert not obstacles.blocks_point(Point(0, 5))  # boundary is legal
        assert not obstacles.blocks_point(Point(15, 5))

    def test_crossing_obstacles(self):
        obstacles = _set(Rect(0, 0, 10, 10), Rect(20, 0, 30, 10))
        crossing = obstacles.crossing_obstacles(Segment(Point(-5, 5), Point(15, 5)))
        assert len(crossing) == 1

    def test_is_route_clear(self):
        obstacles = _set(Rect(0, 0, 10, 10))
        assert obstacles.is_route_clear([Point(-5, 15), Point(15, 15)])
        assert not obstacles.is_route_clear([Point(-5, 5), Point(15, 5)])

    def test_legal_buffer_location_with_die(self):
        obstacles = _set(Rect(0, 0, 10, 10))
        die = Rect(0, 0, 100, 100)
        assert obstacles.legal_buffer_location(Point(50, 50), die)
        assert not obstacles.legal_buffer_location(Point(5, 5), die)
        assert not obstacles.legal_buffer_location(Point(150, 50), die)

    def test_nearest_legal_point_already_legal(self):
        obstacles = _set(Rect(0, 0, 10, 10))
        assert obstacles.nearest_legal_point(Point(50, 50)) == Point(50, 50)

    def test_nearest_legal_point_escapes_obstacle(self):
        obstacles = _set(Rect(0, 0, 10, 10))
        escaped = obstacles.nearest_legal_point(Point(5, 5), step=1.0)
        assert not obstacles.blocks_point(escaped)

    def test_push_out_of_obstacles_moves_to_boundary(self):
        obstacles = _set(Rect(0, 0, 10, 10))
        moved = obstacles.push_out_of_obstacles(Point(2, 5))
        assert not obstacles.blocks_point(moved)
        assert Point(2, 5).manhattan_to(moved) <= 5.0 + 1e-9

    def test_push_out_respects_die(self):
        obstacles = _set(Rect(0, 0, 10, 10))
        die = Rect(0, 3, 100, 100)
        moved = obstacles.push_out_of_obstacles(Point(1, 5), die)
        assert die.contains_point(moved)
        assert not obstacles.blocks_point(moved)

    def test_total_blocked_area(self):
        # The area the obstacle avoider routes around: its compound boxes.
        obstacles = _set(Rect(0, 0, 10, 10), Rect(20, 0, 25, 10))
        boxes = [c.bbox for c in obstacles.compound_obstacles()]
        assert sum(box.area for box in boxes) == pytest.approx(150.0)
