"""Tests for obstacle-violation repair (Section IV-A)."""

import random

import pytest

from repro.cts import ClockTree, Sink, ispd09_buffer_library, ispd09_wire_library
from repro.cts.dme import build_zero_skew_tree
from repro.cts.obstacle_avoid import (
    ObstacleAvoider,
    _contour_parameter,
    _contour_point,
    _contour_walk,
    repair_obstacle_violations,
)
from repro.cts.topology import SinkInstance
from repro.geometry import Obstacle, ObstacleSet, Point, Rect

WIRES = ispd09_wire_library()
BUFS = ispd09_buffer_library()
DRIVER = BUFS.by_name("INV_S").parallel(8)


class TestContourParametrization:
    BOX = Rect(0.0, 0.0, 100.0, 50.0)

    @pytest.mark.parametrize(
        "point, expected",
        [
            (Point(0, 0), 0.0),
            (Point(60, 0), 60.0),
            (Point(100, 20), 120.0),
            (Point(40, 50), 100 + 50 + 60.0),
            (Point(0, 10), 100 + 50 + 100 + 40.0),
        ],
    )
    def test_parameter_values(self, point, expected):
        assert _contour_parameter(self.BOX, point) == pytest.approx(expected)

    def test_point_parameter_roundtrip(self):
        for param in (0.0, 30.0, 120.0, 200.0, 299.0):
            point = _contour_point(self.BOX, param)
            assert _contour_parameter(self.BOX, point) == pytest.approx(param % self.BOX.perimeter)

    def test_contour_walk_visits_corners(self):
        walk = _contour_walk(self.BOX, Point(60, 0), Point(100, 20), forward=True)
        assert walk[-1] == Point(100, 20)
        assert Point(100, 0) in walk

    def test_contour_walk_backward(self):
        walk = _contour_walk(self.BOX, Point(60, 0), Point(0, 10), forward=False)
        assert walk[-1] == Point(0, 10)
        assert Point(0, 0) in walk


class TestCrossingRepair:
    def test_crossing_edge_rerouted(self):
        obstacles = ObstacleSet([Obstacle(Rect(400, -200, 600, 200), name="blk")])
        tree = ClockTree(Point(0, 0), default_wire=WIRES.widest)
        tree.add_sink(tree.root_id, Point(1000, 0), Sink("s", 20.0))
        avoider = ObstacleAvoider(obstacles, driver=DRIVER)
        assert avoider.find_crossing_edges(tree)
        report = avoider.repair(tree)
        assert report.maze_reroutes + report.lshape_flips >= 1
        assert not avoider.find_crossing_edges(tree)

    def test_lshape_flip_preferred_when_it_clears(self):
        # The obstacle blocks only the horizontal-first bend.
        obstacles = ObstacleSet([Obstacle(Rect(400, -100, 600, 100), name="blk")])
        tree = ClockTree(Point(0, 0), default_wire=WIRES.widest)
        tree.add_sink(
            tree.root_id, Point(1000, 500), Sink("s", 20.0),
            route=[Point(0, 0), Point(1000, 0), Point(1000, 500)],
        )
        avoider = ObstacleAvoider(obstacles, driver=DRIVER)
        report = avoider.repair(tree)
        assert report.lshape_flips >= 1
        assert report.maze_reroutes == 0

    def test_wire_to_sink_inside_obstacle_is_tolerated(self):
        obstacles = ObstacleSet([Obstacle(Rect(400, -200, 800, 200), name="blk")])
        tree = ClockTree(Point(0, 0), default_wire=WIRES.widest)
        tree.add_sink(tree.root_id, Point(600, 0), Sink("macro_pin", 80.0))
        report = repair_obstacle_violations(tree, obstacles, driver=DRIVER)
        # The sink stays where it is; routing over the macro is legal.
        assert tree.sinks()[0].position == Point(600, 0)
        assert report.remaining_violations >= 0
        tree.validate()

    def test_no_obstacles_is_a_noop(self):
        tree = ClockTree(Point(0, 0), default_wire=WIRES.widest)
        tree.add_sink(tree.root_id, Point(100, 100), Sink("s", 5.0))
        report = repair_obstacle_violations(tree, ObstacleSet(), driver=DRIVER)
        assert report.edges_checked == 0


class TestMergeNodeLegalization:
    def test_internal_nodes_pushed_out_of_blockages(self):
        obstacles = ObstacleSet([Obstacle(Rect(400, -300, 900, 300), name="blk")])
        tree = ClockTree(Point(0, 0), default_wire=WIRES.widest)
        inner = tree.add_internal(tree.root_id, Point(650, 0))
        tree.add_sink(inner, Point(1200, 250), Sink("a", 20.0))
        tree.add_sink(inner, Point(1200, -250), Sink("b", 20.0))
        report = repair_obstacle_violations(tree, obstacles, driver=DRIVER)
        assert report.nodes_legalized == 1
        assert not obstacles.blocks_point(tree.node(inner).position)
        tree.validate()


class TestEnclosedSubtreeDetour:
    def _enclosed_case(self, sink_count=6, cap=120.0, spread=(1400.0, 3600.0, 1400.0, 3100.0)):
        """Several sinks inside one large blockage (spread controls how far apart)."""
        rng = random.Random(2)
        obstacles = ObstacleSet([Obstacle(Rect(1000, 1000, 4000, 3500), name="big")])
        xlo, xhi, ylo, yhi = spread
        sinks = [
            SinkInstance(
                f"in{i}",
                Point(rng.uniform(xlo, xhi), rng.uniform(ylo, yhi)),
                cap,
            )
            for i in range(sink_count)
        ] + [
            SinkInstance(f"out{i}", Point(rng.uniform(0, 900), rng.uniform(0, 900)), 20.0)
            for i in range(4)
        ]
        tree = build_zero_skew_tree(sinks, Point(0, 0), WIRES.widest)
        return obstacles, tree

    def test_large_enclosed_subtree_is_detoured(self):
        obstacles, tree = self._enclosed_case()
        sink_names_before = sorted(n.sink.name for n in tree.sinks())
        avoider = ObstacleAvoider(obstacles, driver=BUFS.by_name("INV_S").parallel(2), slew_limit=100.0)
        report = avoider.repair(tree)
        assert report.subtrees_captured >= 1
        assert report.subtrees_detoured >= 1
        # The detour must preserve every sink and keep the network a tree.
        tree.validate()
        assert sorted(n.sink.name for n in tree.sinks()) == sink_names_before
        # No internal node may remain strictly inside the blockage.
        for node in tree.nodes():
            if not node.is_sink and node.parent is not None:
                assert not obstacles.blocks_point(node.position)

    def test_small_enclosed_subtree_is_left_alone(self):
        # A tight, light cluster just inside the blockage boundary: one buffer
        # placed outside can drive it, so Step 2 decides against a detour.
        obstacles, tree = self._enclosed_case(
            sink_count=2, cap=10.0, spread=(1100.0, 1400.0, 1100.0, 1400.0)
        )
        wirelength_before = tree.total_wirelength()
        avoider = ObstacleAvoider(obstacles, driver=DRIVER, slew_limit=100.0)
        report = avoider.repair(tree)
        assert report.subtrees_detoured == 0
        # Only crossing-edge repair may have changed wirelength, not a contour detour.
        assert tree.total_wirelength() <= wirelength_before * 1.5
