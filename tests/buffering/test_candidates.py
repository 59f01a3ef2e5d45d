"""Tests for buffer-station enumeration and the maximum-load model."""

import pytest

from repro.buffering.candidates import enumerate_stations, max_drivable_capacitance
from repro.cts import ClockTree, Sink, ispd09_buffer_library, ispd09_wire_library
from repro.geometry import Obstacle, ObstacleSet, Point, Rect

WIRES = ispd09_wire_library()
BUFS = ispd09_buffer_library()


def line_tree(length=1000.0):
    tree = ClockTree(Point(0, 0), default_wire=WIRES.widest)
    tree.add_sink(tree.root_id, Point(length, 0), Sink("s", 20.0))
    return tree


class TestMaxDrivableCapacitance:
    def test_stronger_buffer_drives_more(self):
        weak = max_drivable_capacitance(BUFS.by_name("INV_S"), 100.0)
        strong = max_drivable_capacitance(BUFS.by_name("INV_L"), 100.0)
        assert strong > weak

    def test_wire_delay_reduces_budget(self):
        base = max_drivable_capacitance(BUFS.by_name("INV_L"), 100.0)
        shielded = max_drivable_capacitance(BUFS.by_name("INV_L"), 100.0, wire_delay_to_worst_tap=20.0)
        assert shielded < base

    def test_budget_can_reach_zero(self):
        assert max_drivable_capacitance(BUFS.by_name("INV_L"), 100.0, wire_delay_to_worst_tap=1000.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            max_drivable_capacitance(BUFS.by_name("INV_L"), 0.0)
        with pytest.raises(ValueError):
            max_drivable_capacitance(BUFS.by_name("INV_L"), 100.0, margin=1.5)


class TestStationEnumeration:
    def test_station_count_matches_spacing(self):
        stations = enumerate_stations(line_tree(1000.0), spacing=250.0)
        sink_id = [k for k in stations][0]
        assert len(stations[sink_id]) == 3  # at 250, 500, 750

    def test_short_edges_get_no_station(self):
        stations = enumerate_stations(line_tree(200.0), spacing=250.0)
        assert all(len(v) == 0 for v in stations.values())

    def test_positions_lie_on_the_route(self):
        stations = enumerate_stations(line_tree(1000.0), spacing=250.0)
        for station_list in stations.values():
            for station in station_list:
                assert station.position.y == 0.0
                assert 0.0 < station.position.x < 1000.0

    def test_fraction_and_distance_are_consistent(self):
        stations = enumerate_stations(line_tree(1000.0), spacing=250.0)
        for station_list in stations.values():
            for station in station_list:
                assert station.fraction_from_parent == pytest.approx(
                    1.0 - station.distance_from_child / 1000.0
                )

    def test_obstacle_makes_station_illegal(self):
        obstacles = ObstacleSet([Obstacle(Rect(400, -50, 600, 50))])
        stations = enumerate_stations(line_tree(1000.0), spacing=250.0, obstacles=obstacles)
        flags = [s.legal for v in stations.values() for s in v]
        assert flags.count(False) == 1  # the station at x=500

    def test_die_limits_legality(self):
        die = Rect(0, -10, 600, 10)
        stations = enumerate_stations(line_tree(1000.0), spacing=250.0, die=die)
        legal_positions = [s.position.x for v in stations.values() for s in v if s.legal]
        assert all(x <= 600 for x in legal_positions)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            enumerate_stations(line_tree(), spacing=0.0)
